"""The small graphs of a whole replicate-seed block, drawn in lockstep.

``sampler.sample`` serves the seed ``replicate_seed`` handed out last,
at its block's n of at most ``sampler.SMALL_GRAPH_VERTICES``, from that
seed's row of two per-block computations over all ``SEED_BLOCK`` lanes:
``labels``, the latents (stream 0 of ``seeding.lane_uniforms``) with
their blocks and occupancy, and ``edges``, the edge layer read from the
first batches of stream 1.  Both give the values numpy's generators give
one graph at a time.  The sampler keeps the last block of each and
imports this module on first use: without a bytecode cache, this code
compiled as part of the sampler raised the peak memory of runs that draw
no small graph, dense_edges' from 37.16 to 37.33-37.35 MB; on its own it
left them at 37.13-37.14 MB.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import sampler
from .graphon import StepGraphon
from .seeding import SEED_BLOCK, lane_uniforms

# Each stratum is read this many lanes at a time: at a batch of 16 its
# gaps take 32 kB, not 128 kB.  tiny_n's peak memory fell by about 0.2 MB,
# with no loss of speed that showed in its replicates per second.
_SLICE = 256


def labels(w: StepGraphon, block: tuple) -> tuple:
    """(latents, blocks, occupancy) of every lane of a seed block, from
    ``lane_uniforms(*block)``: read-only arrays of shape (SEED_BLOCK, n),
    (SEED_BLOCK, n) and (SEED_BLOCK, K), one ``searchsorted`` and one
    ``bincount`` over all lanes."""
    latents = lane_uniforms(*block)
    blocks = w.blocks_of(latents)
    K = w.block_count
    lanes = K * np.arange(SEED_BLOCK)[:, None]
    blocks += lanes  # each lane's blocks apart, then back
    occupancy = np.bincount(blocks.ravel(), minlength=K * SEED_BLOCK)
    blocks -= lanes
    blocks.flags.writeable = occupancy.flags.writeable = False
    return latents, blocks, occupancy.reshape(SEED_BLOCK, K)


def edges(w: StepGraphon, rho: float, block: tuple,
          occupancy: np.ndarray) -> tuple:
    """(positions, counts, overrun) of the edge layer of every lane of a
    seed block over its (SEED_BLOCK, K) ``occupancy``, each stratum read
    as ``sampler._read_positions`` reads its first batch: positions holds
    a read-only (SEED_BLOCK, k) array of each stratum's positions, k its
    largest count, in the smallest unsigned dtype that holds every slot
    count; counts the (SEED_BLOCK, strata) counts; overrun flags each lane
    one of whose strata runs past its first batch, which is then drawn
    from its stream-1 generator instead.  Every lane's slots come from
    array passes and its first batches from ``sampler._batch_size``, once
    a distinct slot count of each stratum, with p, log(1 - p) and the cap
    formed as ``sampler._stratum_plan`` forms them; stream 1's first
    doubles of all lanes come from one ``lane_uniforms`` call, inverted in
    place, and each stratum's batch is read from every lane at once."""
    order = sampler._stratum_order(w.block_count)
    ps = [rho * w.values[b][c] for b, c in order]
    slots = np.empty((len(order), SEED_BLOCK), dtype=np.int64)
    sizes = np.zeros_like(slots)
    for s, (b, c) in enumerate(order):
        nb = occupancy[:, b]
        slots[s] = nb * (nb - 1) >> 1 if b == c else nb * occupancy[:, c]
        if 0.0 < ps[s] < 1.0:  # one batch size a distinct slot count
            table = np.bincount(slots[s])
            for v in np.flatnonzero(table).tolist():
                table[v] = sampler._batch_size(v + 1, ps[s]) if v else 0
            sizes[s] = table[slots[s]]
    widths = sizes.max(axis=1)
    starts = np.cumsum(sizes, axis=0)
    starts -= sizes
    # every lane's widest batch of each stratum lies inside its row
    count = int((starts.max(axis=1) + widths).max())
    logs = lane_uniforms(*block, 1, count)
    np.negative(logs, out=logs)
    np.log1p(logs, out=logs)
    lanes = np.arange(SEED_BLOCK)
    dtype = np.min_scalar_type(int(slots.max()))
    positions = []
    counts = np.zeros((SEED_BLOCK, len(order)), dtype=np.int64)
    overrun = np.zeros(SEED_BLOCK, dtype=bool)
    for s, p in enumerate(ps):
        if not widths[s]:  # no lane draws: every slot an edge, or none
            k = int(slots[s].max()) if p >= 1.0 else 0
            counts[:, s] = slots[s] if p >= 1.0 else 0
            positions.append(np.broadcast_to(np.arange(k, dtype=dtype),
                                             (SEED_BLOCK, k)))
            continue
        windows = sliding_window_view(logs, widths[s], axis=1)
        log_q = math.log1p(-p)
        pos = np.empty((SEED_BLOCK, widths[s]), dtype=dtype)
        for lo in range(0, SEED_BLOCK, _SLICE):
            rows = slice(lo, lo + _SLICE)
            # each lane's batch and the doubles after it: positions ascend,
            # so those after its batch never count below its end
            gaps = windows[lanes[rows], starts[s, rows]]
            np.divide(gaps, log_q, out=gaps)
            np.minimum(gaps, (slots[s, rows] + 1.0)[:, None], out=gaps)
            steps = gaps.view(np.int64)
            np.copyto(steps, gaps, casting="unsafe")
            steps += 1
            np.cumsum(steps, axis=1, out=steps)
            steps -= 1
            counts[rows, s] = (steps < slots[s, rows, None]).sum(axis=1)
            np.copyto(pos[rows], steps, casting="unsafe")
        overrun |= (counts[:, s] >= sizes[s]) & (sizes[s] > 0)
        np.minimum(counts[:, s], sizes[s], out=counts[:, s])
        pos = pos[:, :counts[:, s].max()].copy()
        pos.flags.writeable = False
        positions.append(pos)
    counts.flags.writeable = overrun.flags.writeable = False
    return tuple(positions), counts, overrun
