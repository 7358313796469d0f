"""Seeded generation of sparse step-graphon random graphs.

Latent coordinates are iid uniform on [0, 1); each vertex pair (i, j) is
then an independent Bernoulli with probability rho * W(U_i, U_j).  Within
a pair of blocks that probability is constant, so edges are generated per
block-pair stratum by geometric gap skipping along the stratum's pair
stream.  That representation is distributionally identical to per-pair
Bernoulli draws and touches only the realized edges.

Reproducibility contract (pinned by a golden test):

- the root seed's two child streams ``SeedSequence(seed, spawn_key=(k,))``
  (the children ``SeedSequence(seed).spawn(2)`` would give) drive a PCG64
  generator for the latent layer (k = 0) and one for the edge layer
  (k = 1);
- only uniform doubles are consumed from the generators: latents directly,
  geometric gaps by inversion of uniforms;
- strata are visited in a fixed order (same-block pairs by block index,
  then cross-block pairs in lexicographic order), and each stratum consumes
  uniforms in batches of ``_batch_size`` until its pair stream is exhausted;
- ``sample`` and ``resample_edges`` draw every stratum, and so consume
  every uniform of the graph, before they return; a graph decodes the
  draw once, on first use, into int64 pair keys ``lo * (n + 1) + hi``
  over its draw order (vertex ranks by block, then label), whatever its
  size, and consumes no uniform doing so.  These keys are the graph's
  one edge format: a triangle count reads them as they are, and the
  label keys of ``pair_keys``, its sorted ``edges`` array and its CSR
  adjacency are derived from them through the rank-to-label map.

A graph's stratum plan (slots, edge probability, first batch size) is
kept by an ``lru_cache`` per (graphon, rho, block occupancy).  A graph
that builds a stream-1 generator draws its edge layer with
``_edge_layer``, which draws the first batch
of every stratum in one generator call and inverts it with one ``log1p``;
a stratum that needs another batch reads on into those uniforms, which
grow from the generator only by what a batch runs past their end.  While
no first batch is longer than ``PREFIX_BLOCK``, all of them are read in
one pass up to the first stratum that runs past its own.  A draw
holds each stratum's positions, or for a stratum whose first batch is
longer than ``PREFIX_BLOCK`` its int64 gap steps (``_Steps``), whose end
is found from block sums and whose positions are formed only when the
graph decodes; a graph served from the edge lanes holds read-only views
of small unsigned positions.  One decoder (``_decode_edges``) reads any
of them: it lays all strata end to end in one slot space whose row table
(``_row_table``) is cached per block occupancy up to
``ROW_TABLE_CACHE_VERTICES`` vertices.

Replicate seeds and the child stream generators come from ``seeding``,
which derives a whole block of replicate seeds, and the words both child
streams' PCG64 seed themselves from, in numpy array passes that match
numpy's SeedSequence word for word; ``child_rng`` builds a new generator
on every call.
``sample`` draws the latents from stream 0 and then runs the edge step of
``resample_edges`` on stream 1.  For the seed ``replicate_seed`` handed
out last, at its block's n and at most ``SMALL_GRAPH_VERTICES``, no
generator is built: the latents, blocks and occupancy are that seed's row
of the block's lockstep lanes (``_lane_labels``), and its edge layer is
its row of the block's edge lanes (``_lane_edges``), every lane's first
batches of stream 1 drawn at once and read stratum by stratum across all
lanes as ``_read_positions`` reads them.  A lane one of whose strata runs
past its first batch is drawn from its stream-1 generator instead.  Both
are computed by the ``lanes`` module and kept for one block at a time;
they pay off only in cells that draw a few hundred replicates or more of
a block (``sample`` gives the break-even).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from .motif import CSR, Motif, _integer, csr_from_keys, density_exponents
from .graphon import StepGraphon
from .seeding import child_rng, noted_lane, replicate_seed

# ``sample`` serves a noted seed from the lanes only up to this n.  It keeps
# count_heavy's n = 150 and 200 cells, which draw 100 and 300 replicates of
# a block, off the lanes, which break even at about 350 to 450 (``sample``).
SMALL_GRAPH_VERTICES = 30

# A stratum whose first batch is longer than this keeps its gap steps and
# finds its end from sums of blocks this long; shorter ones sum their steps
# into positions at once.  numpy's cumsum is not vectorised (about 1.9 ns a
# step) where add.reduceat is.  One stratum at p = 0.05, read alone and
# then its positions formed, best of 7 x 300 (2-core host, Python 3.11.7,
# numpy 2.4.6), first batch 1047/2019/3933/7720/18540 steps: 9.2/12.3/
# 18.1/31.5/66.2 us summed at once against 12.4/13.8/15.9/20.8/36.1 us
# kept as steps, plus 3.6/5.6/9.0/17.2/38.2 to form them.  Whole edge
# layers at W_asym, n = 2000, rho = 2/sqrt(2000) (first batches 20028,
# 2502, 13880; 100 graphs, min of 9 x 3) take 231/233/236/239 us at a
# bound of 512/1024/2048/4096 against 292 never kept.  Batches of a few
# hundred steps (n = 200) stay below the bound: kept as steps they would
# pay their prefix sum twice once the graph decodes.
PREFIX_BLOCK = 1024


class SampledGraph:
    """One realization of the model, with its latent layer retained.

    The edges are int64 pair keys ``lo * (n + 1) + hi``, in no set order.
    A graph from ``sample`` or ``resample_edges`` keeps its edge layer as
    drawn (every block-pair stratum's Bernoulli positions, or the gap
    steps they are the running sum of for a stratum longer than
    ``PREFIX_BLOCK``, and their total), decodes it on first use into
    ``drawn_keys`` and then drops it.  Whatever its size, it decodes all
    strata at once through the row table of its ``occupancy``, and the
    keys pair vertex ranks by block, then label; ``pair_keys`` maps them
    to labels when first asked.  A graph built from keys has its labels as
    its draw order.  ``edge_count`` is the drawn total and never decodes.
    Decoding consumes no random numbers, writes nothing into the draw and
    gives equal keys from any thread.  ``edges``, lexicographic,
    ``to_dump`` and ``adjacency`` are derived from the label keys;
    ``occupancy`` holds the K blocks' vertex counts.
    """

    def __init__(self, n: int, rho: float, seed: int, latents: np.ndarray,
                 blocks: np.ndarray, occupancy: tuple, edges):
        """``edges`` holds distinct pair keys or an edge-layer draw."""
        self.n = n
        self.rho = rho
        self.seed = seed
        self.latents = latents
        self.blocks = blocks
        self.occupancy = occupancy
        self._csr = None
        if isinstance(edges, np.ndarray):
            self._keys = self._drawn = edges
            self._strata = None
            self._edge_count = int(edges.size)
        else:
            self._keys = self._drawn = None
            self._strata, self._edge_count = edges

    def drawn_keys(self) -> np.ndarray:
        """The distinct int64 pair keys ``lo * (n + 1) + hi`` over the
        graph's draw order, in no set order: lo < hi are vertex ranks
        0..n-1 by block, then label, for a drawn graph of any size, and
        labels for a graph built from keys.  Decoded from the drawn edge
        layer on first use; a count that does not depend on vertex labels
        can read these."""
        keys = self._drawn
        if keys is None:
            # two threads may decode at once: each reads the draw into a
            # local and stores equal keys before dropping the draw, so a
            # dropped draw means the keys are already stored
            strata = self._strata
            if strata is None:
                return self._drawn
            keys = _decode_edges(strata, self.occupancy)
            self._drawn = keys
            self._strata = None
        return keys

    def pair_keys(self) -> np.ndarray:
        """The distinct int64 pair keys ``lo * (n + 1) + hi`` over vertex
        labels, in no set order: a drawn graph's ``drawn_keys`` relabelled
        on first use."""
        keys = self._keys
        if keys is None:
            keys = self._keys = _label_keys(self.drawn_keys(), self.blocks)
        return keys

    @property
    def edges(self) -> np.ndarray:
        """The (m, 2) int64 array of 1-based pairs i < j in lexicographic
        order: the sorted keys, split."""
        keys = np.sort(self.pair_keys())
        # divided into a contiguous array: into a column of ``edges``, as
        # into np.divmod's outputs, the division is several times slower
        lo = keys // (self.n + 1)
        edges = np.empty((keys.size, 2), dtype=np.int64)
        edges[:, 0] = lo
        lo *= self.n + 1
        np.subtract(keys, lo, out=edges[:, 1])
        return edges

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def adjacency(self) -> CSR:
        """Neighbor arrays of vertices 1..n as a CSR; built on demand."""
        if self._csr is None:
            self._csr = csr_from_keys(self.n, self.pair_keys())
        return self._csr

    def edge_list(self) -> list:
        return list(map(tuple, self.edges.tolist()))

    def to_dump(self) -> str:
        lines = [f"{self.n} {self.rho!r} {self.seed}"]
        lines.extend(f"{a} {b}" for a, b in self.edges)
        lines.append("latents")
        lines.extend(repr(float(u)) for u in self.latents)
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_dump(text: str, w: StepGraphon = None) -> "SampledGraph":
        """Parse ``to_dump`` output.  Malformed input raises ValueError,
        which names a bad n, rho, latent or edge, or the number and text
        of a line that does not parse."""
        lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1)
                 if ln.strip()]
        if not lines:
            raise ValueError("empty graph dump")
        n, rho, seed = _parse_line(lines[0], (int, float, int), "'n rho seed'")
        if n < 1:
            raise ValueError(f"n = {n} must be at least 1")
        if not (0.0 < rho <= 1.0):
            raise ValueError(f"rho = {rho!r} must lie in (0, 1]")
        edges = []
        i = 1
        while i < len(lines) and lines[i][1] != "latents":
            edges.append(_parse_line(lines[i], (int, int),
                                     "an edge 'a b' or 'latents'"))
            i += 1
        if i == len(lines):
            raise ValueError("dump has no latents line")
        latents = np.array([_parse_line(ln, (float,), "a latent")[0]
                            for ln in lines[i + 1:]], dtype=np.float64)
        if latents.size != n:
            raise ValueError(f"dump has {latents.size} latents for n={n}")
        _checked_latents(latents)
        pairs = sorted((min(a, b), max(a, b)) for a, b in edges)
        for k, (a, b) in enumerate(pairs):
            if a == b:
                raise ValueError(f"self-loop {a} {b}")
            if a < 1 or b > n:
                raise ValueError(f"edge {a} {b} outside vertices 1..{n}")
            if k and pairs[k - 1] == (a, b):
                raise ValueError(f"duplicate edge {a} {b}")
        blocks = (w.blocks_of(latents) if w is not None
                  else np.zeros(n, dtype=np.int64))
        occupancy = tuple(np.bincount(
            blocks, minlength=1 if w is None else w.block_count).tolist())
        keys = np.array([a * (n + 1) + b for a, b in pairs], dtype=np.int64)
        return SampledGraph(n, rho, seed, latents, blocks, occupancy, keys)


def _parse_line(numbered: tuple, types: tuple, expected: str) -> list:
    """The fields of one numbered dump line, each converted by its type;
    a ValueError names the line when it does not parse."""
    no, line = numbered
    fields = line.split()
    if len(fields) == len(types):
        try:
            return [t(x) for t, x in zip(types, fields)]
        except ValueError:
            pass
    raise ValueError(f"line {no}: expected {expected}, got {line!r}")


# ---------------------------------------------------------------------------
# edge stream


def _batch_size(remaining: int, p: float) -> int:
    """Uniforms drawn at once while ``remaining`` slots are left: the mean
    count of successes plus four standard deviations, at least 16.  Every
    gap reader, the edge lanes too, draws these batches, so this fixes what
    a stratum consumes."""
    expect = remaining * p
    return max(16, int(expect + 4.0 * math.sqrt(expect + 1.0)) + 4)


def _log_uniforms(rng, size: int) -> np.ndarray:
    """``log1p(-u)`` of ``size`` fresh uniforms u, computed in place."""
    u = rng.random(size)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return u


class _Steps:
    """A drawn stratum kept as its int64 gap steps (gap + 1): its positions
    are their running sum less one.  Its length is its edge count."""

    __slots__ = ("steps",)

    def __init__(self, steps: np.ndarray):
        self.steps = steps

    def __len__(self) -> int:
        return self.steps.size


def _stratum_positions(stratum, offset: int = 0, out=None) -> np.ndarray:
    """The positions of a drawn stratum plus ``offset``, into ``out`` or a new
    int64 array, never into the draw: threads may decode one graph at once.
    Positions are read as int64 here: a lane's unsigned positions could not
    hold the offset."""
    if type(stratum) is not _Steps:
        return np.add(np.asarray(stratum, dtype=np.int64), offset, out=out)
    pos = np.cumsum(stratum.steps, out=out)
    pos += offset - 1
    return pos


def _steps_end(steps: np.ndarray, target: int) -> tuple:
    """(k, total): k the first index at which the running sum of the
    positive ``steps`` reaches ``target`` (their size if it never does),
    and the sum of all of them.  Only PREFIX_BLOCK-long block sums and the
    running sum of the one block that crosses ``target`` are formed."""
    sums = np.add.reduceat(steps, np.arange(0, steps.size, PREFIX_BLOCK))
    np.cumsum(sums, out=sums)
    j = int(np.searchsorted(sums, target))
    if j == sums.size:
        return steps.size, int(sums[-1])
    start = j * PREFIX_BLOCK
    run = np.cumsum(steps[start:start + PREFIX_BLOCK])
    before = int(sums[j - 1]) if j else 0
    return start + int(np.searchsorted(run, target - before)), int(sums[-1])


def _read_positions(rng, logs: np.ndarray, at: int, slots: int, p: float,
                    log_q: float, cap: float, size: int) -> tuple:
    """(stratum, logs, next at) of one stratum of Geometric(p) gaps read
    from ``_log_uniforms`` ``logs[at:]``: each batch, the first ``size``
    long and the rest ``_batch_size``, is divided, capped and cast to int64
    steps (gap + 1) in place, and a batch past the end of ``logs`` extends
    it from ``rng`` by the shortfall.  A stratum whose first batch is at
    most PREFIX_BLOCK long sums its steps into positions in place; a longer
    one finds its end with ``_steps_end`` and is kept as ``_Steps``."""
    defer = size > PREFIX_BLOCK
    chunks = []
    last = -1
    while True:
        end = at + size
        if end > logs.size:
            logs = np.concatenate((logs[at:],
                                   _log_uniforms(rng, end - logs.size)))
            at, end = 0, size
        gaps = logs[at:end]
        at = end
        np.divide(gaps, log_q, out=gaps)
        np.minimum(gaps, cap, out=gaps)
        # the gaps as int64 in the same memory: no second batch array
        steps = gaps.view(np.int64)
        np.copyto(steps, gaps, casting="unsafe")
        steps += 1
        # positions strictly ascend: k is the first one at or past the end
        if defer:
            k, total = _steps_end(steps, slots - last)
        else:
            np.cumsum(steps, out=steps)
            steps += last
            k = int(np.searchsorted(steps, slots))
            total = int(steps[-1]) - last
        if k < steps.size:
            chunks.append(steps[:k])
            break
        chunks.append(steps)
        last += total
        size = _batch_size(slots - last, p)
    out = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    return (_Steps(out) if defer else out), logs, at


@lru_cache(maxsize=None)
def _stratum_order(K: int) -> tuple:
    """The fixed stratum order of a K-block graphon: same-block pairs by
    block index, then cross-block pairs in lexicographic order."""
    return tuple([(b, b) for b in range(K)] + list(combinations(range(K), 2)))


# a small-n cell meets a few dozen occupancies; a plan takes about 1.2 kB
# at K = 2, and a large graph's occupancy seldom repeats
@lru_cache(maxsize=256)
def _stratum_plan(w: StepGraphon, rho: float, occupancy: tuple) -> tuple:
    """(strata, need, longest): every stratum over blocks of ``occupancy``
    vertices in the fixed order, as (slots, edge probability p, log(1 - p),
    gap cap, first batch, 0 if it draws nothing), the first batches' total
    and the longest of them."""
    strata = []
    for b, c in _stratum_order(len(occupancy)):
        nb = occupancy[b]
        slots = nb * (nb - 1) // 2 if b == c else nb * occupancy[c]
        p = rho * w.values[b][c]
        if slots > 0 and 0.0 < p < 1.0:
            strata.append((slots, p, math.log1p(-p), float(slots) + 1.0,
                           _batch_size(slots + 1, p)))
        else:
            strata.append((slots, p, 0.0, 0.0, 0))
    sizes = [s[4] for s in strata]
    return tuple(strata), sum(sizes), max(sizes)


# Graphs of at most this many vertices keep their row tables in a cache of
# 32; larger ones, whose occupancy seldom repeats, build one each decode.
# A table takes 24 bytes a stratum row, about 36 n at K = 2, so the cache
# holds at most about 1.2 MB there.  32 tables at n = 150 miss 26% of a
# campaign's occupancies (24% at 64 tables).  W_asym at rho = n^-1/2, a
# table builds in 26/35/44 us at n = 200/1000/2000 against a decode of
# 23/141/523 us with the table cached.
ROW_TABLE_CACHE_VERTICES = 1000


@lru_cache(maxsize=32)
def _row_table(occupancy: tuple) -> tuple:
    """(offsets, starts, leads): the strata of ``occupancy`` end to end,
    stratum s from slot offsets[s], its row i pairing the i-th vertex of
    its first block: each row's first slot, then the total; after a zero,
    each row's lead, which a slot of the row adds up to its draw-order key:
    row rank * (n + 1) + partner rank less the slot (ranks by block, then
    label)."""
    first = np.cumsum((0,) + occupancy)  # each block's first rank
    order = _stratum_order(len(occupancy))
    ranks, cols, runs = [[0]], [[0]], [[0]]
    for b, c in order:  # row i of (b, b): vertex i and the nb - 1 - i after it
        i = np.arange(occupancy[b])
        ranks.append(first[b] + i)
        cols.append(first[b] + i + 1 if b == c else np.full_like(i, first[c]))
        runs.append(i[::-1] if b == c else np.full_like(i, occupancy[c]))
    starts = np.cumsum(np.concatenate(runs))
    leads = np.concatenate(cols)
    leads[1:] -= starts[:-1]
    leads += np.concatenate(ranks) * int(first[-1] + 1)
    rows = np.cumsum([0] + [occupancy[b] for b, _ in order[:-1]])
    return tuple(starts[rows].tolist()), starts, leads


def _read_first_batches(logs: np.ndarray, strata: tuple) -> tuple:
    """(positions of the leading strata, at): the strata read as
    ``_read_positions`` reads them, every first batch in one pass: each
    batch of ``logs`` divided and capped into one new array, all of them
    cast to int64 steps and summed at once, then each stratum's end found.
    It stops at the first stratum that runs past its first batch, ``at``
    where that batch starts, and leaves ``logs`` as drawn, so that the
    stratum-by-stratum reader reads on from there."""
    steps = np.empty(logs.size, dtype=np.int64)
    gaps = steps.view(np.float64)
    at = 0
    for _, _, log_q, cap, size in strata:
        batch = gaps[at:at + size]
        np.divide(logs[at:at + size], log_q, out=batch)
        np.minimum(batch, cap, out=batch)
        at += size
    np.copyto(steps, gaps, casting="unsafe")
    steps += 1
    np.cumsum(steps, out=steps)
    out = []
    at = before = 0  # before: the sum of the steps ahead of at
    for slots, p, _, _, size in strata:
        if not size:
            out.append(np.arange(slots if p >= 1.0 else 0, dtype=np.int64))
            continue
        run = steps[at:at + size]
        # positions strictly ascend: k is the first one at or past the end
        k = int(run.searchsorted(before + slots + 1))
        if k == size:
            break
        pos = run[:k]
        pos -= before + 1
        out.append(pos)
        at += size
        before = int(run[-1])
    return out, at


def _edge_layer(w: StepGraphon, occupancy: tuple, rho: float, rng) -> tuple:
    """(int64 positions of each stratum, edge count) of the graph's edge
    layer: the first batches of all strata drawn in one call and read all
    at once while none is longer than PREFIX_BLOCK (``_read_first_batches``),
    and from the first stratum that runs past its first batch, or any
    stratum of a graph that keeps steps, one stratum at a time
    (``_read_positions``), each read on where the last ended."""
    strata, need, longest = _stratum_plan(w, rho, occupancy)
    logs = _log_uniforms(rng, need) if need else np.empty(0)
    out, at = (_read_first_batches(logs, strata) if longest <= PREFIX_BLOCK
               else ([], 0))  # at: where the next batch starts in logs
    for slots, p, log_q, cap, size in strata[len(out):]:
        if size:
            pos, logs, at = _read_positions(rng, logs, at, slots, p, log_q,
                                            cap, size)
        else:
            pos = np.arange(slots if p >= 1.0 else 0, dtype=np.int64)
        out.append(pos)
    return out, sum(map(len, out))


def _decode_edges(strata: list, occupancy: tuple) -> np.ndarray:
    """Pair keys ``lo * (n + 1) + hi`` over the draw order of any draw,
    whose strata hold integer positions or ``_Steps``: lo < hi are vertex
    ranks 0..n-1 by block, then label, every stratum at once in the slot
    space of ``_row_table`` and in stratum order.  Consumes no uniforms.
    ``_label_keys`` relabels them."""
    table = (_row_table if sum(occupancy) <= ROW_TABLE_CACHE_VERTICES
             else _row_table.__wrapped__)
    offsets, starts, leads = table(occupancy)
    keys = np.empty(sum(map(len, strata)), dtype=np.int64)
    at = 0
    for stratum, offset in zip(strata, offsets):
        size = len(stratum)
        if size:  # an empty one would cost two numpy calls
            _stratum_positions(stratum, offset, keys[at:at + size])
            at += size
    row = starts.searchsorted(keys, "right")
    # each row's lead in place of its index: mode "clip", a no-op on valid
    # rows, takes no buffer, and reads each index before writing there
    keys += leads.take(row, out=row, mode="clip")
    return keys


def _label_keys(keys: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """The draw-order keys of ``_decode_edges`` over ``blocks`` as
    keys over vertex labels, in the same order.  It makes three arrays the
    size of ``keys``: at large n each new one costs about as much in page
    faults as the arithmetic on it."""
    stride = blocks.size + 1
    # each rank's vertex: vertices by block, then label
    vert = np.argsort(blocks, kind="stable")
    vert += 1
    lo = keys // stride  # np.divmod divides several times slower
    hi = lo * stride
    np.subtract(keys, hi, out=hi)
    vert.take(lo, out=lo, mode="clip")  # as in _decode_edges
    vert.take(hi, out=hi, mode="clip")
    out = np.minimum(lo, hi)  # a cross-block row vertex may be larger
    np.maximum(lo, hi, out=hi)
    out *= stride
    out += hi
    return out


# The lane code is in ``lanes``, imported on first use.  One block of each
# is kept: a cell samples its replicates in index order.
@lru_cache(maxsize=1)
def _lane_labels(w: StepGraphon, block: tuple) -> tuple:
    """``lanes.labels``: the latents, blocks and occupancy of every lane
    of a seed block."""
    from .lanes import labels
    return labels(w, block)


@lru_cache(maxsize=1)
def _lane_edges(w: StepGraphon, rho: float, block: tuple) -> tuple:
    """``lanes.edges``: the edge layer of every lane of a seed block, over
    its ``_lane_labels`` occupancy."""
    from .lanes import edges
    return edges(w, rho, block, _lane_labels(w, block)[2])


def _checked_rho(rho) -> float:
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    return float(rho)


def _checked_latents(latents) -> np.ndarray:
    """``latents`` as a float64 array, which must be 1-D with at least one
    entry, each in [0, 1); a ValueError names the first vertex outside."""
    latents = np.asarray(latents, dtype=np.float64)
    if latents.ndim != 1 or not latents.size:
        raise ValueError(f"latents must be a 1-D array of at least one "
                         f"entry, not of shape {latents.shape}")
    # NaN fails both tests; the message is built only on failure
    if not (latents.min() >= 0.0 and latents.max() < 1.0):
        v = int(np.flatnonzero(~((latents >= 0.0) & (latents < 1.0)))[0])
        raise ValueError(f"latent {float(latents[v])!r} of vertex {v + 1} "
                         f"outside [0, 1)")
    return latents


def sample(w: StepGraphon, n: int, rho: float, seed: int) -> SampledGraph:
    """Draw one graph: latents from the seed's first child stream, edges
    from the second.  Fully deterministic given (w, n, rho, seed).

    For the seed ``replicate_seed`` handed out last, at the n it was
    derived for and at most SMALL_GRAPH_VERTICES, no generator is built:
    the latents, blocks and occupancy are read from its row of
    ``_lane_labels`` and the edge layer from its row of ``_lane_edges``,
    read-only views of the same values numpy's generators give, unless
    a stratum of that row runs past its first batch, when the edge layer
    comes from a new stream-1 generator.  The first such call of a block
    builds both lane caches for all its seeds, a fixed cost that only the
    block's later graphs repay, so what decides the gain is how many
    replicates a cell draws of each block.  At W_asym, rho = 0.3 *
    sqrt(6 / n), the build costs about 3 ms at n = 6 and 5.5 ms at n =
    30, and each later graph saves about 7 and 13 us (13 ms and 35 us at
    rho = 3 / sqrt(30)): a block breaks even at about 350 to 450
    replicates, and a cell that draws fewer of a block is slower than
    with generators: a lone ``sample`` after ``replicate_seed`` at n = 6
    takes about 3.8 ms with its seed block, against 0.9 ms with the
    latent lanes alone.  Any other call draws the latents from a new
    stream-0 generator and the edges from a stream-1 one."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be at least 1")
    rho = _checked_rho(rho)
    lane = noted_lane(seed, n) if n <= SMALL_GRAPH_VERTICES else None
    if lane is None:
        return _with_edges(w, child_rng(seed, 0).random(n), rho, seed)
    block, i = lane
    latents, blocks, occupancy = _lane_labels(w, block)
    occupancy = tuple(occupancy[i].tolist())
    positions, counts, overrun = _lane_edges(w, rho, block)
    if overrun[i]:
        return _with_edges(w, latents[i], rho, seed, blocks[i], occupancy)
    k = counts[i].tolist()
    return SampledGraph(latents[i].size, rho, seed, latents[i], blocks[i],
                        occupancy,
                        ([pos[i, :c] for pos, c in zip(positions, k)],
                         sum(k)))


def resample_edges(w: StepGraphon, latents: np.ndarray, rho: float,
                   seed: int) -> SampledGraph:
    """Fresh edge layer over fixed latents (conditional resampling), from
    the seed's second child stream."""
    rho = _checked_rho(rho)
    return _with_edges(w, _checked_latents(latents), rho, seed)


def _with_edges(w: StepGraphon, latents: np.ndarray, rho: float, seed: int,
                blocks: np.ndarray = None, occupancy: tuple = None
                ) -> SampledGraph:
    """The graph over given latents, and their blocks and occupancy unless
    given, with its edge layer drawn from the seed's second child stream,
    at a checked rho."""
    if blocks is None:
        blocks = w.blocks_of(latents)
        occupancy = tuple(np.bincount(blocks,
                                      minlength=w.block_count).tolist())
    return SampledGraph(latents.size, rho, int(seed), latents, blocks,
                        occupancy,
                        _edge_layer(w, occupancy, rho, child_rng(seed, 1)))


# ---------------------------------------------------------------------------
# sparsity schedules and regimes


@dataclass(frozen=True)
class SparsitySchedule:
    """rho_n = a * n^{-gamma}, clamped into (0, 1]."""

    a: float
    gamma: float

    def __post_init__(self):
        # written so that NaN fails both tests
        if not 0 < self.a < math.inf:
            raise ValueError(f"amplitude {self.a!r} must be positive and "
                             f"finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"exponent {self.gamma!r} must be nonnegative "
                             f"and finite")


def schedule_rho(s: SparsitySchedule, n: int) -> float:
    if n < 1:
        raise ValueError("n must be at least 1")
    return min(1.0, s.a * float(n) ** (-s.gamma))


def critical_schedule(m: Motif, c: float) -> SparsitySchedule:
    """Schedule pinned so that n * rho_n^{m1} equals c for every n."""
    if c <= 0:
        raise ValueError("c must be positive")
    m1 = density_exponents(m).m1
    inv = 1.0 / float(m1)
    return SparsitySchedule(a=c ** inv, gamma=inv)


def classify_regime(m: Motif, gamma) -> str:
    """Place an exponent against the motif's two density thresholds: one
    of "below_containment", "at_containment", "edge_dominated",
    "critical", "label_dominated" or "dense" (gamma = 0).

    Comparison is exact over rationals; float inputs are snapped to the
    nearest fraction with denominator at most 10^6, so gamma = 2/3 given
    as a double still lands exactly on the critical line.
    """
    if m.edge_count < 1:
        raise ValueError("regime classification needs at least one edge")
    if isinstance(gamma, float):
        g = Fraction(gamma).limit_denominator(1_000_000)
    else:
        g = Fraction(gamma)
    if g < 0:
        raise ValueError("exponent must be nonnegative")
    prof = density_exponents(m)
    inv_m = 1 / prof.m
    inv_m1 = 1 / prof.m1
    if g == 0:
        return "dense"
    if g > inv_m:
        return "below_containment"
    if g == inv_m:
        return "at_containment"
    if g > inv_m1:
        return "edge_dominated"
    if g == inv_m1:
        return "critical"
    return "label_dominated"
