"""Replicate seeds and the generators of a seed's two child streams.

A replicate seed is ``SeedSequence((root, n, r)).generate_state(1, uint64)``
and the seed's child stream k is ``PCG64(SeedSequence(seed,
spawn_key=(k,)))``.  Building those objects costs tens of microseconds per
replicate, more than sampling a graph of a few vertices, so
``replicate_seed`` derives the seeds of a whole aligned block of
``SEED_BLOCK`` replicate indices at once: it restates SeedSequence's
hashmix, mix and generate_state (O'Neill's seed_seq_fe, M. E. O'Neill,
HMC-CS-2014-0905) on uint32 arrays, and PCG64's seeding on uint64 arrays,
for both child streams of every seed in the block.  An ``lru_cache``
keeps the last two blocks.  Each thread notes the last seed it handed
out, and ``child_rng`` sets that seed's state on a reused generator of
the thread.  Any other seed, and any argument outside the block range,
goes through numpy itself; the values are the same either way.

This couples the module to numpy's SeedSequence constants and PCG64
seeding.  The tests compare both with numpy word for word, so a numpy
change to either fails there first.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

# Replicate indices whose seeds are derived together: r lies in block
# r // SEED_BLOCK, and a block is derived whole on its first use.
SEED_BLOCK = 1024

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint32_words(x: int) -> list:
    """A nonnegative int as SeedSequence reads it: 32-bit words, least
    significant first, and one word for 0."""
    out = [x & _M32]
    x >>= 32
    while x:
        out.append(x & _M32)
        x >>= 32
    return out


class _Hash:
    """SeedSequence's hashmix: every call steps one multiplier shared by
    all lanes."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _M32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return out ^ (out >> np.uint32(16))


def _seed_words(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words, np.uint32)`` word by
    word, each word a uint32 array over the lanes the entropy words
    broadcast to."""
    hashmix = _Hash(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out_hash = _Hash(_INIT_B, _MULT_B)
    return [out_hash(pool[i % _POOL_SIZE]) for i in range(n_words)]


def _uint64(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    return lo.astype(np.uint64) | (hi.astype(np.uint64) << np.uint64(32))


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(np.uint64), lo


def _mul128_const(a_hi, a_lo, c: int):
    """(a_hi, a_lo) * c mod 2^128, the high word of a_lo * c_lo from
    32-bit halves."""
    c_hi, c_lo = np.uint64(c >> 64), np.uint64(c & _M64)
    s32, m32 = np.uint64(32), np.uint64(_M32)
    x0, x1 = a_lo & m32, a_lo >> s32
    y0, y1 = c_lo & m32, c_lo >> s32
    p01, p10 = x0 * y1, x1 * y0
    mid = ((x0 * y0) >> s32) + (p01 & m32) + (p10 & m32)
    carry = x1 * y1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return carry + a_lo * c_hi + a_hi * c_lo, a_lo * c_lo


def _pcg64_states(seeds: np.ndarray, k: int) -> np.ndarray:
    """``PCG64(SeedSequence(seed, spawn_key=(k,))).state`` of each seed, as
    uint64 words (state_hi, state_lo, inc_hi, inc_lo) in an array of shape
    (seeds.size, 4).

    The entropy is [lo, hi, 0, 0, k]: a spawned SeedSequence pads the seed
    to the pool size with zeros.  PCG64 reads generate_state(4, uint64) as
    initstate and initseq, high word first, sets inc = 2 initseq + 1 and
    steps the LCG twice: state = (initstate + inc) * mult + inc.
    """
    lo = (seeds & np.uint64(_M32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    zero = np.zeros_like(lo)
    w = _seed_words([lo, hi, zero, zero, np.full_like(lo, k)], 8)
    s_hi, s_lo, q_hi, q_lo = (_uint64(w[2 * i], w[2 * i + 1])
                              for i in range(4))
    del w  # freed before the 128-bit temporaries, for a lower peak
    one = np.uint64(1)
    inc_hi = (q_hi << one) | (q_lo >> np.uint64(63))
    inc_lo = (q_lo << one) | one
    st_hi, st_lo = _mul128_const(*_add128(s_hi, s_lo, inc_hi, inc_lo),
                                 _PCG64_MULT)
    st_hi, st_lo = _add128(st_hi, st_lo, inc_hi, inc_lo)
    return np.stack([st_hi, st_lo, inc_hi, inc_lo], axis=-1)


@lru_cache(maxsize=2)
def _seed_block(root: int, n: int, block: int):
    """Replicate seeds of one aligned block of indices, in index order, and
    both child streams' PCG64 states of each seed: arrays of shape
    (SEED_BLOCK,) and (2, SEED_BLOCK, 4).  Numpy arrays only, no Python int
    per seed, to keep peak memory low."""
    r = np.arange(block * SEED_BLOCK, (block + 1) * SEED_BLOCK,
                  dtype=np.uint32)
    entropy = [np.full(SEED_BLOCK, word, dtype=np.uint32)
               for word in _uint32_words(root) + _uint32_words(n)]
    w = _seed_words(entropy + [r], 2)
    seeds = _uint64(w[0], w[1])
    states = np.stack([_pcg64_states(seeds, k) for k in (0, 1)])
    # every caller gets the cached arrays themselves
    seeds.flags.writeable = states.flags.writeable = False
    return seeds, states


# Per thread: ``note``, the last seed handed out with its block's states
# and its index there, and ``pairs``, one reused PCG64 and Generator pair
# per child stream.
_LOCAL = threading.local()


def _numpy_replicate_seed(root_seed: int, n: int, r: int) -> int:
    """``replicate_seed`` through numpy's SeedSequence, deriving no block."""
    ss = np.random.SeedSequence((root_seed, n, r))
    return int(ss.generate_state(1, np.uint64)[0])


def replicate_seed(root_seed: int, n: int, r: int) -> int:
    """Per-replicate seed: a splittable derivation from (root, n, replicate),
    so replicate results do not depend on scheduling or batch order.

    The value is ``SeedSequence((root, n, r)).generate_state(1, uint64)``.
    For nonnegative root and n and r below 2^32 it comes from the derived
    block of r, and the thread notes it with its child streams' generator
    states for ``child_rng``; other arguments go to numpy's SeedSequence,
    which rejects negative ones.
    """
    root_seed, n, r = int(root_seed), int(n), int(r)
    if not (root_seed >= 0 and n >= 0 and 0 <= r <= _M32):
        return _numpy_replicate_seed(root_seed, n, r)
    seeds, states = _seed_block(root_seed, n, r // SEED_BLOCK)
    i = r % SEED_BLOCK
    seed = int(seeds[i])
    _LOCAL.note = (seed, states, i)
    return seed


def child_rng(seed: int, k: int):
    """Generator of the seed's child stream k (0 latents, 1 edges), the
    stream of ``SeedSequence(seed).spawn(2)[k]`` without the parent.

    The seed the thread's last ``replicate_seed`` call handed out sets the
    thread's reused generator of stream k, which stays valid until the
    thread's next call for the same k; any other seed gets a fresh
    generator from numpy's SeedSequence.
    """
    note = getattr(_LOCAL, "note", None)
    if note is None or not isinstance(seed, int) or note[0] != seed:
        ss = np.random.SeedSequence(seed, spawn_key=(k,))
        return np.random.Generator(np.random.PCG64(ss))
    _, states, i = note
    st_hi, st_lo, inc_hi, inc_lo = states[k, i].tolist()
    pairs = getattr(_LOCAL, "pairs", None)
    if pairs is None:
        pairs = _LOCAL.pairs = tuple(
            (bg, np.random.Generator(bg))
            for bg in (np.random.PCG64(0), np.random.PCG64(0)))
    bitgen, gen = pairs[k]
    bitgen.state = {"bit_generator": "PCG64",
                    "state": {"state": st_hi << 64 | st_lo,
                              "inc": inc_hi << 64 | inc_lo},
                    "has_uint32": 0, "uinteger": 0}
    return gen
