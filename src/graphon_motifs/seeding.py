"""Replicate seeds, the generators of a seed's two child streams, and the
child-stream uniforms of a whole block of seeds.

A replicate seed is ``SeedSequence((root, n, r)).generate_state(1, uint64)``
and the seed's child stream k is ``PCG64(SeedSequence(seed,
spawn_key=(k,)))``.  Building those SeedSequences costs microseconds per
replicate, more than sampling a graph of a few vertices, so
``replicate_seed`` derives the seeds of a whole aligned block of
``SEED_BLOCK`` replicate indices at once, and the four uint64 words each
child stream's SeedSequence would give PCG64: it restates SeedSequence's
hashmix, mix and generate_state (O'Neill's seed_seq_fe, M. E. O'Neill,
HMC-CS-2014-0905) on uint32 arrays, one pass for the seeds and one for
both streams' words.  An ``lru_cache`` keeps the last two
blocks.  The module notes the last seed handed out with its block, and
``child_rng`` seeds a new PCG64 from that seed's words through numpy's
seed sequence interface, so numpy's own PCG64 seeding runs on both paths.
``lane_uniforms`` draws a child stream's first uniforms of every seed of
a block in lockstep, n of stream 0 for the latents and as many of stream
1 as the edge layers' first batches take: PCG64 restated over uint64
numpy lanes, seeded as numpy's ``pcg64_set_seed`` from the block's words
of that stream, with the 128-bit LCG step in 32-bit limbs, the XSL-RR
output and ``(x >> 11) * 2^-53``; ``noted_lane`` names the noted seed's
lane.  Any other seed, and any argument outside the block range, goes
through numpy's SeedSequence; the values are the same either way.

This couples the module to numpy's SeedSequence and PCG64 constants.  The
tests compare the derived seeds, words and uniforms with numpy word for
word, so a numpy change to them fails there first.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

# Replicate indices whose seeds are derived together: r lies in block
# r // SEED_BLOCK, and a block is derived whole on its first use.
SEED_BLOCK = 1024

_M32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# numpy's PCG64 multiplier (PCG_DEFAULT_MULTIPLIER_128), as 64-bit halves
# and the low half's 32-bit limbs
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_HI = np.uint64(_PCG_MULT >> 64)
_PCG_LO = np.uint64(_PCG_MULT & 0xFFFFFFFFFFFFFFFF)
_PCG_LO0, _PCG_LO1 = np.uint64(_PCG_MULT & _M32), np.uint64(_PCG_LO >> 32)


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


def _child_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(k,)).generate_state(4, uint64)`` of
    each seed and both child streams k = 0, 1, the words PCG64 seeds itself
    from, in an array of shape (2, seeds.size, 4).  A spawned SeedSequence
    pads the seed to the pool size with zeros, so the entropy is
    [lo, hi, 0, 0, k]: one pass over both streams' lanes, k a lane array
    and the zeros one lane that broadcasts."""
    lo = (seeds & np.uint64(_M32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    # np.tile and np.repeat, or joining the words through a little-endian
    # view, raised a benchmark child's peak memory by 0.1-0.15 MB
    k = np.zeros(2 * seeds.size, dtype=np.uint32)
    k[seeds.size:] = 1
    zero = np.zeros(1, dtype=np.uint32)
    w = _seed_words([np.concatenate((lo, lo)), np.concatenate((hi, hi)),
                     zero, zero, k], 8)
    return np.stack([_uint64(w[2 * i], w[2 * i + 1]) for i in range(4)],
                    axis=-1).reshape(2, seeds.size, 4)


@lru_cache(maxsize=2)
def _seed_block(root: int, n: int, block: int):
    """Replicate seeds of one aligned block of indices, in index order, and
    both child streams' words of each seed: arrays of shape (SEED_BLOCK,)
    and (2, SEED_BLOCK, 4), C-contiguous.  Numpy arrays only, no Python
    int per seed, to keep peak memory low."""
    r = np.arange(block * SEED_BLOCK, (block + 1) * SEED_BLOCK,
                  dtype=np.uint32)
    entropy = [np.full(SEED_BLOCK, word, dtype=np.uint32)
               for word in _uint32_words(root) + _uint32_words(n)]
    w = _seed_words(entropy + [r], 2)
    seeds = _uint64(w[0], w[1])
    words = _child_words(seeds)
    # every caller gets the cached arrays themselves
    seeds.flags.writeable = words.flags.writeable = False
    return seeds, words


@lru_cache(maxsize=1)
def _words_sequence():
    """The class of a numpy seed sequence whose ``generate_state`` returns
    given child stream words, so PCG64 seeds itself from them.  Built on
    first use: importing ``numpy.random.bit_generator`` loads
    ``numpy.random``, which importing this module leaves unloaded."""
    from numpy.random.bit_generator import ISeedSequence

    class ChildWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for four uint64 words

    return ChildWords


def _add128(hi: np.ndarray, lo: np.ndarray, add_hi: np.ndarray,
            add_lo: np.ndarray, t: np.ndarray) -> None:
    """(hi, lo) += (add_hi, add_lo) mod 2^128 in place over uint64 lanes,
    with ``t`` three scratch rows: the low halves carry where the top bit
    of (lo & add_lo) | ((lo | add_lo) & ~sum) is set.  The comparison
    ``sum < add_lo``, numpy's first on integers, cost 128 kB of peak
    memory."""
    both, either, carry = t
    np.bitwise_and(lo, add_lo, out=both)
    np.bitwise_or(lo, add_lo, out=either)
    lo += add_lo
    np.invert(lo, out=carry)
    carry &= either
    carry |= both
    carry >>= np.uint64(63)
    hi += add_hi
    hi += carry


def _pcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray,
              inc_lo: np.ndarray, t: np.ndarray) -> None:
    """One PCG64 step, state * multiplier + increment mod 2^128, in place
    over lanes whose states and increments are uint64 halves, with
    ``t`` four scratch rows of uint64 lanes: the high word of lo times the
    multiplier's low half comes from 32-bit limbs."""
    m32, s32 = np.uint64(_M32), np.uint64(32)
    a0, a1, p01, p10 = t
    np.right_shift(lo, s32, out=a1)
    np.bitwise_and(lo, m32, out=a0)
    np.multiply(a0, _PCG_LO1, out=p01)
    np.multiply(a1, _PCG_LO0, out=p10)
    a0 *= _PCG_LO0
    a0 >>= s32
    a1 *= _PCG_LO1  # a1 * lo1 plus the carries of the middle products
    for p in (p01, p10):
        a0 += p & m32
        p >>= s32
        a1 += p
    a0 >>= s32
    a1 += a0
    hi *= _PCG_LO
    hi += np.multiply(lo, _PCG_HI, out=a0)
    hi += a1
    lo *= _PCG_LO
    _add128(hi, lo, inc_hi, inc_lo, t[:3])


def lane_uniforms(root: int, n: int, block: int, k: int = 0,
                  count: int = None) -> np.ndarray:
    """Child stream k's first ``count`` (default n) uniforms of every
    replicate seed of the block ``replicate_seed(root, n, r)`` derives r
    in, in index order: an array of shape (SEED_BLOCK, count), each row
    ``child_rng(seed, k).random(count)``.  Stream 0's, whose rows graphs
    keep as latents, is read-only; any other stream's is writable, for
    its caller to transform in place.  PCG64 is seeded as numpy's
    ``pcg64_set_seed`` from the words (w0, w1, w2, w3): the state seed is
    w0 * 2^64 + w1 and the increment (w2 * 2^64 + w3) << 1 | 1; from a
    zero state it steps, adds the state seed and steps again.  Each double
    steps, then takes the XSL-RR output x and ``(x >> 11) * 2^-53``.
    Every step works in place, in four rows of scratch lanes."""
    count = n if count is None else count
    words = _seed_block(root, n, block)[1][k]
    one, s63 = np.uint64(1), np.uint64(63)
    t = np.empty((4, SEED_BLOCK), dtype=np.uint64)
    hi, lo = np.zeros((2, SEED_BLOCK), dtype=np.uint64)
    inc_hi = words[:, 2] << one
    inc_hi |= words[:, 3] >> s63
    inc_lo = words[:, 3] << one
    inc_lo |= one
    _pcg_step(hi, lo, inc_hi, inc_lo, t)
    _add128(hi, lo, words[:, 0], words[:, 1], t[:3])
    _pcg_step(hi, lo, inc_hi, inc_lo, t)
    x, rot, left = t[:3]
    out = np.empty((SEED_BLOCK, count))
    for j in range(count):
        _pcg_step(hi, lo, inc_hi, inc_lo, t)
        np.bitwise_xor(hi, lo, out=x)
        np.right_shift(hi, np.uint64(58), out=rot)
        np.negative(rot, out=left)
        left &= s63
        np.left_shift(x, left, out=left)
        x >>= rot
        x |= left
        x >>= np.uint64(11)
        out[:, j] = x
    out *= 2.0 ** -53
    out.flags.writeable = k != 0
    return out


# ``note``: the last seed handed out, with its block's child stream words,
# its index there and the block, (root, n, block).  The words depend on
# the seed alone, so a note another thread replaced is still right for its
# own seed, and a seed whose note was replaced falls back to numpy's
# SeedSequence.
_LOCAL = SimpleNamespace(note=None)


def _numpy_replicate_seed(root_seed: int, n: int, r: int) -> int:
    """``replicate_seed`` through numpy's SeedSequence, deriving no block."""
    ss = np.random.SeedSequence((root_seed, n, r))
    return int(ss.generate_state(1, np.uint64)[0])


def replicate_seed(root_seed: int, n: int, r: int) -> int:
    """Per-replicate seed: a splittable derivation from (root, n, replicate),
    so replicate results do not depend on scheduling or batch order.

    The value is ``SeedSequence((root, n, r)).generate_state(1, uint64)``.
    For nonnegative root and n and r below 2^32 it comes from the derived
    block of r, and is noted with its child streams' words and its block
    for ``child_rng`` and ``noted_lane``; other arguments go to numpy's
    SeedSequence, which rejects negative ones.
    """
    root_seed, n, r = int(root_seed), int(n), int(r)
    if not (root_seed >= 0 and n >= 0 and 0 <= r <= _M32):
        return _numpy_replicate_seed(root_seed, n, r)
    seeds, words = _seed_block(root_seed, n, r // SEED_BLOCK)
    i = r % SEED_BLOCK
    seed = int(seeds[i])
    _LOCAL.note = (seed, words, i, (root_seed, n, r // SEED_BLOCK))
    return seed


def noted_lane(seed: int, n: int):
    """(block, index) of ``seed``'s row in ``lane_uniforms(*block)`` when
    it is the last seed handed out and n is its block's n, else None."""
    note = _LOCAL.note
    if (note is None or not isinstance(seed, int) or note[0] != seed
            or note[3] is None or note[3][1] != n):
        return None
    return note[3], note[2]


def child_rng(seed: int, k: int):
    """A new generator of the seed's child stream k (0 latents, 1 edges),
    the stream of ``SeedSequence(seed).spawn(2)[k]`` without the parent.

    PCG64 seeds itself from the noted words of the seed the last
    ``replicate_seed`` call handed out, and from numpy's SeedSequence for
    any other seed.
    """
    note = _LOCAL.note
    if note is None or not isinstance(seed, int) or note[0] != seed:
        ss = np.random.SeedSequence(seed, spawn_key=(k,))
    else:
        _, words, i, _ = note
        ss = _words_sequence()(words[k, i])
    return np.random.Generator(np.random.PCG64(ss))
