"""Subgraph counts and the edge/label decomposition of their fluctuations.

Counts take one of three fast paths (edge total, triangles, 4-cycles) or
the generic level-wise counter of ``motif``.  Triangles on hosts within
the pair-table bound are counted from packed upper neighbour bit rows,
straight from the graph's pair keys over its draw order, each triangle
once on its lower edge; larger hosts take the forward algorithm on the
CSR.

The observed count X is centered two ways: against the closed-form
expectation and against the exact conditional expectation given the latent
layer.  The difference splits the fluctuation into an edge-randomness part
(delta1) and a label-randomness part (delta2).  Small-n exact variance and
conditional-variance oracles enumerate copy pairs directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from . import motif as _motif
from .motif import (
    Motif,
    _codegree_table,
    _copies_on,
    _isomorphism_classes,
    automorphism_count,
    canonical_key,
    copies_in_complete,
    count_embeddings,
    csr_pair_keys,
    expansion_windows,
    has_pair,
    key_runs,
    named_motif,
    wedge_keys,
)
from .graphon import StepGraphon, _arrays, _assignment_products, hom_density
from .sampler import SampledGraph

# Exact (co)variance oracles enumerate all ordered copy pairs.
MAX_ORACLE_N = 12
MAX_ORACLE_MOTIF_VERTICES = 4

_K2_KEY = canonical_key(named_motif("edge"))
_K3_KEY = canonical_key(named_motif("triangle"))
_C4_KEY = canonical_key(named_motif("c4"))


def count(g: SampledGraph, m: Motif) -> int:
    """Exact number of copies of the motif in the sampled graph.

    Three motifs take dedicated paths: single edges (the edge total),
    triangles (neighbour bit rows or the forward count) and 4-cycles
    (pair codegrees).  Everything else goes through the level-wise
    counter on the graph's cached CSR, which counts its last level from
    degrees and codegrees where it can.  The fast paths agree with the
    generic path by construction and by test.
    """
    key = canonical_key(m)
    if key == _K2_KEY:
        return g.edge_count
    if key == _K3_KEY:
        return triangle_count(g)
    if key == _C4_KEY:
        return four_cycle_count(g)
    return count_embeddings(g.n, g.adjacency(), m)


def triangle_count(g: SampledGraph) -> int:
    """Triangles, from neighbour bit rows on hosts with (n + 1)^2 at most
    PAIR_TABLE_CELLS, else by the degree-ordered forward algorithm.

    Bit rows: row v of an (n + 1) x 64 ceil((n + 1) / 64) boolean table
    holds v's upper neighbours (those above v), packed into uint64 words.
    The AND of the rows of an edge a < b holds the c > b adjacent to both,
    so a triangle a < b < c is counted once, on its lower edge (a, b):
    the edge iterator of the papers below, over bitsets.  The rows of one
    EXPANSION_CHUNK of edges are gathered at a time, so memory stays
    bounded.  A triangle count does not depend on vertex labels, so the
    rows are indexed by the graph's draw order (``drawn_keys``): neither
    the CSR nor the label keys are built.

    Forward algorithm (Schank and Wagner, WEA 2005; Latapy, TCS 407,
    2008): each edge points from the lower to the higher endpoint in
    (degree, id) order; a triangle is then exactly one pair of
    out-neighbors of its lowest vertex that is itself adjacent, and
    out-degrees stay below sqrt(2m).  The CSR rows keep each vertex's
    out-neighbors contiguous.
    """
    if g.edge_count < 3:
        return 0
    n = g.n
    if (n + 1) ** 2 > _motif.PAIR_TABLE_CELLS:
        return _forward_triangle_count(n, g.adjacency())
    keys = g.drawn_keys()
    lo = keys // (n + 1)  # np.divmod divides several times slower
    hi = keys - lo * (n + 1)
    # one flat scatter sets each edge's upper bit: a 2-D assignment of
    # both bits costs several times more than the AND and popcount
    width = -(-(n + 1) // 64) * 64
    table = np.zeros((n + 1) * width, dtype=bool)
    table[lo * width + hi] = True
    rows = np.packbits(table, bitorder="little").view(np.uint64).reshape(
        n + 1, width // 64)
    del table
    chunk = _motif.EXPANSION_CHUNK
    total = 0
    for t0 in range(0, lo.size, chunk):
        # take gathers whole rows several times faster than rows[idx]
        common = rows.take(lo[t0:t0 + chunk], axis=0)
        common &= rows.take(hi[t0:t0 + chunk], axis=0)
        total += int(np.bitwise_count(common).sum())
        del common  # so that one chunk of rows is alive at a time
    return total


def _forward_triangle_count(n: int, csr: _motif.CSR) -> int:
    """Triangles by the forward algorithm of ``triangle_count``."""
    deg = csr.indptr[1:] - csr.indptr[:-1]
    rank = deg * (n + 1) + np.arange(n + 1)
    up = rank[csr.indices] > rank[csr.rows]
    tail, head = csr.rows[up], csr.indices[up]
    # out-neighbors after each entry in its own row: its wedge partners
    row_end = np.cumsum(np.bincount(tail, minlength=n + 1))[tail]
    later = row_end - np.arange(tail.size) - 1
    keys = csr_pair_keys(n, csr)
    total = 0
    for first, off in expansion_windows(later):
        total += int(np.count_nonzero(
            has_pair(keys, n, head[first], head[first + 1 + off])))
    return total


def four_cycle_count(g: SampledGraph) -> int:
    """4-cycles as half the sum of C(codeg(u, v), 2) over pairs u < v
    (Alon, Yuster and Zwick, Algorithmica 17, 1997): each cycle is two
    common neighbors of either of its two diagonals.  The sum of c (c - 1)
    over the codegrees c is four times the cycle count.

    The codegrees come from the CSR's wedges (``motif.wedge_keys``).  When
    all of them fit one EXPANSION_CHUNK window, their pair keys are sorted
    once and each pair's run of equal keys is its codegree
    (``motif.key_runs``).  Otherwise they are summed one range of lower
    endpoints u at a time, in tables of at most PAIR_TABLE_CELLS // 4 int32
    cells (always at least one row), so memory stays bounded at any n.
    """
    if g.edge_count < 4:
        return 0
    n = g.n
    csr = g.adjacency()
    deg = csr.indptr[1:] - csr.indptr[:-1]
    # sum deg (deg - 1) is twice the wedge count
    if int(deg @ (deg - 1)) <= 2 * _motif.EXPANSION_CHUNK:
        total = 0
        for keys in wedge_keys(n, csr, 0, n + 1):  # one window at most
            c = key_runs(keys)[1]
            total += int(c @ (c - 1))
        return total // 4
    step = max(1, _motif.PAIR_TABLE_CELLS // 4 // (n + 1))
    total = 0
    for lo in range(0, n + 1, step):
        codeg = _codegree_table(n, csr, lo, min(lo + step, n + 1))
        c = codeg[codeg > 1]
        total += int(np.einsum("i,i->", c, c - 1, dtype=np.int64))
        del codeg, c  # so that one block is alive at a time
    return total // 4


def expected_count(m: Motif, w: StepGraphon, n: int, rho: float) -> float:
    """Closed-form mean of the count: copies in K_n times rho^{|E|} t."""
    return copies_in_complete(m, n) * rho ** m.edge_count * hom_density(m, w)


# ---------------------------------------------------------------------------
# conditional expectation given the latent layer


@lru_cache(maxsize=512)
def _occupancy_polynomial(m: Motif, w: StepGraphon) -> tuple:
    """Coefficients of the conditional expectation as a polynomial in the
    block occupancy counts.

    Grouping injective vertex placements by their block assignment turns
    E[X | latents] into sum_beta (edge value product) * prod_b (n_b)_{c_b},
    where c is beta's per-block multiplicity; assignments with equal c
    collapse into one coefficient.  The edge value products are
    ``graphon._assignment_products`` at unit vertex weights (capped at
    MAX_ASSIGNMENTS).  Each assignment's key is its blocks, sorted, read
    as k base-K digits: one key per occupancy vector, below K^k, so it
    fits int64 and indexes a K^k-long ``np.bincount`` under the cap.
    bincount adds each key's weights in C order, the order of
    ``product(range(K), repeat=k)``.
    """
    K, k = w.block_count, m.vertex_count
    weights = _assignment_products(m, w, [np.ones(K)] * k)
    digits = np.indices(weights.shape,
                        dtype=np.min_scalar_type(K - 1)).reshape(k, -1)
    digits.sort(axis=0)
    code = np.zeros(weights.size, dtype=np.int64)
    for row in digits:
        code *= K
        code += row
    del digits
    keys = np.flatnonzero(np.bincount(code))
    sums = np.bincount(code, weights=weights.ravel())[keys]
    occupancy = np.zeros((keys.size, K), dtype=np.int64)
    rows = np.arange(keys.size)
    for _ in range(k):
        keys, digit = np.divmod(keys, K)
        occupancy[rows, digit] += 1
    return tuple(sorted(zip(map(tuple, occupancy.tolist()), sums.tolist())))


def _falling(n: int, c: int) -> float:
    out = 1.0
    for i in range(c):
        out *= n - i
    return out


def conditional_expected_count(latents, m: Motif, w: StepGraphon,
                               rho: float) -> float:
    """Exact conditional mean of the count given the latent coordinates.

    Polynomial in the block occupancy vector, so evaluation is O(K^|V|)
    independent of n.
    """
    occ = np.bincount(w.blocks_of(latents), minlength=w.block_count)
    return _conditional_from_occupancy(tuple(int(x) for x in occ), m, w, rho)


def _conditional_from_occupancy(occ: tuple, m: Motif, w: StepGraphon,
                                rho: float) -> float:
    """Conditional mean given the block occupancy counts.  For a one-block
    graphon it equals the unconditional mean identically, and is returned
    as such."""
    if w.block_count == 1:
        return expected_count(m, w, occ[0], rho)
    total = 0.0
    for counts, weight in _occupancy_polynomial(m, w):
        term = weight
        for n_b, c_b in zip(occ, counts):
            if c_b:
                term *= _falling(n_b, c_b)
        total += term
    aut = automorphism_count(m)
    return total * rho ** m.edge_count / aut


@dataclass(frozen=True)
class Decomposition:
    """One replicate's count against both centerings."""

    x: int
    expected: float
    conditional_expected: float
    delta: float
    delta1: float
    delta2: float


def decompose(g: SampledGraph, m: Motif, w: StepGraphon) -> Decomposition:
    x = count(g, m)
    exp = expected_count(m, w, g.n, g.rho)
    cond = conditional_expected_count(g.latents, m, w, g.rho)
    return Decomposition(x=x, expected=exp, conditional_expected=cond,
                         delta=x - exp, delta1=x - cond, delta2=cond - exp)


# ---------------------------------------------------------------------------
# small-n exact variance oracles


def _copies_in_kn(m: Motif, n: int) -> list:
    """All copies of m in K_n as (vertex frozenset, edge frozenset)."""
    k = m.vertex_count
    base = _copies_on(m, tuple(range(k)))
    out = []
    for subset in combinations(range(n), k):
        vs = frozenset(subset)
        for eset in base:
            out.append((vs, frozenset((subset[a], subset[b]) for a, b in eset)))
    return out


def _check_oracle_caps(m: Motif, n: int):
    if n > MAX_ORACLE_N or m.vertex_count > MAX_ORACLE_MOTIF_VERTICES:
        raise ValueError(
            f"exact oracle capped at n <= {MAX_ORACLE_N} and motifs with "
            f"<= {MAX_ORACLE_MOTIF_VERTICES} vertices")


def _union_motif(vs, es) -> Motif:
    verts = sorted(vs)
    pos = {v: i + 1 for i, v in enumerate(verts)}
    return Motif(len(verts), [(pos[a], pos[b]) for a, b in es])


def exact_variance(m: Motif, w: StepGraphon, n: int, rho: float) -> float:
    """Brute-force variance of the count over all ordered copy pairs.

    Each pair sharing at least one vertex contributes
    rho^{2|E|-|shared E|} t(union, W) - rho^{2|E|} t^2, with the union
    density evaluated on the concrete union graph.  Used as an oracle only.
    """
    _check_oracle_caps(m, n)
    copies = _copies_in_kn(m, n)
    t = hom_density(m, w)
    e2 = 2 * m.edge_count
    total = 0.0
    for vs, es in copies:
        for vt, et in copies:
            shared_v = vs & vt
            if not shared_v:
                continue
            shared_e = len(es & et)
            union = _union_motif(vs | vt, es | et)
            total += (rho ** (e2 - shared_e) * hom_density(union, w)
                      - rho ** e2 * t * t)
    return total


def conditional_variance(latents, m: Motif, w: StepGraphon,
                         rho: float) -> float:
    """Brute-force conditional variance of the count at fixed latents.

    Only pairs sharing at least one edge contribute: conditionally on the
    labels, copies with disjoint edge sets are independent.
    """
    latents = np.asarray(latents, dtype=np.float64)
    n = latents.size
    _check_oracle_caps(m, n)
    blocks = w.blocks_of(latents)
    _, vals, _ = _arrays(w)
    vmat = vals[np.ix_(blocks, blocks)]
    copies = _copies_in_kn(m, n)
    weight = []
    for vs, es in copies:
        prod = 1.0
        for a, b in es:
            prod *= vmat[a, b]
        weight.append(prod)
    e2 = 2 * m.edge_count
    total = 0.0
    for s, (vs, es) in enumerate(copies):
        for t_, (vt, et) in enumerate(copies):
            shared = es & et
            if not shared:
                continue
            prod_union = 1.0
            for a, b in es | et:
                prod_union *= vmat[a, b]
            total += (rho ** (e2 - len(shared)) * prod_union
                      - rho ** e2 * weight[s] * weight[t_])
    return total


# ---------------------------------------------------------------------------
# asymptotic orders


@dataclass(frozen=True)
class OrdersReport:
    """Polynomial orders of the count's mean and variance at one (n, rho).

    ``var_order`` is the largest pair-count scale over nonempty submotif
    classes; ``min_order`` is the smallest expected-submotif-count scale,
    the quantity controlling the conditional normal approximation.
    """

    mean_order: float
    var_order: float
    var_maximizer: Motif
    min_order: float
    min_minimizer: Motif


def mean_variance_orders(m: Motif, n: int, rho: float) -> OrdersReport:
    if m.edge_count < 1:
        raise ValueError("orders need at least one edge")
    k, e = m.vertex_count, m.edge_count
    mean_order = float(n) ** k * rho ** e

    reps = _isomorphism_classes(
        m.induced(subset) for size in range(1, k + 1)
        for subset in combinations(range(1, k + 1), size))

    var_best, var_arg = -math.inf, None
    min_best, min_arg = math.inf, None
    for sub in reps:
        fv, fe = sub.vertex_count, sub.edge_count
        v = float(n) ** (2 * k - fv) * rho ** (2 * e - fe)
        if v > var_best:
            var_best, var_arg = v, sub
        scale = float(n) ** fv * rho ** fe
        if scale < min_best:
            min_best, min_arg = scale, sub
    return OrdersReport(mean_order, var_best, var_arg, min_best, min_arg)

