"""Step graphons and their exact motif-density analytics.

A step graphon is a block kernel: block widths pi summing to 1 and a
symmetric K x K value matrix.  Homomorphism densities, rooted densities,
the degree function, regularity checks and the critical variance share are
all finite block sums, evaluated exactly (up to roundoff) with no
quadrature or Monte Carlo.  Every such sum, and the conditional-mean
polynomial of ``counting``, reads one array: the weight of each block
assignment of the motif's vertices (``_assignment_products``).  The kernel
projection variance is a pi-weighted sum of squares of the per-block mean
rooted densities that the regularity check already computes.  The density
of two overlapping copies is a product of two pinned marginals of that
array glued on the shared vertices, so the critical share builds no union
graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import numpy as np

from .motif import Motif, automorphism_count, density_exponents

# Densities and the conditional-mean polynomial enumerate all K^{|V|}
# block assignments, pinned vertices included; larger pairs are refused.
MAX_ASSIGNMENTS = 10_000_000

# The critical share enumerates ordered overlaps of two copies, factorial
# in the motif size; larger motifs are refused before any sum.
MAX_CRITICAL_VERTICES = 6

# largest deviation of a rooted density from t that still counts as
# regular; the densities are exact sums, so this only absorbs roundoff
REGULARITY_TOL = 1e-10


@dataclass(frozen=True)
class StepGraphon:
    """Block kernel: widths ``pi`` (positive, summing to 1) and a symmetric
    value matrix with entries in [0, 1] and positive edge density."""

    pi: tuple
    values: tuple

    def __init__(self, pi, values):
        pi = tuple(_real(p, "block width") for p in pi)
        values = tuple(tuple(_real(v, "graphon value") for v in row)
                       for row in values)
        k = len(pi)
        if k == 0:
            raise ValueError("graphon needs at least one block")
        if not all(0 < p < math.inf for p in pi):
            raise ValueError(f"block widths {list(pi)} must be positive and "
                             f"finite")
        if abs(sum(pi) - 1.0) > 1e-12:
            raise ValueError(f"block widths sum to {sum(pi)!r}, not 1")
        if len(values) != k or any(len(row) != k for row in values):
            raise ValueError("value matrix shape must match block count")
        for i in range(k):
            for j in range(k):
                v = values[i][j]
                if not (0.0 <= v <= 1.0):
                    raise ValueError(f"value {v!r} outside [0,1]")
                if abs(v - values[j][i]) > 0.0:
                    raise ValueError("value matrix must be symmetric")
        dens = sum(pi[i] * pi[j] * values[i][j] for i in range(k) for j in range(k))
        if dens <= 0.0:
            raise ValueError("graphon edge density must be positive")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "values", values)
        # the lru caches keyed by a graphon hash it on every lookup
        object.__setattr__(self, "_hash", hash((pi, values)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def block_count(self) -> int:
        return len(self.pi)

    def blocks_of(self, latents) -> np.ndarray:
        """Block index (0-based) of each latent coordinate in [0, 1): the
        number of the K - 1 inner block boundaries at or below it, so a
        latent at or past the widths' float sum, which may end below 1,
        falls in the last block."""
        _, _, inner = _arrays(self)
        return inner.searchsorted(np.asarray(latents, dtype=np.float64),
                                  side="right")

    @staticmethod
    def constant(p: float) -> "StepGraphon":
        return StepGraphon((1.0,), ((p,),))

    def to_json_dict(self) -> dict:
        return {"pi": list(self.pi), "values": [list(r) for r in self.values]}

    @staticmethod
    def from_json_dict(d: dict) -> "StepGraphon":
        return StepGraphon(d["pi"], d["values"])


def _real(value, what: str) -> float:
    """``value`` as a Python float; only Python and numpy reals (not bools
    or strings) are accepted."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} {value!r} is not a real number")
    return float(value)


@lru_cache(maxsize=256)
def _arrays(w: StepGraphon):
    """Widths, values and the K - 1 inner block boundaries (the cumulative
    widths less the last) as float64 arrays."""
    pi = np.array(w.pi, dtype=np.float64)
    vals = np.array(w.values, dtype=np.float64)
    return pi, vals, np.cumsum(pi)[:-1]


def named_graphon(name: str) -> StepGraphon:
    """Fixtures addressable by name: ``const:p``, ``W_sym``, ``W_asym``."""
    if name.startswith("const:"):
        return StepGraphon.constant(float(name.split(":", 1)[1]))
    if name == "W_sym":
        return StepGraphon((0.5, 0.5), ((0.8, 0.2), (0.2, 0.8)))
    if name == "W_asym":
        return StepGraphon((0.5, 0.5), ((0.9, 0.3), (0.3, 0.1)))
    raise ValueError(f"unknown graphon name {name!r}; "
                     "known: const:p, W_sym, W_asym")


# ---------------------------------------------------------------------------
# densities


def _assignment_products(m: Motif, w: StepGraphon,
                         vertex_weights) -> np.ndarray:
    """Weight of every block assignment beta, as a K^k array whose axis
    v - 1 holds the block of vertex v: prod_v vertex_weights[v - 1][beta_v]
    times prod over edges ab of W(beta_a, beta_b).

    Every density and the conditional-mean polynomial read this one array.
    The factors are applied from ones, the vertex weights in vertex order
    and then W over ``sorted_edges``, so each caller's sums are
    reproducible bit for bit.
    """
    _, vals, _ = _arrays(w)
    K, k = w.block_count, m.vertex_count
    if K ** k > MAX_ASSIGNMENTS:
        raise ValueError(
            f"{K}^{k} block assignments exceed cap {MAX_ASSIGNMENTS}")
    arr = np.ones((K,) * k)
    for v, weight in enumerate(vertex_weights):
        shape = [1] * k
        shape[v] = K
        arr = arr * weight.reshape(shape)
    for a, b in m.sorted_edges():
        shape = [1] * k
        shape[a - 1] = shape[b - 1] = K
        arr = arr * vals.reshape(shape)
    return arr


def hom_density(m: Motif, w: StepGraphon) -> float:
    """Homomorphism density of the motif in the kernel: an exact block sum."""
    pi, _, _ = _arrays(w)
    return float(_assignment_products(m, w, [pi] * m.vertex_count).sum())


def multipoint_density(m: Motif, pins: dict, w: StepGraphon) -> float:
    """Conditional density with the pinned vertices fixed to blocks (0-based).

    No pins recovers ``hom_density``; one pin gives a rooted density.
    A pinned vertex carries a one-hot row in place of its pi weight.
    """
    K = w.block_count
    for v, b in pins.items():
        if not (1 <= v <= m.vertex_count):
            raise ValueError(f"pinned vertex {v} outside motif")
        if not (0 <= b < K):
            raise ValueError(f"block index {b} outside 0..{K - 1}")
    pi, _, _ = _arrays(w)
    rows = np.eye(K)
    weights = [rows[pins[v]] if v in pins else pi
               for v in range(1, m.vertex_count + 1)]
    return float(_assignment_products(m, w, weights).sum())


def degree_function(w: StepGraphon) -> np.ndarray:
    """Per-block expected kernel value against a uniform partner."""
    pi, vals, _ = _arrays(w)
    return vals @ pi


@dataclass(frozen=True)
class RegularityReport:
    per_block_mean_rooted: tuple
    t: float
    is_regular: bool
    max_deviation: float


def regularity_report(m: Motif, w: StepGraphon) -> RegularityReport:
    """Whether the vertex-averaged rooted density is constant across blocks,
    up to ``REGULARITY_TOL``."""
    pi, _, _ = _arrays(w)
    k = m.vertex_count
    arr = _assignment_products(m, w, [pi] * k)
    t = float(arr.sum())
    # the axis-a marginal at b is pi_b times the rooted density t_a(b), so
    # g_b = sum_a marginal_a(b) / (k pi_b), from the one array t sums
    axes = range(k)
    marginals = sum(arr.sum(axis=tuple(x for x in axes if x != a))
                    for a in axes)
    per_block = tuple((marginals / (k * pi)).tolist())
    dev = max(abs(x - t) for x in per_block)
    return RegularityReport(per_block, t, dev <= REGULARITY_TOL, dev)


def is_motif_regular(m: Motif, w: StepGraphon) -> bool:
    return regularity_report(m, w).is_regular


# ---------------------------------------------------------------------------
# kernel projection variance and the critical variance share


def projection_variance(m: Motif, w: StepGraphon) -> float:
    """Variance of the one-vertex projection of the centered copy kernel.

    On a step graphon the projection is constant on each block b, equal to
    copies * (g_b - t) with copies = k!/|Aut| and g, t from
    ``regularity_report``.  So the variance is copies^2 sum_b pi_b (g_b - t)^2:
    the same as summing the densities of the k^2 one-vertex joins J_ab of two
    copies, since t(J_ab) = sum_b pi_b t_a(b) t_b(b) for the rooted densities
    t_a.  A sum of squares, it is nonnegative and zero exactly when every g_b
    equals t.
    """
    if m.edge_count < 1:
        raise ValueError("projection variance needs at least one edge")
    rep = regularity_report(m, w)
    pi, _, _ = _arrays(w)
    dev = np.array(rep.per_block_mean_rooted) - rep.t
    copies = math.factorial(m.vertex_count) // automorphism_count(m)
    return copies * copies * float(pi @ (dev * dev))


def _check_pinned_c(c):
    # written so that NaN fails
    if not 0 < c < math.inf:
        raise ValueError(f"c {c!r} must be positive and finite")


@lru_cache(maxsize=256)
def _critical_overlap_sums(m: Motif, w: StepGraphon) -> tuple:
    """(v, sum of t(A u B)) for each size v of a shared vertex set S, over
    the motif A on 1..k and the placements of a second copy B whose
    overlap with A attains m1.

    That overlap is exactly a set S with e(A[S])/(v - 1) = m1 on which B
    induces the same labelled edges.  B is placed by the tuple tau of its
    motif vertices that land on S in order; its other vertices go to new
    vertices, in (k - v)! ways that all give the same term.  Given the
    blocks beta_S the rest of A and the rest of B are independent, so
    t(A u B) = sum_{beta_S} prod_S pi prod_{A[S]} W * h(S) * h(tau), with
    h(T) the motif less the edges inside T, T pinned with unit weight and
    summed over the other vertices.
    """
    pi, _, _ = _arrays(w)
    k = m.vertex_count
    m1 = density_exponents(m).m1
    adjacent = m.edges | {(b, a) for a, b in m.edges}
    ones = np.ones(w.block_count)

    @lru_cache(maxsize=None)
    def marginal(pinned):
        # a K^v array, axis i over the block of pinned[i] (increasing)
        rest = Motif(k, [e for e in m.edges if not set(e) <= set(pinned)])
        arr = _assignment_products(rest, w, [ones if v in pinned else pi
                                             for v in range(1, k + 1)])
        return arr.sum(axis=tuple(v - 1 for v in range(1, k + 1)
                                  if v not in pinned))

    sums = []
    for v in range(2, k + 1):
        slots = tuple(combinations(range(v), 2))

        def induced_pairs(verts):
            return [(verts[i], verts[j]) in adjacent for i, j in slots]

        total = 0.0
        for shared in combinations(range(1, k + 1), v):
            core = m.induced(shared)
            if Fraction(core.edge_count, v - 1) != m1:
                continue
            pairs = induced_pairs(shared)
            glued = (_assignment_products(core, w, [pi] * v)
                     * marginal(shared))
            for tau in permutations(range(1, k + 1), v):
                if induced_pairs(tau) != pairs:
                    continue
                pinned = tuple(sorted(tau))
                h = marginal(pinned).transpose([pinned.index(t) for t in tau])
                total += float((glued * h).sum())
        sums.append((v, total))
    return tuple(sums)


def critical_edge_variance_share(m: Motif, w: StepGraphon, c: float) -> float:
    """Limiting share of the count variance carried by the edge component
    when the sparsity is pinned so that n * rho^{m1} stays equal to c.

    The edge term sums t(A u B) over the ordered pairs of copies whose
    overlap attains the m1 maximum, each the product of two pinned
    marginals of the motif glued on the v shared vertices
    (``_critical_overlap_sums``; Lovasz, Large Networks and Graph Limits,
    2012, ch. 6-7), so no union graph is built.  A placement of B counts
    (k - v)!/|Aut| copies and each v weighs copies(m, 2k - v) /
    (c^{v-1} (2k - v)!), so a placement weighs 1/(|Aut|^2 c^{v-1}).

    Requires a graphon that ``is_motif_regular`` calls irregular (otherwise
    the share degenerates to 1 trivially and this constant is undefined)
    and a motif of at most MAX_CRITICAL_VERTICES vertices.
    """
    _check_pinned_c(c)
    k = m.vertex_count
    if k > MAX_CRITICAL_VERTICES:
        raise ValueError(f"critical share capped at {MAX_CRITICAL_VERTICES} "
                         f"motif vertices, not {k}")
    if is_motif_regular(m, w):
        raise ValueError("critical constant undefined in regular case")
    xi = projection_variance(m, w)
    label_term = (k * k) / (math.factorial(k) ** 2) * xi
    aut = automorphism_count(m)
    edge_term = sum(total / (aut * aut * c ** (v - 1))
                    for v, total in _critical_overlap_sums(m, w))
    return 1.0 - label_term / (label_term + edge_term)
