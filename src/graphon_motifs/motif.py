"""Exact combinatorics of small fixed motifs.

A motif is a simple undirected graph on vertices 1..k given by an edge
list.  Everything here is exact: isomorphism classes via a canonical key,
automorphism counts, and rational subgraph-density exponents with their
maximizer classes.

All functions are pure; memoized helpers fill their caches idempotently,
so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import NamedTuple

import numpy as np

# Enumeration over vertex subsets is exponential in the motif size; this
# cap keeps the worst case tractable.
MAX_EXPONENT_VERTICES = 12


@dataclass(frozen=True)
class Motif:
    """A simple graph: ``vertex_count`` vertices labeled 1..k, set of edges.

    Edges are stored normalized as (a, b) with a < b.  Self-loops and
    out-of-range endpoints are rejected; duplicates collapse.
    """

    vertex_count: int
    edges: frozenset

    def __init__(self, vertex_count: int, edges):
        if vertex_count < 1:
            raise ValueError("motif needs at least one vertex")
        norm = set()
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (1 <= a <= vertex_count and 1 <= b <= vertex_count):
                raise ValueError(f"edge ({a},{b}) outside 1..{vertex_count}")
            norm.add((min(a, b), max(a, b)))
        object.__setattr__(self, "vertex_count", int(vertex_count))
        object.__setattr__(self, "edges", frozenset(norm))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    def degrees(self) -> list:
        deg = [0] * (self.vertex_count + 1)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg[1:]

    def neighbors(self) -> list:
        adj = [set() for _ in range(self.vertex_count + 1)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def is_connected(self) -> bool:
        if self.vertex_count == 1:
            return True
        adj = self.neighbors()
        seen = {1}
        stack = [1]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.vertex_count

    def induced(self, vertices) -> "Motif":
        """Induced submotif on the given vertices, relabeled 1..|S| in order."""
        verts = sorted(vertices)
        pos = {v: i + 1 for i, v in enumerate(verts)}
        sub = [(pos[a], pos[b]) for a, b in self.edges if a in pos and b in pos]
        return Motif(len(verts), sub)

    def relabel(self, mapping) -> "Motif":
        """Apply a vertex bijection {old: new} covering 1..k."""
        return Motif(self.vertex_count,
                     [(mapping[a], mapping[b]) for a, b in self.edges])

    def to_json_dict(self) -> dict:
        return {"vertices": self.vertex_count,
                "edges": [list(e) for e in self.sorted_edges()]}

    @staticmethod
    def from_json_dict(d: dict) -> "Motif":
        return Motif(_integer(d["vertices"], "motif vertex count"),
                     [tuple(_integer(v, "motif edge endpoint") for v in e)
                      for e in d["edges"]])


def _integer(value, what: str) -> int:
    """``value`` as a Python int; only Python and numpy integers (not
    bools) are accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def named_motif(name: str) -> Motif:
    """Built-in motifs addressable by name."""
    try:
        return _NAMED[name]
    except KeyError:
        raise ValueError(f"unknown motif name {name!r}; "
                         f"known: {', '.join(sorted(_NAMED))}") from None


_NAMED = {
    "edge": Motif(2, [(1, 2)]),
    "path3": Motif(3, [(1, 2), (2, 3)]),
    "triangle": Motif(3, [(1, 2), (2, 3), (1, 3)]),
    "k4": Motif(4, [(a, b) for a, b in combinations(range(1, 5), 2)]),
    "c4": Motif(4, [(1, 2), (2, 3), (3, 4), (1, 4)]),
    "c5": Motif(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]),
    # triangle with a pendant edge
    "triangle_pendant": Motif(4, [(1, 2), (2, 3), (1, 3), (1, 4)]),
    # 5 vertices, 6 edges: diamond on 1..4 plus a pendant at 1
    "fig1b": Motif(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 5)]),
    # 6 vertices, 7 edges: triangle with two disjoint paths closing at a far vertex
    "fig2a": Motif(6, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 6), (5, 6)]),
}


# ---------------------------------------------------------------------------
# canonical labelling


def _refine_colors(k: int, adj_masks: list) -> list:
    """Iterated neighborhood refinement; color ranks are isomorphism-invariant."""
    colors = [bin(m).count("1") for m in adj_masks]
    colors = _rank([(c,) for c in colors])
    while True:
        sigs = []
        for v in range(k):
            nb = adj_masks[v]
            neigh = []
            while nb:
                low = nb & -nb
                neigh.append(colors[low.bit_length() - 1])
                nb ^= low
            sigs.append((colors[v], tuple(sorted(neigh))))
        new = _rank(sigs)
        if new == colors:
            return colors
        colors = new


def _rank(sigs: list) -> list:
    order = {s: i for i, s in enumerate(sorted(set(sigs)))}
    return [order[s] for s in sigs]


def _pair_index(i: int, j: int, k: int) -> int:
    # upper-triangle position of 0-based pair i < j
    return i * k - i * (i + 1) // 2 + (j - i - 1)


@lru_cache(maxsize=65536)
def _canonical_data(m: Motif):
    """Minimal adjacency bitstring over color-respecting labelings.

    Returns (bits, labeling old->new 0-based, tie_count).  Restricting the
    search to labelings that list each refinement class contiguously is
    exact because the classes are isomorphism-invariant; the number of
    labelings attaining the minimum equals |Aut| by orbit-stabilizer.
    """
    k = m.vertex_count
    adj = [0] * k
    for a, b in m.edges:
        adj[a - 1] |= 1 << (b - 1)
        adj[b - 1] |= 1 << (a - 1)
    colors = _refine_colors(k, adj)
    classes = {}
    for v in range(k):
        classes.setdefault(colors[v], []).append(v)
    ordered = [classes[c] for c in sorted(classes)]
    offsets = []
    off = 0
    for cls in ordered:
        offsets.append(off)
        off += len(cls)

    edges0 = [(a - 1, b - 1) for a, b in m.edges]
    best = None
    best_perm = None
    ties = 0
    newpos = [0] * k
    for assignment in product(*[permutations(cls) for cls in ordered]):
        for cls_members, base in zip(assignment, offsets):
            for slot, v in enumerate(cls_members):
                newpos[v] = base + slot
        bits = 0
        for u, v in edges0:
            a, b = newpos[u], newpos[v]
            if a > b:
                a, b = b, a
            bits |= 1 << _pair_index(a, b, k)
        if best is None or bits < best:
            best = bits
            best_perm = tuple(newpos)
            ties = 1
        elif bits == best:
            ties += 1
    return best, best_perm, ties


def canonical_key(m: Motif) -> tuple:
    """Cheap hashable isomorphism-class key (vertex count, adjacency bits)."""
    bits, _, _ = _canonical_data(m)
    return (m.vertex_count, bits)


def canonical_relabel(m: Motif) -> Motif:
    """The canonical representative of m's isomorphism class."""
    _, perm, _ = _canonical_data(m)
    return m.relabel({v + 1: perm[v] + 1 for v in range(m.vertex_count)})


def automorphism_count(m: Motif) -> int:
    """Number of vertex permutations preserving the edge set; divides k!."""
    _, _, ties = _canonical_data(m)
    return ties


def copies_in_complete(m: Motif, n: int) -> int:
    """Number of copies of m in the complete graph K_n: (n)_k / |Aut|."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    k = m.vertex_count
    if n < k:
        return 0
    falling = 1
    for i in range(k):
        falling *= n - i
    aut = automorphism_count(m)
    assert falling % aut == 0
    return falling // aut


# ---------------------------------------------------------------------------
# density exponents


@dataclass(frozen=True)
class DensityProfile:
    """Subgraph-density exponents of a motif with their maximizer classes.

    m is the maximum of |E(F)|/|V(F)| and m1 the maximum of
    |E(F)|/(|V(F)|-1) over nonempty submotifs F; both are exact rationals.
    Maximizer sets hold one canonical representative per isomorphism class.
    """

    m: Fraction
    m1: Fraction
    m_maximizers: tuple
    m1_maximizers: tuple
    balanced: bool
    strictly_balanced: bool
    strongly_balanced: bool
    strictly_strongly_balanced: bool


def _isomorphism_classes(motifs) -> tuple:
    """One canonical representative of each isomorphism class among
    ``motifs``, sorted by (vertices, edges, sorted edges)."""
    reps = {}
    for sub in motifs:
        reps.setdefault(canonical_key(sub), canonical_relabel(sub))
    return tuple(sorted(reps.values(),
                        key=lambda s: (s.vertex_count, s.edge_count,
                                       s.sorted_edges())))


@lru_cache(maxsize=4096)
def density_exponents(m: Motif) -> DensityProfile:
    """Exact density exponents over all induced submotifs.

    A maximizing subgraph is always weakly dominated by the induced
    subgraph on its vertex set (it can only gain edges), so induced
    enumeration is exact, for the values and for the maximizer classes.
    """
    if m.edge_count == 0:
        raise ValueError("density exponents need at least one edge")
    k = m.vertex_count
    if k > MAX_EXPONENT_VERTICES:
        raise ValueError(f"motif too large: {k} > {MAX_EXPONENT_VERTICES} vertices")
    verts = range(1, k + 1)
    edges_in = {}
    for size in range(1, k + 1):
        for subset in combinations(verts, size):
            ss = frozenset(subset)
            cnt = sum(1 for a, b in m.edges if a in ss and b in ss)
            edges_in[subset] = cnt

    best_m = Fraction(0)
    best_m1 = Fraction(0)
    arg_m = []
    arg_m1 = []
    for subset, cnt in edges_in.items():
        r = Fraction(cnt, len(subset))
        if r > best_m:
            best_m, arg_m = r, [subset]
        elif r == best_m:
            arg_m.append(subset)
        if len(subset) >= 2 and cnt >= 1:
            r1 = Fraction(cnt, len(subset) - 1)
            if r1 > best_m1:
                best_m1, arg_m1 = r1, [subset]
            elif r1 == best_m1:
                arg_m1.append(subset)

    m_max = _isomorphism_classes(m.induced(s) for s in arg_m)
    m1_max = _isomorphism_classes(m.induced(s) for s in arg_m1)
    me, mv = m.edge_count, m.vertex_count
    self_key = canonical_key(m)
    balanced = best_m == Fraction(me, mv)
    strictly = balanced and all(canonical_key(s) == self_key for s in m_max)
    strongly = best_m1 == Fraction(me, mv - 1)
    strictly_strongly = strongly and all(canonical_key(s) == self_key
                                         for s in m1_max)
    return DensityProfile(best_m, best_m1, m_max, m1_max,
                          balanced, strictly, strongly, strictly_strongly)


def _copies_on(m: Motif, labels: tuple) -> set:
    """Distinct copies of m with vertex set exactly ``labels``: edge frozensets."""
    out = set()
    for perm in permutations(labels):
        out.add(frozenset((min(perm[a - 1], perm[b - 1]),
                           max(perm[a - 1], perm[b - 1]))
                          for a, b in m.edges))
    return out


# ---------------------------------------------------------------------------
# embedding counts

# Rows of candidate extensions materialized at once by the level-wise
# counters; bounds their working memory whatever the host size.
EXPANSION_CHUNK = 4096

# Pair adjacency tests gather from a dense boolean table of (n + 1)^2 cells
# up to this size (4 MB); larger hosts search the sorted pair keys.  4096
# random queries at n = 150 take 14 us from the table and 420 us by search.
# Hosts within it also count triangles from neighbour bit rows
# (counting.triangle_count): a boolean table of n + 1 rows of
# 64 ceil((n + 1) / 64) cells, at most 4.2 MB at n = 2047, packed into
# bit rows of an eighth of that.
PAIR_TABLE_CELLS = 1 << 22


class CSR(NamedTuple):
    """Symmetric adjacency of a simple graph on vertices 1..n.

    The neighbors of v are ``indices[indptr[v]:indptr[v + 1]]`` in
    increasing order; row 0 is empty, so ``indptr`` has n + 2 entries.
    ``rows`` holds the row vertex of every entry of ``indices``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray


def csr_from_keys(n: int, keys: np.ndarray) -> CSR:
    """CSR of distinct int64 pair keys ``lo * (n + 1) + hi`` of pairs
    lo < hi in 1..n, in any order: both orientations of every key, sorted
    once, are the directed pairs in row order."""
    stride = n + 1
    lo = keys // stride  # np.divmod divides several times slower
    hi = keys - lo * stride
    both = np.concatenate((keys, hi * stride + lo))
    both.sort()
    rows = both // stride
    indices = both - rows * stride
    indptr = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=stride), out=indptr[1:])
    return CSR(indptr, indices, rows)


def csr_pair_keys(n: int, csr: CSR) -> np.ndarray:
    """Adjacency of every ordered pair, keyed ``u * (n + 1) + v``: a boolean
    table indexed by the key while it has at most PAIR_TABLE_CELLS cells,
    else the sorted keys of the adjacent pairs."""
    keys = csr.rows * (n + 1) + csr.indices
    if (n + 1) ** 2 > PAIR_TABLE_CELLS:
        return keys
    table = np.zeros((n + 1) ** 2, dtype=bool)
    table[keys] = True
    return table


def has_pair(keys: np.ndarray, n: int, u: np.ndarray, v: np.ndarray):
    """Elementwise adjacency test of u and v against ``csr_pair_keys``."""
    q = u * (n + 1) + v
    if keys.dtype == bool:
        return keys[q]
    at = np.minimum(np.searchsorted(keys, q), keys.size - 1)
    return keys[at] == q


def expansion_windows(counts: np.ndarray):
    """Enumerate (row, offset) for offset in 0..counts[row]-1 over all rows,
    in row order, as index-array pairs of at most EXPANSION_CHUNK entries;
    a total within one chunk is one window, built without searching."""
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if ends.size else 0
    if 0 < total <= EXPANSION_CHUNK:
        row = np.repeat(np.arange(counts.size), counts)
        yield row, np.arange(total) - starts[row]
        return
    for t0 in range(0, total, EXPANSION_CHUNK):
        t1 = min(t0 + EXPANSION_CHUNK, total)
        r0 = int(np.searchsorted(ends, t0, side="right"))
        r1 = int(np.searchsorted(ends, t1 - 1, side="right")) + 1
        span = np.minimum(ends[r0:r1], t1) - np.maximum(starts[r0:r1], t0)
        row = np.repeat(np.arange(r0, r1), span)
        yield row, np.arange(t0, t1) - starts[row]


def _host_csr(host_n: int, host_edges) -> CSR:
    """Validate an edge iterable and build its CSR; reversed and repeated
    pairs collapse."""
    arr = np.array(list(host_edges), dtype=np.int64).reshape(-1, 2)
    a, b = arr[:, 0], arr[:, 1]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    bad = (a == b) | (lo < 1) | (hi > host_n)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"bad host edge ({a[i]},{b[i]})")
    return csr_from_keys(host_n, np.unique(lo * (host_n + 1) + hi))


@lru_cache(maxsize=4096)
def _embedding_plan(m: Motif) -> tuple:
    """Per level of the extension: (required degree, columns of the placed
    neighbors, columns of the other placed vertices)."""
    k = m.vertex_count
    mdeg = m.degrees()
    madj = m.neighbors()

    # visit motif vertices most-connected-first so candidate sets shrink fast
    order = []
    placed = set()
    remaining = set(range(1, k + 1))
    while remaining:
        v = max(remaining,
                key=lambda u: (len(madj[u] & placed), mdeg[u - 1]))
        order.append(v)
        placed.add(v)
        remaining.remove(v)
    plan = []
    for depth, v in enumerate(order):
        anchors = tuple(order.index(u) for u in madj[v] & set(order[:depth]))
        others = tuple(c for c in range(depth) if c not in anchors)
        plan.append((mdeg[v - 1], anchors, others))
    return tuple(plan)


def wedge_keys(n: int, csr: CSR, lo: int, hi: int):
    """The wedges u - w - v (paths of length two, Chiba and Nishizeki,
    SIAM J. Comput. 14, 1985) with u < v and lo <= u < hi, as int64 pair
    keys ``(u - lo) * (n + 1) + v``, one EXPANSION_CHUNK window at a time,
    so that the full range 0..n is keyed like the pair table.  The wedges
    start at the CSR entries u of each row w: every entry on the full
    range, else the entries with lo <= u < hi, selected in CSR order by a
    mask, so that the entries after u in its row are still its partners
    v > u."""
    indptr, indices, rows = csr
    if lo == 0 and hi == n + 1:
        u, w = indices, rows
        start = np.arange(1, indices.size + 1)
    else:
        # u held as u - lo
        pos = np.flatnonzero((indices >= lo) & (indices < hi))
        u, w, start = indices[pos] - lo, rows[pos], pos + 1
    # the neighbors after u in row w are its wedge partners
    later = indptr[w + 1] - start
    for row, off in expansion_windows(later):
        yield u[row] * (n + 1) + indices[start[row] + off]


def key_runs(keys: np.ndarray) -> tuple:
    """(first index, length) of each run of equal ``keys``, sorted in place."""
    keys.sort()
    new = np.empty(keys.size + 1, dtype=bool)
    new[0] = new[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:-1])
    bounds = np.flatnonzero(new)
    return bounds[:-1], bounds[1:] - bounds[:-1]


def _codegree_table(n: int, csr: CSR, lo: int, hi: int) -> np.ndarray:
    """Common neighbors of every pair u < v with lo <= u < hi, an int32
    table keyed like ``wedge_keys``: each wedge adds one to its pair,
    summed one window at a time from the runs of its sorted keys."""
    table = np.zeros((hi - lo) * (n + 1), dtype=np.int32)
    for keys in wedge_keys(n, csr, lo, hi):
        first, hits = key_runs(keys)
        table[keys[first]] += hits
    return table


class _Host(NamedTuple):
    """What the extension levels read of the host graph."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    deg: np.ndarray
    keys: np.ndarray
    codeg: np.ndarray | None


def _count_last(host: _Host, cols: list, anchors: tuple, others: tuple) -> int:
    """Images of the last motif vertex over the partial images ``cols``,
    from degrees and codegrees.  Its required degree is its number of
    anchors, so its candidates are all vertices (no anchor), the neighbors
    of one anchor, or the common neighbors of two, less the placed other
    vertices among them."""
    if not anchors:
        return cols[0].size * (host.n - len(others))
    a = cols[anchors[0]]
    if len(anchors) == 1:
        total = int(host.deg[a].sum())
    else:
        b = cols[anchors[1]]
        pair = np.minimum(a, b) * (host.n + 1) + np.maximum(a, b)
        total = int(host.codeg[pair].sum())
    for c in others:
        inside = has_pair(host.keys, host.n, cols[c], a)
        if len(anchors) == 2:
            inside &= has_pair(host.keys, host.n, cols[c], b)
        total -= int(np.count_nonzero(inside))
    return total


def _extend(host: _Host, plan: tuple, cols: list, depth: int) -> int:
    """Injective extensions of the partial images ``cols`` (one column per
    placed motif vertex, one row per image) to the motif vertices of
    ``plan[depth:]``."""
    need, anchors, others = plan[depth]
    last = depth + 1 == len(plan)
    if last and (len(anchors) < 2
                 or len(anchors) == 2 and host.codeg is not None):
        return _count_last(host, cols, anchors, others)
    if anchors:
        base = cols[anchors[0]]
        counts = host.deg[base]
        start = host.indptr[base]
    else:
        pool = np.flatnonzero(host.deg[1:] >= need) + 1
        counts = np.full(cols[0].size, pool.size, dtype=np.int64)
    found = 0
    for row, off in expansion_windows(counts):
        h = host.indices[start[row] + off] if anchors else pool[off]
        keep = host.deg[h] >= need
        for c in anchors[1:]:
            keep &= has_pair(host.keys, host.n, cols[c][row], h)
        for c in others:
            keep &= cols[c][row] != h
        if last:
            found += int(np.count_nonzero(keep))
        else:
            row = row[keep]
            found += _extend(host, plan,
                             [col[row] for col in cols] + [h[keep]],
                             depth + 1)
    return found


def count_embeddings(host_n: int, host_edges, m: Motif) -> int:
    """Copies of m in a simple host graph on vertices 1..host_n.

    ``host_edges`` is an iterable of pairs, validated here, or the CSR of a
    validated graph (``SampledGraph.adjacency()``).  Injective homomorphisms
    are extended one motif vertex at a time, most-connected-first: each
    partial image grows by the neighbors of one placed anchor, pruned by
    degree, by adjacency to the other anchors and by injectivity, at most
    EXPANSION_CHUNK candidates at once.  The last motif vertex is counted,
    not enumerated, when it has at most two anchors: from the host size,
    an anchor's degree, or the two anchors' codegree, read from a table of
    common-neighbor counts built from the host's wedges while it has at
    most PAIR_TABLE_CELLS // 4 int32 cells.  The number of homomorphisms,
    divided by the automorphism count, is the copy count.
    """
    csr = host_edges if isinstance(host_edges, CSR) else _host_csr(
        host_n, host_edges)
    k = m.vertex_count
    if k > host_n:
        return 0
    if m.edge_count and csr.indices.size == 0:
        return 0
    plan = _embedding_plan(m)
    deg = csr.indptr[1:] - csr.indptr[:-1]
    first = np.flatnonzero(deg[1:] >= plan[0][0]) + 1
    if k == 1:
        total = first.size
    else:
        codeg = None
        if (len(plan[-1][1]) == 2
                and (host_n + 1) ** 2 <= PAIR_TABLE_CELLS // 4):
            codeg = _codegree_table(host_n, csr, 0, host_n + 1)
        host = _Host(host_n, csr.indptr, csr.indices, deg,
                     csr_pair_keys(host_n, csr), codeg)
        total = _extend(host, plan, [first], 1)
    aut = automorphism_count(m)
    assert total % aut == 0
    return total // aut
