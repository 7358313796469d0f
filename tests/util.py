"""Shared brute-force oracles for the test suite.

Everything here is deliberately naive and independent of the library's
clever paths: permutation-based isomorphism, subset enumeration counting,
and total enumeration of small sample spaces.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations, product

import numpy as np

from graphon_motifs import (
    Motif,
    StepGraphon,
    automorphism_count,
    conditional_expected_count,
    density_exponents,
    expected_count,
    hom_density,
    is_motif_regular,
    multipoint_density,
    projection_variance,
)
from graphon_motifs import sampler
from graphon_motifs.graphon import _check_pinned_c
from graphon_motifs.motif import canonical_key


def brute_isomorphic(m1: Motif, m2: Motif) -> bool:
    if m1.vertex_count != m2.vertex_count or m1.edge_count != m2.edge_count:
        return False
    target = set(m2.edges)
    k = m1.vertex_count
    for perm in permutations(range(1, k + 1)):
        mapped = {(min(perm[a - 1], perm[b - 1]), max(perm[a - 1], perm[b - 1]))
                  for a, b in m1.edges}
        if mapped == target:
            return True
    return False


def brute_automorphisms(m: Motif) -> int:
    k = m.vertex_count
    edges = set(m.edges)
    total = 0
    for perm in permutations(range(1, k + 1)):
        mapped = {(min(perm[a - 1], perm[b - 1]), max(perm[a - 1], perm[b - 1]))
                  for a, b in edges}
        if mapped == edges:
            total += 1
    return total


def copies_on_labels(m: Motif, labels) -> set:
    """Distinct copies of m with vertex set exactly ``labels``: edge frozensets."""
    out = set()
    for perm in permutations(labels):
        out.add(frozenset((min(perm[a - 1], perm[b - 1]),
                           max(perm[a - 1], perm[b - 1]))
                          for a, b in m.edges))
    return out


def join_catalog(m: Motif, f: Motif) -> tuple:
    """Union classes of ordered pairs of m-copies overlapping in class f.

    Each entry is (canonical union, multiplicity): the number of ordered
    pairs of copies on the labelled vertex set {1..2k - |V(f)|} whose
    intersection is isomorphic to f and whose union to the entry.  Every
    such pair spans those labels, and their symmetric group acts
    transitively on the first copy, so second copies are counted against one
    fixed first copy and scaled by the placements of the first.
    """
    from graphon_motifs import (canonical_relabel, copies_in_complete,
                                count_embeddings)
    from graphon_motifs.motif import canonical_key

    if f.edge_count < 1:
        raise ValueError("intersection class needs at least one edge")
    if count_embeddings(m.vertex_count, m.edges, f) == 0:
        raise ValueError("intersection class does not embed in the motif")
    k, fv = m.vertex_count, f.vertex_count
    s = 2 * k - fv
    f_key = canonical_key(f)
    first_edges = set(m.edges)
    new_vertices = tuple(range(k + 1, s + 1))
    per_first = {}
    for shared in combinations(range(1, k + 1), fv):
        pos = {v: i + 1 for i, v in enumerate(shared)}
        for e2 in copies_on_labels(m, shared + new_vertices):
            inter = Motif(fv, [(pos[a], pos[b]) for a, b in e2 & first_edges])
            if canonical_key(inter) != f_key:
                continue
            union = Motif(s, first_edges | e2)
            key = canonical_key(union)
            if key not in per_first:
                per_first[key] = [canonical_relabel(union), 0]
            per_first[key][1] += 1
    scale = copies_in_complete(m, s)
    return tuple((rep, cnt * scale) for rep, cnt in per_first.values())


def subset_count_oracle(host_n: int, host_edges, m: Motif) -> int:
    """Copies of m in the host by checking every vertex subset."""
    host = {(min(a, b), max(a, b)) for a, b in host_edges}
    k = m.vertex_count
    base = copies_on_labels(m, tuple(range(k)))  # copies on positions 0..k-1
    total = 0
    for subset in combinations(range(1, host_n + 1), k):
        for copy in base:
            if all((subset[a], subset[b]) in host for a, b in copy):
                total += 1
    return total


def four_cycle_oracle(n: int, edges) -> int:
    """4-cycles of a host on 1..n as half the sum of C((A^2)_uv, 2) over
    pairs u < v, from its dense int64 adjacency matrix A: each cycle is
    two common neighbors of either of its two diagonals."""
    a = np.zeros((n, n), dtype=np.int64)
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2) - 1
    a[pairs[:, 0], pairs[:, 1]] = 1
    a[pairs[:, 1], pairs[:, 0]] = 1
    codeg = (a @ a)[np.triu_indices(n, 1)]
    return sum(math.comb(int(c), 2) for c in codeg) // 2


def all_graphs_on(k: int):
    """Every labeled simple graph on vertices 1..k."""
    pairs = list(combinations(range(1, k + 1), 2))
    for bits in range(1 << len(pairs)):
        yield Motif(k, [e for i, e in enumerate(pairs) if bits >> i & 1])


def all_subgraph_ratios(m: Motif):
    """(|E(F)|, |V(F)|) over every subgraph of m, induced or not."""
    out = []
    for size in range(1, m.vertex_count + 1):
        for subset in combinations(range(1, m.vertex_count + 1), size):
            inside = [e for e in m.edges if e[0] in subset and e[1] in subset]
            for r in range(len(inside) + 1):
                for chosen in combinations(inside, r):
                    out.append((len(chosen), size))
    return out


def random_motif(rng, max_vertices=5, require_edge=True) -> Motif:
    k = int(rng.integers(2, max_vertices + 1))
    pairs = list(combinations(range(1, k + 1), 2))
    while True:
        mask = rng.random(len(pairs)) < rng.uniform(0.2, 0.9)
        edges = [e for e, keep in zip(pairs, mask) if keep]
        if edges or not require_edge:
            return Motif(k, edges)


def random_graphon(rng, blocks=None) -> StepGraphon:
    K = int(blocks if blocks is not None else rng.integers(2, 5))
    pi = rng.uniform(0.5, 2.0, size=K)
    pi = pi / pi.sum()
    pi = tuple(float(p) for p in pi)
    pi = pi[:-1] + (1.0 - sum(pi[:-1]),)  # force an exact unit sum
    vals = rng.uniform(0.05, 0.95, size=(K, K))
    vals = (vals + vals.T) / 2.0
    return StepGraphon(pi, tuple(tuple(float(v) for v in row) for row in vals))


def split_blocks(w: StepGraphon, r: int) -> StepGraphon:
    """The same kernel on K*r blocks: each width split r ways, each value
    copied to the r x r sub-blocks it covers."""
    blocks = [b for b in range(w.block_count) for _ in range(r)]
    return StepGraphon(tuple(w.pi[b] / r for b in blocks),
                       tuple(tuple(w.values[a][b] for b in blocks)
                             for a in blocks))


def reference_blocks_of(w: StepGraphon, latents) -> np.ndarray:
    """Block of each latent by the full cumulative widths, clamped to the
    last block: the formula ``StepGraphon.blocks_of`` must reproduce."""
    cum = np.cumsum(np.array(w.pi, dtype=np.float64))
    u = np.asarray(latents, dtype=np.float64)
    return np.minimum(np.searchsorted(cum, u, side="right"),
                      w.block_count - 1).astype(np.int64)


def total_enumeration_variance(m: Motif, w: StepGraphon, n: int, rho: float):
    """Exact Var[X] by enumerating every block assignment and edge pattern."""
    from graphon_motifs import count_embeddings

    pairs = list(combinations(range(1, n + 1), 2))
    mean = 0.0
    mean2 = 0.0
    for beta in product(range(w.block_count), repeat=n):
        wprob = 1.0
        for b in beta:
            wprob *= w.pi[b]
        probs = [rho * w.values[beta[a - 1]][beta[b - 1]] for a, b in pairs]
        for pattern in product((0, 1), repeat=len(pairs)):
            pp = wprob
            for bit, p in zip(pattern, probs):
                pp *= p if bit else (1.0 - p)
            if pp == 0.0:
                continue
            edges = [e for bit, e in zip(pattern, pairs) if bit]
            x = count_embeddings(n, edges, m)
            mean += pp * x
            mean2 += pp * x * x
    return mean2 - mean * mean


def total_enumeration_conditional_variance(m: Motif, w: StepGraphon,
                                           blocks, rho: float):
    """Exact Var[X | blocks] by enumerating every edge pattern."""
    from graphon_motifs import count_embeddings

    n = len(blocks)
    pairs = list(combinations(range(1, n + 1), 2))
    probs = [rho * w.values[blocks[a - 1]][blocks[b - 1]] for a, b in pairs]
    mean = 0.0
    mean2 = 0.0
    for pattern in product((0, 1), repeat=len(pairs)):
        pp = 1.0
        for bit, p in zip(pattern, probs):
            pp *= p if bit else (1.0 - p)
        if pp == 0.0:
            continue
        edges = [e for bit, e in zip(pattern, pairs) if bit]
        x = count_embeddings(n, edges, m)
        mean += pp * x
        mean2 += pp * x * x
    return mean2 - mean * mean


def naive_hom_density(m: Motif, w: StepGraphon) -> float:
    """Block-assignment sum written as a plain loop."""
    total = 0.0
    for beta in product(range(w.block_count), repeat=m.vertex_count):
        term = 1.0
        for b in beta:
            term *= w.pi[b]
        for a, b in m.edges:
            term *= w.values[beta[a - 1]][beta[b - 1]]
        total += term
    return total


def reference_occupancy_polynomial(m: Motif, w: StepGraphon) -> tuple:
    """Occupancy coefficients of the conditional mean by a plain loop over
    block assignments in ``product`` order, each edge value product built
    from 1.0 in ``sorted_edges`` order: the bits that
    ``counting._occupancy_polynomial`` must reproduce."""
    K = w.block_count
    coeff = {}
    for beta in product(range(K), repeat=m.vertex_count):
        weight = 1.0
        for a, b in m.sorted_edges():
            weight *= w.values[beta[a - 1]][beta[b - 1]]
        counts = [0] * K
        for b in beta:
            counts[b] += 1
        key = tuple(counts)
        coeff[key] = coeff.get(key, 0.0) + weight
    return tuple(sorted(coeff.items()))


def connected_classes_up_to(max_vertices: int):
    """One canonical representative per connected isomorphism class."""
    from graphon_motifs import canonical_relabel

    seen = {}
    for k in range(2, max_vertices + 1):
        for g in all_graphs_on(k):
            if g.edge_count < k - 1 or not g.is_connected():
                continue
            key = canonical_key(g)
            if key not in seen:
                seen[key] = canonical_relabel(g)
    return list(seen.values())


def bernoulli_positions(rng, n_slots: int, p: float) -> np.ndarray:
    """Success indices of an iid Bernoulli(p) stream of length n_slots:
    one stratum of the edge layer's int64 gap reader
    (``sampler._read_positions``) drawn on its own, with the positions
    formed from its steps if it keeps them (``sampler._stratum_positions``)."""
    if n_slots <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_slots, dtype=np.int64)
    size = sampler._batch_size(n_slots + 1, p)
    return sampler._stratum_positions(sampler._read_positions(
        rng, sampler._log_uniforms(rng, size), 0, n_slots, p, math.log1p(-p),
        float(n_slots) + 1.0, size)[0])


def reference_bernoulli_positions(rng, n_slots: int, p: float) -> np.ndarray:
    """The geometric-gap kernel with a fresh array at every step and the
    end found by a mask: what ``bernoulli_positions`` computes in
    place, from the same batches of uniforms (``sampler._batch_size`` is
    looked up on each call, so a test that patches it patches both)."""
    if n_slots <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_slots, dtype=np.int64)
    log_q = math.log1p(-p)
    chunks = []
    last = -1
    while True:
        u = rng.random(sampler._batch_size(n_slots - last, p))
        gaps = np.log1p(-u) / log_q
        np.minimum(gaps, float(n_slots) + 1.0, out=gaps)
        pos = last + np.cumsum(gaps.astype(np.int64) + 1)
        over = pos >= n_slots
        if over.any():
            chunks.append(pos[: int(np.argmax(over))])
            break
        chunks.append(pos)
        last = int(pos[-1])
    return chunks[0] if len(chunks) == 1 else np.concatenate(chunks)


def reference_edge_layer_scalar(w: StepGraphon, blocks, rho: float,
                                rng) -> tuple:
    """The scalar edge layer drawn stratum by stratum: one ``rng.random``
    call and one ``log1p`` per batch, each stratum's batches drawn before
    the next stratum's.  Returns (position list of each stratum, total):
    ``sampler._edge_layer``, which draws every first batch in one call,
    must consume the same uniforms and give the same positions."""
    K = w.block_count
    verts = [[] for _ in range(K)]
    for v, b in enumerate(np.asarray(blocks).tolist(), 1):
        verts[b].append(v)
    strata = []
    total = 0
    for b, c in [(b, b) for b in range(K)] + list(combinations(range(K), 2)):
        vb, vc = verts[b], verts[c]
        nb = len(vb)
        slots = nb * (nb - 1) // 2 if b == c else nb * len(vc)
        pos = _reference_positions_scalar(rng, slots, rho * w.values[b][c])
        strata.append(pos)
        total += len(pos)
    return strata, total


def _reference_positions_scalar(rng, n_slots: int, p: float) -> list:
    """One stratum's Bernoulli positions as a list, from batches of
    ``sampler._batch_size`` uniforms drawn one call each."""
    if n_slots <= 0 or p <= 0.0:
        return []
    if p >= 1.0:
        return list(range(n_slots))
    log_q = math.log1p(-p)
    cap = float(n_slots) + 1.0
    out = []
    pos = -1
    while True:
        u = rng.random(sampler._batch_size(n_slots - pos, p))
        for x in np.log1p(-u).tolist():
            pos += int(min(x / log_q, cap)) + 1
            if pos >= n_slots:
                return out
            out.append(pos)


def enumerated_pair_keys(strata, blocks, K: int) -> np.ndarray:
    """Label keys lo*(n+1)+hi of a draw over ``blocks``, in stratum order
    and in each stratum in slot order: slot t of stratum (b, c) is the
    t-th pair of ``combinations(vb, 2)`` when b == c, or of
    ``product(vb, vc)`` otherwise, with each block's vertices vb in label
    order.  ``strata`` holds each stratum's ascending positions."""
    stride = len(blocks) + 1
    verts = [[] for _ in range(K)]
    for v, b in enumerate(np.asarray(blocks).tolist(), 1):
        verts[b].append(v)
    keys = []
    for (b, c), positions in zip(
            [(b, b) for b in range(K)] + list(combinations(range(K), 2)),
            strata):
        pairs = (combinations(verts[b], 2) if b == c
                 else product(verts[b], verts[c]))
        chosen = set(positions)
        keys.extend(min(x, y) * stride + max(x, y)
                    for t, (x, y) in enumerate(pairs) if t in chosen)
    return np.array(keys, dtype=np.int64)


def both_bit_rows_triangle_count(n: int, keys) -> int:
    """Triangles of the pair keys ``lo * (n + 1) + hi`` from full neighbour
    bit rows: both bits of every edge set, the popcounts of each edge's
    rows' AND summed over all edges at once, and each triangle, found on
    all three of its edges, counted three times."""
    keys = np.asarray(keys, dtype=np.int64)
    lo, hi = keys // (n + 1), keys % (n + 1)
    table = np.zeros((n + 1, -(-(n + 1) // 64) * 64), dtype=bool)
    table[lo, hi] = True
    table[hi, lo] = True
    rows = np.packbits(table, axis=1, bitorder="little").view(np.uint64)
    total = int(np.bitwise_count(rows[lo] & rows[hi]).sum())
    assert total % 3 == 0
    return total // 3


# ---------------------------------------------------------------------------
# test-only analytics, kept unchanged as the oracles their tests use


def is_isomorphic(m1: Motif, m2: Motif) -> bool:
    return canonical_key(m1) == canonical_key(m2)


def rooted_density(m: Motif, a: int, block: int, w: StepGraphon) -> float:
    """Density of the motif with vertex ``a`` pinned to a block (0-based)."""
    return multipoint_density(m, {a: block}, w)


def mean_rooted_density(m: Motif, block: int, w: StepGraphon) -> float:
    """Average of the rooted density over all root choices."""
    k = m.vertex_count
    return sum(rooted_density(m, a, block, w) for a in range(1, k + 1)) / k


def critical_edge_variance_share_closed_form(m: Motif, w: StepGraphon,
                                             c: float) -> float:
    """Closed form for the critical share, valid only for motifs whose m1
    maximum is attained by the motif alone (strictly strongly balanced)."""
    _check_pinned_c(c)
    if not density_exponents(m).strictly_strongly_balanced:
        raise ValueError("closed form requires a strictly strongly balanced motif")
    if is_motif_regular(m, w):
        raise ValueError("critical constant undefined in regular case")
    xi = projection_variance(m, w)
    k = m.vertex_count
    t = hom_density(m, w)
    aut = automorphism_count(m)
    lead = t / aut
    tail = c ** (k - 1) * xi / (math.factorial(k - 1) ** 2)
    return lead / (lead + tail)


def label_ustatistic(latents, m: Motif, w: StepGraphon) -> float:
    """Average of the centered copy kernel over all label subsets.

    The label component of the decomposition equals
    C(n, |V|) * rho^{|E|} times this value.
    """
    n = np.asarray(latents).size
    k = m.vertex_count
    if n < k:
        raise ValueError(f"need at least {k} latents")
    cond1 = conditional_expected_count(latents, m, w, 1.0)
    exp1 = expected_count(m, w, n, 1.0)
    return (cond1 - exp1) / math.comb(n, k)


def variance_and_se(a) -> tuple:
    """Unbiased sample variance with its moment-based standard error."""
    x = np.asarray(a, dtype=np.float64)
    n = x.size
    v = float(np.var(x, ddof=1))
    d = x - x.mean()
    m4 = float(np.mean(d ** 4))
    inner = m4 - v * v * (n - 3) / (n - 1)
    return v, math.sqrt(max(inner, 0.0) / n)
