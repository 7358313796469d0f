import gc
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_motifs import (
    ExperimentConfig,
    Motif,
    SparsitySchedule,
    automorphism_count,
    canonical_relabel,
    copies_in_complete,
    count,
    count_embeddings,
    density_exponents,
    named_graphon,
    named_motif,
    run_experiment,
    sample,
)
from graphon_motifs import motif
from graphon_motifs.motif import EXPANSION_CHUNK, canonical_key, csr_from_keys
from util import (
    all_graphs_on,
    all_subgraph_ratios,
    brute_automorphisms,
    brute_isomorphic,
    copies_on_labels,
    four_cycle_oracle,
    is_isomorphic,
    join_catalog,
    random_motif,
    subset_count_oracle,
)

K2 = named_motif("edge")
P3 = named_motif("path3")
K3 = named_motif("triangle")


def test_motif_validation():
    with pytest.raises(ValueError):
        Motif(3, [(1, 1)])
    with pytest.raises(ValueError):
        Motif(3, [(1, 4)])
    m = Motif(3, [(2, 1), (1, 2), (3, 1)])
    assert m.edges == frozenset({(1, 2), (1, 3)})


@pytest.mark.parametrize("doc,message", [
    ({"vertices": 3.9, "edges": [[1, 2], [2, 3], [1, 3]]},
     "motif vertex count 3.9 is not an integer"),
    ({"vertices": True, "edges": []}, "motif vertex count True is not"),
    ({"vertices": "3", "edges": []}, "motif vertex count '3' is not"),
    ({"vertices": 3, "edges": [[1, 2.0]]},
     "motif edge endpoint 2.0 is not an integer"),
    ({"vertices": 3, "edges": [[True, 2]]},
     "motif edge endpoint True is not an integer"),
    ({"vertices": 3, "edges": ["12"]},
     "motif edge endpoint '1' is not an integer"),
], ids=["float_count", "bool_count", "str_count", "float_end", "bool_end",
        "str_edge"])
def test_motif_json_needs_integers(doc, message):
    with pytest.raises(ValueError, match=message):
        Motif.from_json_dict(doc)


def test_motif_json_accepts_numpy_integers():
    m = Motif.from_json_dict({"vertices": np.int64(3),
                              "edges": [[np.int32(1), np.uint8(2)], [2, 3]]})
    assert m == Motif(3, [(1, 2), (2, 3)])
    assert type(m.vertex_count) is int
    assert all(type(v) is int for e in m.edges for v in e)


def test_canonical_relabelings_of_triangle_match():
    for edges in [[(1, 2), (2, 3), (1, 3)], [(3, 2), (1, 3), (2, 1)]]:
        assert canonical_key(Motif(3, edges)) == canonical_key(K3)


def test_canonical_distinguishes_triangle_from_path():
    assert canonical_key(K3) != canonical_key(P3)


def test_canonical_4_vertex_classes_exhaustive():
    # 11 isomorphism classes of simple graphs on 4 vertices; the canonical
    # key must agree with permutation-based isomorphism on every pair
    graphs = list(all_graphs_on(4))
    forms = [canonical_key(g) for g in graphs]
    assert len(set(forms)) == 11
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert (forms[i] == forms[j]) == brute_isomorphic(graphs[i], graphs[j])


def test_canonical_random_relabelings():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        m = random_motif(rng, max_vertices=6, require_edge=False)
        perm = rng.permutation(m.vertex_count) + 1
        relabeled = m.relabel({v: int(perm[v - 1])
                               for v in range(1, m.vertex_count + 1)})
        assert canonical_key(m) == canonical_key(relabeled)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 10 - 1), st.permutations(list(range(1, 6))))
def test_canonical_invariance_property(bits, perm):
    pairs = list(combinations(range(1, 6), 2))
    m = Motif(5, [e for i, e in enumerate(pairs) if bits >> i & 1])
    relabeled = m.relabel({v: perm[v - 1] for v in range(1, 6)})
    assert canonical_key(m) == canonical_key(relabeled)


@pytest.mark.parametrize("m,expected", [
    (K3, 6),
    (P3, 2),
    (named_motif("triangle_pendant"), 2),
    (named_motif("c4"), 8),
    (named_motif("k4"), 24),
    (named_motif("c5"), 10),
])
def test_automorphism_fixtures(m, expected):
    assert automorphism_count(m) == expected
    assert brute_automorphisms(m) == expected


def test_automorphisms_against_brute_force():
    rng = np.random.default_rng(5)
    import math
    for _ in range(60):
        m = random_motif(rng, max_vertices=6, require_edge=False)
        aut = automorphism_count(m)
        assert aut == brute_automorphisms(m)
        assert math.factorial(m.vertex_count) % aut == 0


@pytest.mark.parametrize("m,n,expected", [
    (K3, 5, 10),
    (K2, 4, 6),
    (P3, 4, 12),
    (K3, 2, 0),
])
def test_copies_in_complete_fixtures(m, n, expected):
    assert copies_in_complete(m, n) == expected


def test_copies_in_complete_matches_embedding_counter():
    motifs = [g for g in all_graphs_on(4)] + [K2, P3, K3]
    for n in range(1, 9):
        kn = [(a, b) for a, b in combinations(range(1, n + 1), 2)]
        for m in motifs:
            assert copies_in_complete(m, n) == count_embeddings(n, kn, m)


# ---------------------------------------------------------------------------
# density exponents


def test_density_triangle():
    prof = density_exponents(K3)
    assert prof.m == 1 and prof.m1 == Fraction(3, 2)
    assert prof.strictly_balanced and prof.strictly_strongly_balanced
    assert len(prof.m1_maximizers) == 1
    assert is_isomorphic(prof.m1_maximizers[0], K3)


def test_density_fig1b():
    prof = density_exponents(named_motif("fig1b"))
    assert prof.m == Fraction(5, 4)
    assert not prof.balanced


def test_density_triangle_pendant():
    prof = density_exponents(named_motif("triangle_pendant"))
    assert prof.m == 1
    assert prof.balanced and not prof.strictly_balanced
    assert prof.m1 == Fraction(3, 2)
    assert not prof.strongly_balanced
    assert len(prof.m1_maximizers) == 1
    assert is_isomorphic(prof.m1_maximizers[0], K3)


def test_density_fig2a():
    prof = density_exponents(named_motif("fig2a"))
    assert prof.strictly_balanced
    assert not prof.strongly_balanced
    assert prof.m1 == Fraction(3, 2)


def test_density_edgeless_rejected():
    with pytest.raises(ValueError):
        density_exponents(Motif(3, []))


def test_density_size_cap():
    big = Motif(13, [(1, 2)])
    with pytest.raises(ValueError):
        density_exponents(big)


def test_density_against_all_subgraphs_oracle():
    # induced-only enumeration must agree with the maximum over every
    # subgraph, induced or not
    rng = np.random.default_rng(77)
    for _ in range(40):
        m = random_motif(rng, max_vertices=5)
        prof = density_exponents(m)
        ratios = all_subgraph_ratios(m)
        want_m = max(Fraction(e, v) for e, v in ratios)
        want_m1 = max(Fraction(e, v - 1) for e, v in ratios if v >= 2)
        assert prof.m == want_m
        assert prof.m1 == want_m1


def test_proposition_order_and_implication_small():
    from util import connected_classes_up_to
    for m in connected_classes_up_to(5):
        prof = density_exponents(m)
        assert prof.m < prof.m1
        if prof.strongly_balanced:
            assert prof.strictly_balanced


# ---------------------------------------------------------------------------
# the join catalog oracle of tests/util.py, against pair enumeration


def brute_join_catalog(m: Motif, f: Motif):
    """Direct enumeration of *ordered pairs* of copies on the union labels."""
    s = 2 * m.vertex_count - f.vertex_count
    labels = range(1, s + 1)
    copies = []
    for subset in combinations(labels, m.vertex_count):
        for eset in copies_on_labels(m, subset):
            copies.append((frozenset(subset), eset))
    catalog = {}
    for vs, es in copies:
        for vt, et in copies:
            shared = vs & vt
            inter_pos = {v: i + 1 for i, v in enumerate(sorted(shared))}
            inter = Motif(len(shared) or 1,
                          [(inter_pos[a], inter_pos[b]) for a, b in es & et])
            if len(shared) != f.vertex_count or not brute_isomorphic(inter, f):
                continue
            union_pos = {v: i + 1 for i, v in enumerate(sorted(vs | vt))}
            union = Motif(len(vs | vt),
                          [(union_pos[a], union_pos[b]) for a, b in es | et])
            catalog[canonical_key(union)] = catalog.get(
                canonical_key(union), 0) + 1
    return catalog


@pytest.mark.parametrize("m,f", [
    (K2, K2),
    (K3, K3),
    (K3, K2),
    (P3, K2),
    (P3, P3),
    (named_motif("c4"), K2),
])
def test_join_catalog_against_pair_enumeration(m, f):
    brute = brute_join_catalog(m, f)
    got = {canonical_key(rep): mult for rep, mult in join_catalog(m, f)}
    assert got == brute


def test_join_catalog_fixtures():
    (rep, mult), = join_catalog(K2, K2)
    assert is_isomorphic(rep, K2) and mult == 1

    (rep, mult), = join_catalog(K3, K3)
    assert is_isomorphic(rep, K3) and mult == 1


def test_join_catalog_union_sizes():
    rng = np.random.default_rng(31)
    for _ in range(15):
        m = random_motif(rng, max_vertices=5)
        prof = density_exponents(m)
        for f in prof.m1_maximizers:
            for rep, mult in join_catalog(m, f):
                assert rep.vertex_count == 2 * m.vertex_count - f.vertex_count
                assert rep.edge_count == 2 * m.edge_count - f.edge_count
                assert mult >= 1


def test_join_catalog_requires_edge():
    with pytest.raises(ValueError):
        join_catalog(K2, Motif(1, []))


def test_join_catalog_requires_embedding():
    with pytest.raises(ValueError):
        join_catalog(P3, K3)


# ---------------------------------------------------------------------------
# embedding counts


def _assert_csr_of(n, pairs, csr):
    """``csr`` against neighbor lists and row ids built pair by pair."""
    nbrs = [[] for _ in range(n + 1)]
    for a, b in pairs:
        nbrs[a].append(b)
        nbrs[b].append(a)
    indptr, indices, rows = csr
    assert indptr.tolist() == [0] + np.cumsum(
        [len(x) for x in nbrs]).tolist()
    assert indices.tolist() == [v for x in nbrs for v in sorted(x)]
    assert rows.tolist() == [v for v in range(n + 1) for _ in nbrs[v]]
    assert indptr.dtype == indices.dtype == rows.dtype == np.int64


@st.composite
def _key_sets(draw):
    """(n, distinct pairs a < b, their keys in a shuffled order)."""
    n = draw(st.integers(1, 14))
    pairs = list(combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, 2 ** len(pairs) - 1))
    chosen = [p for i, p in enumerate(pairs) if mask >> i & 1]
    chosen = draw(st.permutations(chosen))
    keys = np.array([a * (n + 1) + b for a, b in chosen], dtype=np.int64)
    return n, chosen, keys


@settings(max_examples=200, deadline=None)
@given(_key_sets())
def test_csr_from_keys_matches_neighbor_lists(case):
    n, pairs, keys = case
    _assert_csr_of(n, pairs, csr_from_keys(n, keys))


@pytest.mark.parametrize("n,pairs", [
    (5, []),
    (1, []),
    (6, [(1, 2), (2, 5), (1, 5), (3, 4)]),  # vertex n = 6 isolated
    (7, [(1, v) for v in range(7, 1, -1)]),  # star at vertex 1
    (7, [(v, 7) for v in range(1, 7)]),  # star at vertex n
], ids=["m0", "n1", "isolated_n", "star_first", "star_last"])
def test_csr_from_keys_edge_cases(n, pairs):
    keys = np.array([a * (n + 1) + b for a, b in pairs], dtype=np.int64)
    _assert_csr_of(n, pairs, csr_from_keys(n, keys))


@settings(max_examples=60, deadline=None)
@given(_key_sets(), st.data())
def test_count_embeddings_collapses_reversed_and_repeated_pairs(case, data):
    n, pairs, _ = case
    noisy = [(b, a) if data.draw(st.booleans()) else (a, b)
             for a, b in pairs]
    noisy += data.draw(st.lists(st.sampled_from(noisy), max_size=8)
                       if noisy else st.just([]))
    noisy = data.draw(st.permutations(noisy))
    for m in (K2, P3, K3, named_motif("c4")):
        assert count_embeddings(n, noisy, m) == count_embeddings(n, pairs, m)


def test_count_embeddings_fixtures():
    k4 = [(a, b) for a, b in combinations(range(1, 5), 2)]
    assert count_embeddings(4, k4, K3) == 4
    c5 = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    assert count_embeddings(5, c5, K3) == 0
    assert count_embeddings(3, [], K2) == 0


def test_count_embeddings_across_expansion_chunks():
    # K_16: the last level expands 16 * 15 * 14 partial images by 15
    # neighbors each, several times the chunk cap
    assert 16 * 15 * 14 * 15 > 4 * EXPANSION_CHUNK
    k16 = list(combinations(range(1, 17), 2))
    for m in (named_motif("c4"), named_motif("k4")):
        assert count_embeddings(16, k16, m) == copies_in_complete(m, 16)


@pytest.mark.parametrize("counts", [
    [], [0, 0], [1], [0, 3, 0, 2, 0], [8], [0, 5, 3, 0], [9], [4, 0, 5],
    [0, 7, 0, 0, 13, 1, 0, 6, 0]])
def test_expansion_windows_enumerate_every_offset_in_row_order(
        monkeypatch, counts):
    # totals of 0, 1, 5, the chunk (one window) and above it (several)
    monkeypatch.setattr(motif, "EXPANSION_CHUNK", 8)
    counts = np.array(counts, dtype=np.int64)
    windows = list(motif.expansion_windows(counts))
    assert all(0 < row.size <= 8 for row, _ in windows)
    assert len(windows) == -(-int(counts.sum()) // 8)
    rows = [(r, o) for r, c in enumerate(counts.tolist()) for o in range(c)]
    got = [(int(r), int(o)) for row, off in windows
           for r, o in zip(row, off)]
    assert got == rows


def test_count_embeddings_against_subset_oracle():
    rng = np.random.default_rng(404)
    motifs = list(all_graphs_on(4)) + list(all_graphs_on(3)) + [K2]
    for _ in range(30):
        n = int(rng.integers(4, 11))
        pairs = list(combinations(range(1, n + 1), 2))
        edges = [e for e in pairs if rng.random() < 0.4]
        for m in motifs:
            assert count_embeddings(n, edges, m) == subset_count_oracle(n, edges, m)


def _dense_adjacency(g):
    a = np.zeros((g.n, g.n), dtype=np.int64)
    a[g.edges[:, 0] - 1, g.edges[:, 1] - 1] = 1
    return a + a.T


@pytest.mark.parametrize("graphon", ["W_sym", "W_asym"])
def test_count_embeddings_against_degree_identities(graphon):
    # path3 and the 3-star from degrees, c4 from the codegrees of the dense
    # adjacency matrix, through the generic counter and count's fast path
    n = 150
    g = sample(named_graphon(graphon), n, 2 / math.sqrt(n), 31)
    deg = _dense_adjacency(g).sum(axis=1)
    star3 = Motif(4, [(1, 2), (1, 3), (1, 4)])
    c4 = named_motif("c4")
    want = {P3: sum(math.comb(int(d), 2) for d in deg),
            star3: sum(math.comb(int(d), 3) for d in deg),
            c4: four_cycle_oracle(n, g.edges)}
    assert want[c4] > 0
    for m, expect in want.items():
        assert count_embeddings(n, g.adjacency(), m) == expect
    assert count(g, c4) == want[c4]


def test_count_embeddings_five_vertex_classes_against_subset_oracle():
    connected = [m for m in {canonical_key(m): m
                             for m in all_graphs_on(5)}.values()
                 if m.is_connected()]
    assert len(connected) == 21
    rng = np.random.default_rng(505)
    for n, p in ((5, 0.9), (7, 0.6), (9, 0.5), (9, 0.8)):
        pairs = list(combinations(range(1, n + 1), 2))
        edges = [e for e in pairs if rng.random() < p]
        for m in connected:
            assert count_embeddings(n, edges, m) == subset_count_oracle(n, edges, m)


def test_count_embeddings_leaves_no_reference_cycle():
    # a cycle would keep the pair and codegree tables alive until the
    # cyclic collector runs
    g = sample(named_graphon("W_sym"), 150, 150 ** -0.5, 3)
    cfg = ExperimentConfig("clt", named_motif("c4"), named_graphon("W_sym"),
                           SparsitySchedule(1.0, 0.5), (150,), 60, 5)
    gc.collect()
    gc.disable()
    try:
        assert count_embeddings(150, g.adjacency(), named_motif("c4")) > 0
        assert gc.collect() == 0
        run_experiment(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_canonical_relabel_is_isomorphic():
    rng = np.random.default_rng(9)
    for _ in range(30):
        m = random_motif(rng, max_vertices=6)
        rep = canonical_relabel(m)
        assert brute_isomorphic(m, rep)
        assert canonical_key(rep) == canonical_key(m)
