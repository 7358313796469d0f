import math
import tracemalloc
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphon_motifs import (
    Motif,
    SampledGraph,
    StepGraphon,
    conditional_expected_count,
    conditional_variance,
    copies_in_complete,
    count,
    count_embeddings,
    decompose,
    exact_variance,
    expected_count,
    mean_variance_orders,
    named_graphon,
    named_motif,
    sample,
)
from graphon_motifs import counting, motif, sampler
from graphon_motifs.counting import four_cycle_count, triangle_count
from graphon_motifs.motif import canonical_key
from graphon_motifs.sampler import replicate_seed, resample_edges
from util import (
    all_graphs_on,
    both_bit_rows_triangle_count,
    four_cycle_oracle,
    label_ustatistic,
    random_graphon,
    random_motif,
    reference_occupancy_polynomial,
    subset_count_oracle,
    total_enumeration_conditional_variance,
    total_enumeration_variance,
    variance_and_se,
)

K2 = named_motif("edge")
P3 = named_motif("path3")
K3 = named_motif("triangle")
C4 = named_motif("c4")
W_ASYM = named_graphon("W_asym")
W_SYM = named_graphon("W_sym")


def test_count_complete_host():
    g = sample(StepGraphon.constant(1.0), 5, 1.0, 1)
    assert count(g, K3) == 10
    assert count(g, K2) == 10
    assert count(g, P3) == 30


def test_count_empty_graph():
    g = sample(StepGraphon.constant(1e-9), 8, 1e-6, 3)
    assert g.edge_count == 0
    assert count(g, K3) == 0


@pytest.mark.parametrize("n", [6, 200, 2000])
def test_edge_count_does_not_decode(monkeypatch, n):
    def refuse(*args):
        raise AssertionError("decoded")

    rho = 2 / math.sqrt(n)
    g = sample(W_ASYM, n, rho, replicate_seed(9, n, 0))
    h = resample_edges(W_ASYM, g.latents, rho, replicate_seed(9, n, 1))
    monkeypatch.setattr(sampler, "_decode_edges", refuse)
    got = [count(g, K2), count(h, K2)]
    with pytest.raises(AssertionError, match="decoded"):
        g.edges
    monkeypatch.undo()
    assert got == [g.edges.shape[0], h.edges.shape[0]]


def test_edge_count_at_scale_never_forms_positions(monkeypatch):
    # at n = 2000 every stratum keeps its gap steps; the count reads the
    # drawn total, so the positions are never formed
    def refuse(*args):
        raise AssertionError("formed")

    n = 2000
    rho = 2 / math.sqrt(n)
    g = sample(W_ASYM, n, rho, replicate_seed(9, n, 0))
    h = resample_edges(W_ASYM, g.latents, rho, replicate_seed(9, n, 1))
    for graph in (g, h):
        assert all(type(s) is sampler._Steps for s in graph._strata)
    monkeypatch.setattr(sampler, "_stratum_positions", refuse)
    got = [count(g, K2), count(h, K2)]
    with pytest.raises(AssertionError, match="formed"):
        g.pair_keys()
    monkeypatch.undo()
    assert got == [g.edges.shape[0], h.edges.shape[0]]


def test_count_matches_subset_oracle_on_random_graphs():
    rng = np.random.default_rng(60)
    motifs = [K2, P3, K3, named_motif("c4"), named_motif("k4"),
              named_motif("triangle_pendant"), Motif(4, [(1, 2), (3, 4)])]
    for i in range(25):
        n = int(rng.integers(5, 11))
        g = sample(W_ASYM, n, float(rng.uniform(0.3, 0.9)),
                   replicate_seed(8, n, i))
        for m in motifs:
            assert count(g, m) == subset_count_oracle(n, g.edge_list(), m)


# the default pair-table bound, and 0: every host above it, so triangles
# take the CSR forward path
BOTH_TRIANGLE_PATHS = pytest.mark.parametrize("cells", [None, 0],
                                              ids=["bit_rows", "forward"])


@BOTH_TRIANGLE_PATHS
def test_fast_paths_agree_with_generic_counter(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", cells)
    rng = np.random.default_rng(61)
    for i in range(200):
        n = int(rng.integers(4, 30))
        g = sample(W_ASYM, n, float(rng.uniform(0.05, 0.6)),
                   replicate_seed(9, n, i))
        assert count(g, K2) == count_embeddings(n, g.edge_list(), K2)
        assert triangle_count(g) == count_embeddings(n, g.edge_list(), K3)
        assert four_cycle_count(g) == count_embeddings(n, g.edge_list(), C4)


# the edge and the triangle, then one motif per isomorphism class on 3 and
# 4 vertices, disconnected and isolated-vertex classes included: the three
# fast-path motifs (edge, triangle, c4) and the generic counter's
PROPERTY_MOTIFS = [K2, K3] + list({
    canonical_key(m): m for k in (3, 4) for m in all_graphs_on(k)}.values())
PAIRS_9 = list(combinations(range(1, 10), 2))


def _host(n, bits):
    return [e for i, e in enumerate(PAIRS_9) if bits >> i & 1
            and e[1] <= n]


def _graph(n, edges):
    """A graph on 1..n with the given edges, through the dump parser."""
    lines = [f"{a} {b}" for a, b in edges]
    return SampledGraph.from_dump("\n".join(
        [f"{n} 0.5 1", *lines, "latents", *["0.5"] * n]) + "\n")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** len(PAIRS_9) - 1))
@example(1, 0)
@example(3, 0)
@example(9, 0)
@example(9, 2 ** len(PAIRS_9) - 1)
def test_count_paths_agree_with_oracle(n, bits):
    edges = _host(n, bits)
    g = _graph(n, edges)
    for m in PROPERTY_MOTIFS:
        expect = subset_count_oracle(n, edges, m)
        assert count(g, m) == expect
        assert count_embeddings(n, edges, m) == expect


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 9), st.integers(0, 2 ** len(PAIRS_9) - 1),
       st.randoms(use_true_random=False))
def test_count_embeddings_ignores_edge_order_and_repeats(n, bits, rnd):
    edges = _host(n, bits)
    messy = [(b, a) if rnd.random() < 0.5 else (a, b)
             for a, b in edges + rnd.sample(edges, len(edges) // 2)]
    rnd.shuffle(messy)
    for m in PROPERTY_MOTIFS:
        assert count_embeddings(n, messy, m) == count_embeddings(n, edges, m)


@BOTH_TRIANGLE_PATHS
def test_triangle_count_across_expansion_chunks(monkeypatch, cells):
    # C(40, 3) = 9880 wedges close, more than two expansion chunks
    if cells is not None:
        monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", cells)
    g = sample(StepGraphon.constant(1.0), 40, 1.0, 5)
    assert triangle_count(g) == math.comb(40, 3)


def _random_edges(n, m, seed):
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m:
        a, b = rng.integers(1, n + 1, size=2).tolist()
        if a != b:
            pairs.add((min(a, b), max(a, b)))
    return sorted(pairs)


@pytest.mark.parametrize("n", [62, 63, 64, 65, 127, 128])
def test_triangle_count_at_word_boundaries(n):
    # bit rows of n + 1 bits in one or two 64-bit words; the edges touch
    # the last vertices, whose bits end a word or start the next
    edges = set(_random_edges(n, 4 * n, n))
    edges |= {(n - 2, n - 1), (n - 2, n), (n - 1, n), (1, n), (1, n - 1)}
    g = _graph(n, sorted(edges))
    want = count_embeddings(n, g.edge_list(), K3)
    assert want > 0
    assert triangle_count(g) == want


@pytest.mark.parametrize("n", [63, 64, 65])
def test_triangle_count_on_complete_graphs(n):
    # bit 63 of a word is set in every row: vertex 63, and n = 64's row 64
    g = _graph(n, _k(n))
    assert triangle_count(g) == math.comb(n, 3)
    assert count_embeddings(n, g.edge_list(), K3) == math.comb(n, 3)


@pytest.mark.parametrize("n", [1, 3, 64, 2047, 2048])
def test_triangle_count_on_empty_graphs(n):
    assert triangle_count(_graph(n, [])) == 0


@pytest.mark.parametrize("m", range(21))
def test_triangle_count_on_graphs_of_at_most_20_edges(m):
    # every edge count up to 20, on hosts of 3, 6 and 9 vertices
    for n in (3, 6, 9):
        if m <= n * (n - 1) // 2:
            g = _graph(n, _random_edges(n, m, 100 * n + m))
            assert triangle_count(g) == count_embeddings(n, g.edge_list(), K3)


@pytest.mark.parametrize("n", [2047, 2048])
def test_triangle_count_either_side_of_the_size_switch(n):
    # (2047 + 1)^2 cells is the pair-table bound: bit rows at 2047, the
    # CSR forward path at 2048
    assert (2047 + 1) ** 2 == motif.PAIR_TABLE_CELLS
    g = sample(W_ASYM, n, 3 / math.sqrt(n), replicate_seed(4, n, 0))
    want = count_embeddings(n, g.edge_list(), K3)
    assert want > 0
    assert triangle_count(g) == want


@pytest.mark.parametrize("a", [0.5, 1.0])
@pytest.mark.parametrize("n", [1023, 1024])
def test_four_cycle_count_either_side_of_the_row_block_switch(n, a):
    # a codegree table holds PAIR_TABLE_CELLS // 4 cells of n + 1 per row:
    # one full-range table at 1023, blocks of 1023 rows at 1024, the last
    # of them two rows
    step = motif.PAIR_TABLE_CELLS // 4 // (n + 1)
    assert step == {1023: 1024, 1024: 1023}[n]
    g = sample(W_ASYM, n, a / math.sqrt(n), replicate_seed(4, n, 0))
    want = count_embeddings(n, g.edge_list(), C4)
    assert want > 0
    assert four_cycle_count(g) == want


@pytest.mark.parametrize("w", [W_SYM, W_ASYM], ids=["W_sym", "W_asym"])
@pytest.mark.parametrize("n", [60, 150, 400])
def test_four_cycle_count_either_side_of_the_one_window_bound(monkeypatch,
                                                              w, n):
    # wedges that fit one EXPANSION_CHUNK window are sorted and their runs
    # counted; one wedge more and the codegree tables sum them
    g = sample(w, n, 1 / math.sqrt(n), replicate_seed(6, n, 0))
    want = count_embeddings(n, g.edge_list(), C4)
    assert want > 0
    deg = np.diff(g.adjacency().indptr)
    wedges = int(np.sum(deg * (deg - 1) // 2))
    tables = []

    def spy(*args):
        tables.append(args[2:])
        return motif._codegree_table(*args)

    monkeypatch.setattr(counting, "_codegree_table", spy)
    for chunk, tabled in ((wedges, False), (wedges - 1, True)):
        tables.clear()
        monkeypatch.setattr(motif, "EXPANSION_CHUNK", chunk)
        assert four_cycle_count(g) == want
        assert bool(tables) == tabled


def test_pair_lookup_table_and_sorted_keys_agree(monkeypatch):
    g = sample(W_ASYM, 60, 0.3, 8)
    n = g.n
    u, v = (a.ravel() for a in np.meshgrid(np.arange(1, n + 1),
                                           np.arange(1, n + 1)))
    want = np.zeros((n + 1, n + 1), dtype=bool)
    want[g.edges[:, 0], g.edges[:, 1]] = True
    want |= want.T
    table = motif.csr_pair_keys(n, g.adjacency())
    assert table.dtype == bool
    assert np.array_equal(motif.has_pair(table, n, u, v), want[u, v])
    monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", 0)
    keys = motif.csr_pair_keys(n, g.adjacency())
    assert keys.dtype == np.int64 and np.all(np.diff(keys) > 0)
    assert np.array_equal(motif.has_pair(keys, n, u, v), want[u, v])


def test_counts_with_sorted_pair_keys(monkeypatch):
    # hosts above the table cap search the sorted keys instead
    monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", 0)
    g = sample(StepGraphon.constant(1.0), 40, 1.0, 5)
    assert triangle_count(g) == math.comb(40, 3)
    k16 = list(combinations(range(1, 17), 2))
    c4 = named_motif("c4")
    assert count_embeddings(16, k16, c4) == copies_in_complete(c4, 16)


@pytest.mark.parametrize("cells", [0, 61 ** 2])
def test_counts_without_the_tables(monkeypatch, cells):
    # 0: no pair table and no codegree table; 61^2: a pair table but no
    # codegree table, so two-anchor last levels are enumerated
    g = sample(W_ASYM, 60, 0.3, 8)
    with_tables = [(count(g, m), count_embeddings(60, g.adjacency(), m))
                   for m in PROPERTY_MOTIFS]
    assert (60 + 1) ** 2 <= motif.PAIR_TABLE_CELLS // 4
    monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", cells)
    assert with_tables == [(count(g, m), count_embeddings(60, g.adjacency(), m))
                           for m in PROPERTY_MOTIFS]


def _k(n):
    return list(combinations(range(1, n + 1), 2))


@pytest.mark.parametrize("n,edges,cycles", [
    (1, [], 0),
    (8, [], 0),
    (2, [(1, 2)], 0),
    (3, _k(3), 0),
    (9, [(1, v) for v in range(2, 10)], 0),
    (12, [(v // 2, v) for v in range(2, 13)], 0),
    (9, [(u, v) for u in (1, 2) for v in range(3, 10)], math.comb(7, 2)),
    (4, [(1, 2), (2, 3), (3, 4), (1, 4)], 1),
    (9, _k(9), 3 * math.comb(9, 4)),
], ids=["k1", "empty", "k2", "k3", "star", "tree", "k2_7", "c4", "k9"])
def test_four_cycle_count_against_generic_counter_and_oracles(n, edges,
                                                              cycles):
    g = _graph(n, edges)
    assert four_cycle_count(g) == cycles
    assert count_embeddings(n, edges, C4) == cycles
    assert subset_count_oracle(n, edges, C4) == cycles
    assert four_cycle_oracle(n, edges) == cycles


@pytest.mark.parametrize("cells,chunk", [
    (None, 64), (0, None), (0, 2048), (0, 64), (4 * 3 * 61, 64),
    (4 * (5 * 61 + 30), 200)])
def test_four_cycle_count_across_blocks_and_windows(monkeypatch, cells,
                                                    chunk):
    # blocks of one row of lower endpoints (cells 0), of three, and of
    # five with a shorter last block; chunk is the wedges a window sums.
    # The graph's 2266 wedges fit one default window, so (0, None) sorts
    # them with no table; 2048 is below that total but above any one
    # row's wedges (115), so each one-row block is a single window
    g = sample(W_ASYM, 60, 0.3, 8)
    want = four_cycle_oracle(60, g.edges)
    assert want > 0
    assert count_embeddings(60, g.adjacency(), C4) == want
    if cells is not None:
        monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", cells)
    if chunk is not None:
        monkeypatch.setattr(motif, "EXPANSION_CHUNK", chunk)
    assert four_cycle_count(g) == want
    assert count(g, C4) == want


@pytest.mark.parametrize("step,chunk", [
    (1, None), (1, 64), (3, 64), (5, 200)])
def test_codegree_tables_across_row_ranges_join_to_the_full_table(
        monkeypatch, step, chunk):
    # the row ranges of the blocks above (one row, three, five with a
    # shorter last range), each table keyed (u - lo) * (n + 1) + v
    g = sample(W_ASYM, 60, 0.3, 8)
    n, csr = g.n, g.adjacency()
    adj = np.zeros((n + 1, n + 1), dtype=np.int64)
    adj[csr.rows, csr.indices] = 1
    full = motif._codegree_table(n, csr, 0, n + 1)
    assert np.array_equal(full.reshape(n + 1, n + 1), np.triu(adj @ adj, 1))
    if chunk is not None:
        monkeypatch.setattr(motif, "EXPANSION_CHUNK", chunk)
    parts = [motif._codegree_table(n, csr, lo, min(lo + step, n + 1))
             for lo in range(0, n + 1, step)]
    assert all(p.dtype == np.int32 for p in parts)
    assert np.array_equal(np.concatenate(parts), full)


def test_four_cycle_count_when_one_block_holds_every_edge(monkeypatch):
    # blocks of 20 lower endpoints, and every edge inside 20..39: the
    # second block holds every CSR entry
    edges = [(u, v) for u, v in combinations(range(20, 40), 2) if (u + v) % 3]
    g = _graph(60, edges)
    want = four_cycle_oracle(60, edges)
    assert want > 0
    monkeypatch.setattr(motif, "PAIR_TABLE_CELLS", 4 * 20 * 61)
    assert four_cycle_count(g) == want


def test_only_four_cycles_bypass_the_generic_counter(monkeypatch):
    def refuse(*args):
        raise AssertionError("generic counter")

    g = sample(W_SYM, 40, 0.4, 3)
    want = four_cycle_oracle(40, g.edges)
    assert want > 0
    others = [named_motif("triangle_pendant"), named_motif("k4"),
              Motif(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)]),
              Motif(4, [(1, 2), (2, 3), (3, 4)]),
              Motif(4, [(1, 2), (1, 3), (1, 4)])]
    monkeypatch.setattr(counting, "count_embeddings", refuse)
    relabelled = {m.edges: m for m in (
        C4.relabel(dict(zip(range(1, 5), p)))
        for p in permutations(range(1, 5)))}
    assert len(relabelled) == 3
    for m in relabelled.values():
        assert count(g, m) == want
    for m in others:
        with pytest.raises(AssertionError, match="generic counter"):
            count(g, m)


def test_four_cycle_count_at_scale_in_bounded_memory():
    # one codegree block of PAIR_TABLE_CELLS // 4 int32 cells (4 MiB), a
    # boolean mask of it for the codegrees above one, and a few arrays of
    # one int64 per CSR entry; the table of all (n + 1)^2 pairs would take
    # 16 MB as int32
    n = 2000
    g = sample(W_ASYM, n, 2 / math.sqrt(n), replicate_seed(3, n, 0))
    csr = g.adjacency()
    cells = motif.PAIR_TABLE_CELLS // 4
    bound = 4 * cells + cells + 4 * 8 * csr.indices.size
    assert bound < 4 * (n + 1) ** 2
    tracemalloc.start()
    try:
        got = four_cycle_count(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert got == count_embeddings(n, csr, C4)


@st.composite
def _drawn_graphs(draw):
    """(n, latents, graphon, rho, seed, prefix block) of a graph to redraw:
    K in 1..4 blocks, some of them left empty, n either side of the small
    graph and the row-table cache bounds, a mean degree of 1 to 20, and a
    PREFIX_BLOCK of 1, 16 or the default, so that strata keep their steps
    at every n."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    K = draw(st.integers(1, 4))
    w = (StepGraphon.constant(float(rng.uniform(0.05, 0.95))) if K == 1
         else random_graphon(rng, K))
    occupied = draw(st.lists(st.booleans(), min_size=K, max_size=K)
                    .filter(any))
    n = draw(st.sampled_from([12, sampler.SMALL_GRAPH_VERTICES,
                              sampler.SMALL_GRAPH_VERTICES + 1, 150,
                              sampler.ROW_TABLE_CACHE_VERTICES,
                              sampler.ROW_TABLE_CACHE_VERTICES + 1]))
    blocks = rng.choice(np.flatnonzero(occupied), size=n)
    left = np.cumsum((0.0,) + w.pi)[blocks]
    latents = left + rng.uniform(0.01, 0.99, size=n) * np.array(w.pi)[blocks]
    rho = min(1.0, draw(st.floats(1.0, 20.0)) / n)
    prefix = draw(st.sampled_from([1, 16, sampler.PREFIX_BLOCK]))
    return n, latents, w, rho, draw(st.integers(0, 2 ** 32 - 1)), prefix


@settings(max_examples=100, deadline=None)
@given(_drawn_graphs())
# one block of W_asym left empty, every stratum kept as steps; then a graph
# above the cache bound whose strata keep their steps at the default bound
@example(drawn=(40, np.linspace(0.01, 0.49, 40), W_ASYM, 0.3, 7, 1))
@example(drawn=(sampler.ROW_TABLE_CACHE_VERTICES + 1,
                np.linspace(0.0, 0.99, sampler.ROW_TABLE_CACHE_VERTICES + 1),
                W_SYM, 0.02, 8, sampler.PREFIX_BLOCK))
def test_draw_order_triangle_count_matches_the_generic_counters(drawn):
    n, latents, w, rho, seed, prefix = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "PREFIX_BLOCK", prefix)
        g = resample_edges(w, latents, rho, seed)
    got = triangle_count(g)
    if g.edge_count >= 3:
        # the count decoded the draw order alone, and no label keys
        assert g._drawn is not None and g._keys is None
    csr = g.adjacency()
    assert got == count_embeddings(n, csr, K3)
    assert got == counting._forward_triangle_count(n, csr)


@pytest.mark.parametrize("n", [2, 3, 62, 63, 64, 127, 128, 2046])
def test_upper_bit_rows_match_the_generic_counters(n):
    # row widths of 64, 64, 128, 128, 192 and 2048 bits; at n = 63 and 127
    # a dump graph's label n is the last bit of its row, and at n = 2046
    # the drawn graph has more than EXPANSION_CHUNK edges
    edges = set(_random_edges(n, min(4 * n, n * (n - 1) // 2), n))
    if n > 2:
        edges |= {(n - 2, n - 1), (n - 2, n), (n - 1, n), (1, n)}
    graphs = [_graph(n, []), _graph(n, sorted(edges)),
              sample(W_ASYM, n, min(1.0, 3 / math.sqrt(n)),
                     replicate_seed(30, n, 0))]
    if n <= 128:
        graphs.append(sample(StepGraphon.constant(1.0), n, 1.0, n))
        assert graphs[-1].edge_count == n * (n - 1) // 2
    if n == 2046:
        assert graphs[-1].edge_count > 3 * motif.EXPANSION_CHUNK
    for g in graphs:
        got = triangle_count(g)
        csr = g.adjacency()
        assert got == count_embeddings(n, csr, K3)
        assert got == counting._forward_triangle_count(n, csr)
        assert got == both_bit_rows_triangle_count(n, g.drawn_keys())
    if n <= 128:
        assert triangle_count(graphs[-1]) == math.comb(n, 3)


def test_upper_bit_rows_match_both_bit_rows_on_conditional_draws():
    # the conditional CLT campaign's shape: 300 edge draws of W_sym at
    # n = 200, rho = n^-1/2, on one frozen latent draw
    n = 200
    lat = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(2024))).random(n)
    total = 0
    for r in range(300):
        g = resample_edges(W_SYM, lat, n ** -0.5, replicate_seed(2024, n, r))
        got = triangle_count(g)
        assert got == both_bit_rows_triangle_count(n, g.drawn_keys())
        total += got
    assert total > 300


def test_triangle_count_at_scale_in_bounded_memory():
    # a boolean table of n + 1 rows of 64 ceil((n + 1) / 64) cells, its
    # rows packed into bits, and one EXPANSION_CHUNK of gathered bit rows;
    # gathering the rows of every edge at once would take 9 MB
    n = 2000
    g = sample(W_ASYM, n, 2 / math.sqrt(n), replicate_seed(3, n, 0))
    csr = g.adjacency()
    width = 64 * -(-(n + 1) // 64)
    bound = (n + 1) * width + (n + 1) * width // 8 \
        + motif.EXPANSION_CHUNK * width // 8
    assert g.edge_count * width // 8 > bound
    tracemalloc.start()
    try:
        got = triangle_count(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound
    assert got == count_embeddings(n, csr, K3)


def test_expected_count_fixtures():
    w1 = StepGraphon.constant(1.0)
    assert expected_count(K2, w1, 10, 0.3) == pytest.approx(45 * 0.3)
    assert expected_count(K3, w1, 4, 1.0) == pytest.approx(4.0)
    assert expected_count(K3, W_SYM, 50, 0.1) == pytest.approx(2.9792, abs=1e-10)


# ---------------------------------------------------------------------------
# conditional expectation


def test_conditional_constant_graphon_is_unconditional():
    w = StepGraphon.constant(0.6)
    lat = np.random.default_rng(3).random(25)
    ce = conditional_expected_count(lat, K3, w, 0.4)
    assert ce == expected_count(K3, w, 25, 0.4)


def test_conditional_single_block_closed_form():
    lat = np.zeros(12)  # all latents in the first block (value 0.9)
    ce = conditional_expected_count(lat, K2, W_ASYM, 0.3)
    assert ce == pytest.approx(66 * 0.3 * 0.9, rel=1e-12)


def test_conditional_brute_force_over_copies():
    # direct sum over all copies of the per-copy conditional probability
    rng = np.random.default_rng(62)
    from util import copies_on_labels
    for _ in range(10):
        w = random_graphon(rng, blocks=2)
        m = random_motif(rng, max_vertices=4)
        n = int(rng.integers(m.vertex_count, 8))
        lat = rng.random(n)
        blocks = w.blocks_of(lat)
        rho = float(rng.uniform(0.1, 0.9))
        total = 0.0
        for subset in combinations(range(1, n + 1), m.vertex_count):
            for eset in copies_on_labels(m, subset):
                term = rho ** m.edge_count
                for a, b in eset:
                    term *= w.values[blocks[a - 1]][blocks[b - 1]]
                total += term
        got = conditional_expected_count(lat, m, w, rho)
        assert got == pytest.approx(total, rel=1e-10)


def test_occupancy_polynomial_matches_the_reference_loop_bit_for_bit():
    # every summary's cond_expected is read from these coefficients, so
    # they must equal the plain loop's exactly, not just to roundoff
    rng = np.random.default_rng(65)
    # at 41 blocks a mixed-radix occupancy code sum_v 3^beta_v of the edge
    # motif would pass 2^63
    graphons = [W_SYM, W_ASYM] + [random_graphon(rng, blocks=K)
                                  for K in (2, 3, 4, 41)]
    checked = 0
    for w in graphons:
        for name in sorted(motif._NAMED):
            m = named_motif(name)
            if w.block_count ** m.vertex_count > 4096:
                continue
            assert (counting._occupancy_polynomial(m, w)
                    == reference_occupancy_polynomial(m, w))
            checked += 1
    assert checked >= 40


def test_conditional_mean_refuses_over_the_assignment_cap():
    # 4^12 block assignments: refused at once, like hom_density
    path12 = Motif(12, [(v, v + 1) for v in range(1, 12)])
    w = random_graphon(np.random.default_rng(66), blocks=4)
    lat = np.random.default_rng(67).random(20)
    with pytest.raises(ValueError,
                       match=r"4\^12 block assignments exceed cap"):
        conditional_expected_count(lat, path12, w, 0.5)


def test_conditional_tower_property():
    rng = np.random.default_rng(63)
    vals = np.array([conditional_expected_count(rng.random(30), K3, W_ASYM, 0.2)
                     for _ in range(10000)])
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - expected_count(K3, W_ASYM, 30, 0.2)) < 3 * se


# ---------------------------------------------------------------------------
# decomposition


def test_decompose_constant_graphon_delta2_zero():
    w = StepGraphon.constant(0.5)
    for seed in range(5):
        g = sample(w, 30, 0.3, seed)
        d = decompose(g, K3, w)
        assert d.delta2 == 0.0


def test_decompose_identity():
    for seed in range(10):
        g = sample(W_ASYM, 30, 0.3, seed)
        d = decompose(g, K3, W_ASYM)
        assert d.delta == pytest.approx(d.delta1 + d.delta2, rel=1e-12,
                                        abs=1e-12)
        assert d.x == count(g, K3)


def test_decompose_fixed_seed_recomputation():
    g = sample(W_ASYM, 30, 0.3, 42)
    d = decompose(g, K3, W_ASYM)
    x = subset_count_oracle(30, g.edge_list(), K3)
    assert abs((x - d.expected) - d.delta) < 1e-9


def test_label_ustatistic_fixtures():
    w = StepGraphon.constant(0.4)
    lat = np.random.default_rng(1).random(12)
    assert label_ustatistic(lat, K2, w) == pytest.approx(0.0, abs=1e-15)
    lat = np.zeros(10)
    assert label_ustatistic(lat, K2, W_ASYM) == pytest.approx(0.5, rel=1e-12)


def test_label_ustatistic_scaling_identity():
    rng = np.random.default_rng(64)
    for i in range(100):
        n = int(rng.integers(6, 40))
        rho = float(rng.uniform(0.05, 0.9))
        m = [K2, P3, K3][i % 3]
        w = random_graphon(rng, blocks=2)
        g = sample(w, n, rho, replicate_seed(10, n, i))
        d = decompose(g, m, w)
        T = label_ustatistic(g.latents, m, w)
        rhs = math.comb(n, m.vertex_count) * rho ** m.edge_count * T
        assert d.delta2 == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    with pytest.raises(ValueError):
        label_ustatistic(np.random.default_rng(0).random(2), K3, W_ASYM)


# ---------------------------------------------------------------------------
# exact variance oracles


def test_exact_variance_iid_edges_closed_form():
    w = StepGraphon.constant(1.0)
    for n, rho in ((6, 0.3), (9, 0.7)):
        got = exact_variance(K2, w, n, rho)
        assert got == pytest.approx(math.comb(n, 2) * rho * (1 - rho),
                                    rel=1e-12)


def test_exact_variance_against_total_enumeration():
    assert exact_variance(K2, W_ASYM, 4, 0.3) == pytest.approx(
        total_enumeration_variance(K2, W_ASYM, 4, 0.3), rel=1e-10)
    assert exact_variance(K3, W_ASYM, 4, 0.4) == pytest.approx(
        total_enumeration_variance(K3, W_ASYM, 4, 0.4), rel=1e-10)
    assert exact_variance(P3, W_SYM, 4, 0.5) == pytest.approx(
        total_enumeration_variance(P3, W_SYM, 4, 0.5), rel=1e-10)


def test_exact_variance_cap():
    with pytest.raises(ValueError):
        exact_variance(K2, W_ASYM, 13, 0.3)
    with pytest.raises(ValueError):
        exact_variance(named_motif("c5"), W_ASYM, 8, 0.3)


def test_conditional_variance_constant_graphon_closed_form():
    w = StepGraphon.constant(0.5)
    lat = np.random.default_rng(2).random(6)
    got = conditional_variance(lat, K2, w, 0.3)
    p = 0.3 * 0.5
    assert got == pytest.approx(15 * p * (1 - p), rel=1e-12)


def test_conditional_variance_against_total_enumeration():
    rng = np.random.default_rng(65)
    for m in (K2, K3):
        lat = rng.random(5)
        blocks = W_ASYM.blocks_of(lat)
        got = conditional_variance(lat, m, W_ASYM, 0.35)
        want = total_enumeration_conditional_variance(
            m, W_ASYM, blocks.tolist(), 0.35)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_conditional_variance_empirical_resampling():
    # spec example: K2, W_asym, n=6, rho=0.3, fixed latents, edge resampling
    lat = np.random.default_rng(8).random(6)
    rho = 0.3
    want = conditional_variance(lat, K2, W_ASYM, rho)
    xs = np.array([resample_edges(W_ASYM, lat, rho, replicate_seed(11, 6, r)).edge_count
                   for r in range(100000)], dtype=np.float64)
    v, se = variance_and_se(xs)
    assert abs(v - want) < 3 * se


def test_empirical_mean_tracks_expectation_all_fixtures():
    # 2e4 replicates per (motif, graphon) pair at one small (n, rho)
    n, rho, reps = 30, 0.15, 20000
    for m in (K2, K3):
        for w in (W_SYM, W_ASYM):
            ref = expected_count(m, w, n, rho)
            xs = np.empty(reps)
            for r in range(reps):
                xs[r] = count(sample(w, n, rho, replicate_seed(14, n, r)), m)
            se = xs.std(ddof=1) / math.sqrt(reps)
            assert abs(xs.mean() - ref) <= 4 * se, (m, w.pi, xs.mean(), ref)


# ---------------------------------------------------------------------------
# orders


def test_mean_variance_orders_triangle():
    n = 1000
    rho = n ** -0.8
    rep = mean_variance_orders(K3, n, rho)
    assert rep.mean_order == pytest.approx(n ** 3 * rho ** 3)
    assert rep.min_order == pytest.approx(n ** 3 * rho ** 3)
    assert rep.min_minimizer.edge_count == 3


def test_mean_variance_orders_edge():
    n, rho = 500, 0.01
    rep = mean_variance_orders(K2, n, rho)
    assert rep.var_order == pytest.approx(max(n ** 3 * rho ** 2, n ** 2 * rho))


def test_mean_variance_orders_dense_case():
    rep = mean_variance_orders(named_motif("c4"), 100, 1.0)
    assert rep.var_order == pytest.approx(100.0 ** 7)
    assert rep.var_maximizer.vertex_count == 1
