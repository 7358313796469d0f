import hashlib
import math
import sys
import threading
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphon_motifs import (
    SampledGraph,
    SparsitySchedule,
    StepGraphon,
    classify_regime,
    critical_schedule,
    named_graphon,
    named_motif,
    resample_edges,
    sample,
    schedule_rho,
)
from graphon_motifs import sampler
from graphon_motifs.counting import triangle_count
from graphon_motifs.sampler import (
    SMALL_GRAPH_VERTICES,
    _decode_edges,
    _edge_layer,
    _label_keys,
    _stratum_positions,
    replicate_seed,
)
from graphon_motifs import seeding
from graphon_motifs.seeding import SEED_BLOCK, _child_words

from util import (
    bernoulli_positions,
    enumerated_pair_keys,
    reference_bernoulli_positions,
    reference_edge_layer_scalar,
)

W_ASYM = named_graphon("W_asym")
W_SYM = named_graphon("W_sym")


def test_sample_complete_graph_at_probability_one():
    g = sample(StepGraphon.constant(1.0), 5, 1.0, 123)
    assert g.edge_count == 10
    assert g.edge_list() == [(a, b) for a, b in combinations(range(1, 6), 2)]


def test_sample_rejects_zero_rho():
    with pytest.raises(ValueError):
        sample(StepGraphon.constant(1.0), 100, 0.0, 1)
    with pytest.raises(ValueError):
        sample(StepGraphon.constant(1.0), 0, 0.5, 1)


def test_sample_determinism_and_seed_sensitivity():
    g1 = sample(W_ASYM, 150, 0.2, 99)
    g2 = sample(W_ASYM, 150, 0.2, 99)
    g3 = sample(W_ASYM, 150, 0.2, 100)
    assert np.array_equal(g1.latents, g2.latents)
    assert np.array_equal(g1.edges, g2.edges)
    assert not np.array_equal(g1.edges, g3.edges)


def test_sample_golden_output():
    # pins the RNG layout and the edge-stream algorithm; a change in either
    # is a reproducibility break, not a refactor
    g = sample(W_ASYM, 30, 0.3, 42)
    digest = hashlib.sha256(g.to_dump().encode()).hexdigest()
    assert g.edge_count == 38
    assert digest == ("75686c478d8c2bd3b2f3ed9c312170a416f52e11"
                      "a67a67f3a6554e55557f7b01")
    g2 = sample(W_SYM, 100, 0.05, 7)
    digest2 = hashlib.sha256(g2.to_dump().encode()).hexdigest()
    assert g2.edge_count == 138
    assert digest2 == ("a31cb26867d624f0e8d254a6e02604172a2fbf8a"
                       "2e857114afb65bce1a3e460a")


def test_sample_golden_output_large_graph():
    # C10's shape, read into int64 arrays
    g = sample(W_ASYM, 2000, 2 / math.sqrt(2000), 2024)
    digest = hashlib.sha256(g.to_dump().encode()).hexdigest()
    assert g.edge_count == 36273
    assert digest == ("cde9c475091aa95f2a73e6f727364baedf54ff5c"
                      "57d15154cd4cf17aabea150f")


def test_sample_golden_output_small_graph():
    # n = 6 reads its gaps into lists; the digest was computed before that
    # reader existed
    g = sample(W_ASYM, 6, 0.3, 5001)
    digest = hashlib.sha256(g.to_dump().encode()).hexdigest()
    assert g.edges.tolist() == [[1, 4], [2, 3], [3, 4], [3, 6]]
    assert digest == ("e1cce918fbf667e247e7a595814dc36d54f6c38d"
                      "4ed6f5e305920a2a4abb80f2")


def test_sampled_graph_is_simple_and_sorted():
    g = sample(W_ASYM, 200, 0.15, 5)
    edges = g.edge_list()
    assert all(a < b for a, b in edges)
    assert edges == sorted(edges)
    assert len(set(edges)) == len(edges)
    assert np.all((g.latents >= 0) & (g.latents < 1))
    assert g.latents.size == 200


def test_dump_round_trip():
    g = sample(W_ASYM, 40, 0.3, 77)
    back = SampledGraph.from_dump(g.to_dump(), W_ASYM)
    assert back.n == g.n and back.rho == g.rho and back.seed == g.seed
    assert back.edge_list() == g.edge_list()
    assert np.array_equal(back.latents, g.latents)
    assert np.array_equal(back.blocks, g.blocks)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, SMALL_GRAPH_VERTICES, SMALL_GRAPH_VERTICES + 1,
                        120]),
       st.floats(0.05, 1.0), st.integers(0, 2 ** 32))
def test_edges_are_sorted_and_survive_from_dump(n, rho, seed):
    g = sample(W_ASYM, n, rho, seed)
    edges = g.edges
    assert edges.dtype == np.int64 and edges.shape == (g.edge_count, 2)
    assert np.all((1 <= edges[:, 0]) & (edges[:, 0] < edges[:, 1])
                  & (edges[:, 1] <= n))
    keys = edges[:, 0] * (n + 1) + edges[:, 1]
    assert np.all(keys[1:] > keys[:-1])
    back = SampledGraph.from_dump(g.to_dump(), W_ASYM)
    assert np.array_equal(back.edges, edges)
    assert back.edge_count == g.edge_count
    for a, b in zip(back.adjacency(), g.adjacency()):
        assert np.array_equal(a, b)


def _dump(n, edge_lines):
    return "\n".join([f"{n} 0.5 1", *edge_lines, "latents",
                      *(str(0.1 * (i + 1)) for i in range(n))]) + "\n"


def test_from_dump_normalizes_pair_orientation():
    g = SampledGraph.from_dump(_dump(3, ["3 1", "2 1"]))
    assert g.edge_list() == [(1, 2), (1, 3)]


@pytest.mark.parametrize("edge_lines,message", [
    (["1 2", "2 1"], "duplicate edge 1 2"),
    (["2 3", "2 3"], "duplicate edge 2 3"),
    (["3 3"], "self-loop 3 3"),
    (["1 4"], "edge 1 4 outside vertices 1..3"),
    (["0 2"], "edge 0 2 outside vertices 1..3"),
])
def test_from_dump_rejects_bad_edges(edge_lines, message):
    with pytest.raises(ValueError, match=message):
        SampledGraph.from_dump(_dump(3, edge_lines))


def _dump_text(header, latents):
    return "\n".join([header, "1 2", "latents", *latents]) + "\n"


@pytest.mark.parametrize("text,message", [
    ("", "empty graph dump"),
    ("\n  \n", "empty graph dump"),
    ("3 0.5 1\n1 2\n", "dump has no latents line"),
    (_dump_text("0 0.5 1", []), "n = 0 must be at least 1"),
    (_dump_text("-2 0.5 1", []), "n = -2 must be at least 1"),
    (_dump_text("3 0.0 1", ["0.1", "0.2", "0.3"]), "rho = 0.0 must lie"),
    (_dump_text("3 1.5 1", ["0.1", "0.2", "0.3"]), "rho = 1.5 must lie"),
    (_dump_text("3 nan 1", ["0.1", "0.2", "0.3"]), "rho = nan must lie"),
    (_dump_text("3 0.5 1", ["0.1", "nan", "0.5"]),
     r"latent nan of vertex 2 outside \[0, 1\)"),
    (_dump_text("3 0.5 1", ["0.1", "0.2", "1.5"]),
     r"latent 1.5 of vertex 3 outside \[0, 1\)"),
    (_dump_text("3 0.5 1", ["-0.2", "0.2", "0.5"]),
     r"latent -0.2 of vertex 1 outside \[0, 1\)"),
    (_dump_text("3 0.5 1", ["0.1", "1.0", "0.5"]),
     r"latent 1.0 of vertex 2 outside \[0, 1\)"),
])
def test_from_dump_rejects_bad_header_and_latents(text, message):
    with pytest.raises(ValueError, match=message):
        SampledGraph.from_dump(text, W_ASYM)


def test_adjacency_is_sorted_symmetric_csr():
    g = sample(W_ASYM, 60, 0.2, 8)
    indptr, indices, rows = g.adjacency()
    assert indptr.size == g.n + 2 and indptr[1] == 0
    assert indptr[-1] == indices.size == 2 * g.edge_count
    nbrs = [set() for _ in range(g.n + 1)]
    for a, b in g.edge_list():
        nbrs[a].add(b)
        nbrs[b].add(a)
    for v in range(1, g.n + 1):
        assert indices[indptr[v]:indptr[v + 1]].tolist() == sorted(nbrs[v])
    assert g.adjacency() is g.adjacency()


def test_resample_edges_keeps_latents():
    g = sample(W_ASYM, 120, 0.2, 3)
    h = resample_edges(W_ASYM, g.latents, 0.2, 4)
    assert np.array_equal(h.latents, g.latents)
    assert not np.array_equal(h.edges, g.edges)


# ---------------------------------------------------------------------------
# the deferred decode


def _hand_out(monkeypatch, seed):
    """Note ``seed`` as the last handed-out replicate seed, so that
    ``sample`` seeds its generators from the noted words.  The note names
    no seed block, so the latents come from numpy's generator."""
    words = _child_words(np.array([seed], dtype=np.uint64))
    monkeypatch.setattr(seeding._LOCAL, "note", (seed, words, 0, None),
                        raising=False)


# the digests of test_sample_golden_output_small_graph and _large_graph
@pytest.mark.parametrize("n,rho,seed,digest", [
    (6, 0.3, 5001, "e1cce918fbf667e247e7a595814dc36d54f6c38d"
                   "4ed6f5e305920a2a4abb80f2"),
    (2000, 2 / math.sqrt(2000), 2024, "cde9c475091aa95f2a73e6f727364baedf54ff5c"
                                      "57d15154cd4cf17aabea150f"),
], ids=["n6", "n2000"])
def test_decode_consumes_no_uniforms(monkeypatch, n, rho, seed, digest):
    _hand_out(monkeypatch, seed)
    g1 = sample(W_ASYM, n, rho, seed)
    # the thread samples the next replicate before g1 is decoded
    g2 = sample(W_ASYM, n, rho, replicate_seed(77, n, 5))
    assert g1._keys is None and g2._keys is None
    assert hashlib.sha256(g1.to_dump().encode()).hexdigest() == digest


@pytest.mark.parametrize("n", [1, 2, 6, 30, 31, 200, 2000])
def test_edge_count_is_the_same_before_and_after_decode(n):
    rho = min(1.0, 3 / math.sqrt(n))
    g = sample(W_ASYM, n, rho, replicate_seed(5, n, 0))
    h = resample_edges(W_ASYM, g.latents, rho, replicate_seed(5, n, 1))
    for graph in (g, h):
        before = graph.edge_count
        assert graph._keys is None
        edges = graph.edges
        assert graph._strata is None
        assert graph.edge_count == before == edges.shape[0]
        back = SampledGraph.from_dump(graph.to_dump(), W_ASYM)
        assert back.edge_count == before
        assert np.array_equal(back.edges, edges)


def test_threads_decoding_one_graph_get_equal_arrays():
    # four threads read one list of undecoded graphs, two forward and two
    # backward, so a graph is often read while another thread decodes it;
    # each graph is read for its edges, its label keys or its triangles,
    # which read the draw-order keys alone
    seeds = range(150)
    shapes = [(40 + seed % 3 * 100, seed) for seed in seeds]
    graphs = [sample(W_ASYM, n, 0.3, seed) for n, seed in shapes]
    readers = (lambda g: g.edges, lambda g: g.pair_keys(), triangle_count)
    out = [[None] * len(graphs) for _ in range(4)]

    def read(k):
        order = range(len(graphs)) if k % 2 else range(len(graphs))[::-1]
        for i in order:
            out[k][i] = readers[(i + k) % 3](graphs[i])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for i, ((n, seed), *got) in enumerate(zip(shapes, *out)):
        want = [reader(sample(W_ASYM, n, 0.3, seed)) for reader in readers]
        for k, x in enumerate(got):
            assert np.array_equal(x, want[(i + k) % 3])


# the graphs and digests of test_sample_golden_output and its _large_graph
# and _small_graph variants
@pytest.mark.parametrize("w,n,rho,seed,digest", [
    (W_ASYM, 30, 0.3, 42, "75686c478d8c2bd3b2f3ed9c312170a416f52e11"
                          "a67a67f3a6554e55557f7b01"),
    (W_SYM, 100, 0.05, 7, "a31cb26867d624f0e8d254a6e02604172a2fbf8a"
                          "2e857114afb65bce1a3e460a"),
    (W_ASYM, 2000, 2 / math.sqrt(2000), 2024,
     "cde9c475091aa95f2a73e6f727364baedf54ff5c57d15154cd4cf17aabea150f"),
    (W_ASYM, 6, 0.3, 5001, "e1cce918fbf667e247e7a595814dc36d54f6c38d"
                           "4ed6f5e305920a2a4abb80f2"),
], ids=["n30", "n100", "n2000", "n6"])
def test_label_readers_agree_whether_or_not_triangles_were_counted(
        w, n, rho, seed, digest):
    plain = sample(w, n, rho, seed)
    counted = sample(w, n, rho, seed)
    triangles = triangle_count(counted)
    assert np.array_equal(counted.pair_keys(), plain.pair_keys())
    assert np.array_equal(counted.edges, plain.edges)
    assert counted.to_dump() == plain.to_dump()
    assert hashlib.sha256(counted.to_dump().encode()).hexdigest() == digest
    assert triangle_count(plain) == triangles


# ---------------------------------------------------------------------------
# edge-stream internals


def _decode_one_block(nb: int, slots) -> tuple:
    """(i, j), 0-based in label order, of each slot of the one stratum of a
    one-block graph on nb vertices, read back from the draw-order keys that
    ``_decode_edges`` gives them: there rank i is vertex i + 1."""
    keys = _decode_edges([np.asarray(slots, dtype=np.int64)], (nb,))
    return keys // (nb + 1), keys % (nb + 1)


def test_decode_within_exhaustive():
    for nb in range(2, 80):
        idx = np.arange(nb * (nb - 1) // 2, dtype=np.int64)
        i, j = _decode_one_block(nb, idx)
        assert list(zip(i.tolist(), j.tolist())) == [
            (a, b) for a in range(nb) for b in range(a + 1, nb)]


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 3000), st.integers(0, 10 ** 6))
def test_decode_within_random_indices(nb, raw):
    total = nb * (nb - 1) // 2
    t = raw % total
    i, j = _decode_one_block(nb, [t])
    i, j = int(i[0]), int(j[0])
    assert 0 <= i < j < nb
    assert i * nb - i * (i + 1) // 2 + (j - i - 1) == t


def test_large_graphs_build_row_tables_outside_the_cache():
    nb = sampler.ROW_TABLE_CACHE_VERTICES
    before = sampler._row_table.cache_info()
    i, j = _decode_one_block(nb + 1, [0, nb * (nb + 1) // 2 - 1])
    assert (i.tolist(), j.tolist()) == ([0, nb - 1], [1, nb])
    after = sampler._row_table.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)
    _decode_one_block(nb, [0])  # at the bound the cache is read
    info = sampler._row_table.cache_info()
    assert info.hits + info.misses == after.hits + after.misses + 1


@st.composite
def _drawn_strata(draw):
    """(blocks, occupancy, drawn strata, position lists) of a K-block graph
    with K in 1..4, at least one vertex and blocks of 0 to 9, and in each
    stratum no positions, all of its slots (p >= 1) or a random subset of
    them, held as int64 positions, as ``_Steps`` or as a Python list, as
    ``_read_floats`` gives it."""
    occupancy = tuple(draw(st.lists(st.integers(0, 9), min_size=1,
                                    max_size=4).filter(any)))
    K = len(occupancy)
    order = draw(st.permutations(range(sum(occupancy))))
    blocks = np.empty(sum(occupancy), dtype=np.int64)
    blocks[list(order)] = np.repeat(np.arange(K), occupancy)
    strata, lists = [], []
    for b, c in sampler._stratum_order(K):
        slots = (occupancy[b] * (occupancy[b] - 1) // 2 if b == c
                 else occupancy[b] * occupancy[c])
        kind = draw(st.sampled_from(["none", "all", "some"]))
        pos = (list(range(slots)) if kind == "all" else [] if kind == "none"
               else sorted(draw(st.sets(st.integers(0, max(slots - 1, 0)),
                                        max_size=slots))))
        held = draw(st.sampled_from(["array", "steps", "list"]))
        arr = np.array(pos, dtype=np.int64)
        if held == "list":
            arr = list(pos)
        elif pos and held == "steps":
            arr = sampler._Steps(np.diff(arr, prepend=-1))
        strata.append(arr)
        lists.append(pos)
    return blocks, occupancy, strata, lists


@settings(max_examples=300, deadline=None)
@given(_drawn_strata())
# list strata only, as a small graph draws them: one empty, two full
@example(drawn=(np.array([0, 1, 0, 1, 1]), (2, 3),
                [[], [0, 1, 2], [0, 1, 2, 3, 4, 5]],
                [[], [0, 1, 2], [0, 1, 2, 3, 4, 5]]))
def test_decode_matches_the_enumeration_oracle(drawn):
    blocks, occupancy, strata, lists = drawn
    want = enumerated_pair_keys(lists, blocks, len(occupancy))
    ranked = _decode_edges(strata, occupancy)
    got = _label_keys(ranked, blocks)
    assert ranked.dtype == got.dtype == np.int64
    assert got.tolist() == want.tolist()
    # the draw-order keys pair ranks lo < hi, and rank r is the (r + 1)-th
    # vertex by block, then label
    stride = blocks.size + 1
    lo, hi = ranked // stride, ranked % stride
    assert np.all((0 <= lo) & (lo < hi) & (hi < blocks.size))
    vert = np.lexsort((np.arange(1, stride), blocks)) + 1
    assert np.array_equal(np.minimum(vert[lo], vert[hi]) * stride
                          + np.maximum(vert[lo], vert[hi]), want)
    # the draw is read, never written
    assert [_stratum_positions(s).tolist() for s in strata] == lists


# three blocks with a zero and a one entry: at rho = 1 the strata hit both
# the p <= 0 and the p >= 1 branch
W_THREE = StepGraphon((0.2, 0.3, 0.5),
                      ((1.0, 0.0, 0.4), (0.0, 0.7, 1.0), (0.4, 1.0, 0.05)))


@pytest.mark.parametrize("w", [W_ASYM, W_THREE], ids=["W_asym", "three_blocks"])
@pytest.mark.parametrize("n", [6, SMALL_GRAPH_VERTICES,
                               SMALL_GRAPH_VERTICES + 1])
def test_drawn_keys_pair_ranks_by_block_then_label(w, n):
    # either gap reader's draw decodes into the one draw order
    stride = n + 1
    for rho in (0.3, 1.0):
        for r in range(20):
            g = sample(w, n, rho, replicate_seed(29, n, r))
            keys = g.drawn_keys()
            lo, hi = keys // stride, keys % stride
            assert np.all((0 <= lo) & (lo < hi) & (hi < n))
            vert = np.lexsort((np.arange(1, stride), g.blocks)) + 1
            a, b = vert[lo], vert[hi]
            assert np.array_equal(np.minimum(a, b) * stride
                                  + np.maximum(a, b), g.pair_keys())


class _LowUniforms:
    """Generator stand-in drawing uniforms in [0, scale), which makes gaps
    short, so a stratum runs past its first batch; logs the batch sizes."""

    def __init__(self, seed, scale):
        self._gen = np.random.default_rng(seed)
        self._scale = scale
        self.sizes = []

    def random(self, size=None, out=None):
        if out is not None:
            self.sizes.append(out.size)
            out[...] = self._gen.random(out.size) * self._scale
            return out
        self.sizes.append(size)
        return self._gen.random(size) * self._scale


@pytest.fixture
def fresh_plans():
    """A cold stratum plan cache before and after the test, so that a plan
    built under one batch rule is never reused under another."""
    sampler._stratum_plan.cache_clear()
    yield
    sampler._stratum_plan.cache_clear()


def _edge_layer_read_as(small: bool, w, occupancy, rho, rng) -> tuple:
    """``_edge_layer`` with SMALL_GRAPH_VERTICES set to the graph's n, so
    that it reads lists of Python floats, or to n - 1, so that it reads
    int64 arrays."""
    n = sum(occupancy)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "SMALL_GRAPH_VERTICES", n if small else n - 1)
        return _edge_layer(w, occupancy, rho, rng)


def _assert_paths_agree(w, blocks, rho, make_rng):
    """Both gap readers of the edge layer, and the list reader drawn one
    batch per call (``reference_edge_layer_scalar``), give the same
    positions and leave their generators in the same state, and both
    readers' strata decode to the keys of ``enumerated_pair_keys``."""
    rng_v, rng_s, rng_ref = make_rng(), make_rng(), make_rng()
    occupancy = tuple(np.bincount(blocks, minlength=w.block_count).tolist())
    strata_v, total_v = _edge_layer_read_as(False, w, occupancy, rho, rng_v)
    strata_s, total_s = _edge_layer_read_as(True, w, occupancy, rho, rng_s)
    strata_ref, total_ref = reference_edge_layer_scalar(w, blocks, rho,
                                                        rng_ref)
    assert total_s == total_v == total_ref
    assert strata_s == strata_ref
    # a long stratum is drawn as steps: compare the positions it forms
    assert [_stratum_positions(s).tolist() for s in strata_v] == strata_ref
    sca = _label_keys(_decode_edges(strata_s, occupancy), blocks)
    vec = _label_keys(_decode_edges(strata_v, occupancy), blocks)
    assert vec.shape[0] == total_v
    assert sca.dtype == vec.dtype == np.int64 and sca.shape == vec.shape
    assert vec.flags["C_CONTIGUOUS"] and sca.flags["C_CONTIGUOUS"]
    assert np.array_equal(sca, vec)
    assert np.array_equal(vec, enumerated_pair_keys(strata_ref, blocks,
                                                    w.block_count))
    # the same next uniform shows the same generator state
    assert rng_s.random() == rng_v.random() == rng_ref.random()
    return rng_v, rng_s, rng_ref


@pytest.mark.parametrize("w,rho", [(W_ASYM, 0.3), (W_THREE, 0.3),
                                   (StepGraphon.constant(1.0), 1.0)],
                         ids=["W_asym", "three_blocks", "complete"])
def test_sample_reads_lists_up_to_the_small_graph_bound(w, rho):
    n = SMALL_GRAPH_VERTICES
    small = sample(w, n, rho, 11)._strata
    large = sample(w, n + 1, rho, 11)._strata
    assert len(small) == len(large) == len(sampler._stratum_order(
        w.block_count))
    assert all(type(s) is list for s in small)
    assert all(type(s) is np.ndarray and s.dtype == np.int64 for s in large)


@pytest.mark.parametrize("w", [StepGraphon.constant(0.3), W_ASYM, W_THREE],
                         ids=["one_block", "W_asym", "three_blocks"])
def test_edge_layer_paths_agree(w):
    ns = (*range(1, SMALL_GRAPH_VERTICES + 2), 60)
    for n in ns:
        for rho in (0.02, 0.3, 1.0):
            for seed in range(4):
                latents = np.random.default_rng(1000 * seed + n).random(n)
                blocks = w.blocks_of(latents)
                _assert_paths_agree(
                    w, blocks, rho,
                    lambda: np.random.Generator(np.random.PCG64(seed)))


@pytest.mark.parametrize("w,n,rho", [
    (W_ASYM, 200, 2 / math.sqrt(2000)),
    (W_ASYM, 200, 1.0),
    (W_THREE, 200, 2 / math.sqrt(2000)),
    (W_ASYM, 2000, 2 / math.sqrt(2000)),
    (W_THREE, 2000, 2 / math.sqrt(2000)),
], ids=["W_asym-200", "W_asym-200-dense", "three_blocks-200",
        "W_asym-2000", "three_blocks-2000"])
def test_edge_layer_paths_agree_at_scale(w, n, rho):
    for seed in range(2):
        blocks = w.blocks_of(np.random.default_rng(seed).random(n))
        _assert_paths_agree(w, blocks, rho,
                            lambda: np.random.default_rng(100 + seed))


def test_edge_layer_paths_agree_with_empty_blocks():
    for n in (1, 4, 12, 45):
        for block in range(3):
            blocks = np.full(n, block, dtype=np.int64)
            for rho in (0.3, 1.0):
                _assert_paths_agree(W_THREE, blocks, rho,
                                    lambda: np.random.default_rng(n))
    # one vertex per block: every stratum holds at most one pair
    _assert_paths_agree(W_THREE, np.arange(3, dtype=np.int64), 1.0,
                        lambda: np.random.default_rng(3))


def test_edge_layer_paths_agree_past_the_first_batch(fresh_plans):
    rho = 0.6
    for w in (StepGraphon.constant(0.3), W_ASYM, W_THREE):
        for n in (12, 25, 50):
            blocks = w.blocks_of(np.random.default_rng(n).random(n))
            rng_v, rng_s, rng = _assert_paths_agree(
                w, blocks, rho, lambda: _LowUniforms(n, 0.05))
            K = w.block_count
            sizes = np.bincount(blocks, minlength=K).tolist()
            strata = [(b, b, sizes[b] * (sizes[b] - 1) // 2) for b in range(K)]
            strata += [(b, c, sizes[b] * sizes[c])
                       for b, c in combinations(range(K), 2)]
            drawing = sum(1 for b, c, slots in strata
                          if slots and 0.0 < rho * w.values[b][c] < 1.0)
            # one batch per drawing stratum, one more uniform for the check
            assert len(rng.sizes) > drawing + 1
            # both paths drew the same uniforms: the first batches in one
            # call, then what the drawn uniforms lacked
            assert sum(rng_s.sizes[:-1]) == sum(rng.sizes[:-1])
            assert len(rng_s.sizes) > 2
            assert rng_v.sizes == rng_s.sizes


# on low uniforms the dense first block still ends inside its first batch,
# and the sparse second block runs past its own
W_DENSE_FIRST = StepGraphon((0.5, 0.5), ((0.95, 0.3), (0.3, 0.2)))


@pytest.mark.parametrize("n", [40, 60, 80])
def test_one_pass_reader_falls_back_where_a_stratum_runs_past_its_batch(
        monkeypatch, fresh_plans, n):
    blocks = W_DENSE_FIRST.blocks_of(np.random.default_rng(n).random(n))
    occupancy = tuple(np.bincount(blocks, minlength=2).tolist())
    assert sampler._stratum_plan(W_DENSE_FIRST, 1.0,
                                 occupancy)[2] <= sampler.PREFIX_BLOCK
    read_first = sampler._read_first_batches
    read = []

    def spy(logs, strata):
        out, at = read_first(logs, strata)
        read.append(len(out))
        return out, at

    monkeypatch.setattr(sampler, "_read_first_batches", spy)
    rng = _LowUniforms(n, 0.05)
    got, total = _edge_layer(W_DENSE_FIRST, occupancy, 1.0, rng)
    # the first stratum was read in the one pass, the second fell back
    assert read == [1]
    # the stratum-by-stratum reader alone
    monkeypatch.setattr(sampler, "_read_first_batches",
                        lambda logs, strata: ([], 0))
    rng_w = _LowUniforms(n, 0.05)
    want, total_w = _edge_layer(W_DENSE_FIRST, occupancy, 1.0, rng_w)
    assert total == total_w == sum(map(len, want))
    assert all(type(s) is np.ndarray and s.dtype == np.int64 for s in got)
    assert [s.tolist() for s in got] == [s.tolist() for s in want]
    assert rng.sizes == rng_w.sizes and len(rng.sizes) > 1
    assert rng.random() == rng_w.random()


def test_scalar_edge_layer_draws_once_when_every_stratum_ends_in_its_batch(
        fresh_plans):
    blocks = W_ASYM.blocks_of(np.random.default_rng(5).random(10))
    assert np.bincount(blocks).min() >= 2
    # a scale of 1 leaves the uniforms as drawn; the spy logs the calls
    rng_v, rng_s, rng_ref = _assert_paths_agree(W_ASYM, blocks, 0.3,
                                                lambda: _LowUniforms(7, 1.0))
    # one batch for each of the three strata, then the check's uniform
    assert len(rng_ref.sizes) == 3 + 1
    assert rng_s.sizes == [sum(rng_ref.sizes[:-1]), None]


@pytest.mark.parametrize("n", [10, 60, 200])
def test_vectorized_edge_layer_draws_once_when_every_stratum_ends_in_its_batch(
        fresh_plans, n):
    blocks = W_ASYM.blocks_of(np.random.default_rng(5).random(n))
    assert np.bincount(blocks).min() >= 2
    rng_v, rng_s, rng_ref = _assert_paths_agree(W_ASYM, blocks, 0.3,
                                                lambda: _LowUniforms(7, 1.0))
    # the reference draws one batch for each of the three strata, the
    # vectorized path all of them in one call; then the check's uniform
    assert len(rng_ref.sizes) == 3 + 1
    assert rng_v.sizes == [sum(rng_ref.sizes[:-1]), None]


def _read_stratum(make_rng, slots, p, size):
    """One stratum read by ``_read_positions`` from a first batch of
    ``size`` uniforms: (stratum, next at, the generator's next uniform,
    the generator)."""
    rng = make_rng()
    stratum, _, at = sampler._read_positions(
        rng, sampler._log_uniforms(rng, size), 0, slots, p, math.log1p(-p),
        float(slots) + 1.0, size)
    return stratum, at, rng.random(), rng


@pytest.mark.parametrize("scale", [1.0, 0.05], ids=["drawn", "low"])
@pytest.mark.parametrize("above", [-1, 0, 1])
def test_kept_steps_form_the_positions_summed_at_once(monkeypatch, above,
                                                      scale):
    # first batches either side of PREFIX_BLOCK; low uniforms make gaps
    # short, so the strata with many slots run past their first batch
    size = sampler.PREFIX_BLOCK + above
    past = 0
    for p in (0.002, 0.05, 0.6):
        for slots in (1, 40, int(size / p * 0.8), int(size / p * 1.2),
                      int(size / p * 20)):
            for seed in range(3):
                def make_rng():
                    return _LowUniforms(seed, scale)

                got, at, nxt, rng = _read_stratum(make_rng, slots, p, size)
                with monkeypatch.context() as mp:
                    mp.setattr(sampler, "PREFIX_BLOCK", 10 ** 9)
                    want, at_w, nxt_w, _ = _read_stratum(make_rng, slots, p,
                                                         size)
                # the first batch, then the check's uniform
                past += len(rng.sizes) > 2
                assert (type(got) is sampler._Steps) == (above > 0)
                assert type(want) is np.ndarray
                pos = _stratum_positions(got)
                assert pos.dtype == np.int64 and np.array_equal(pos, want)
                assert len(got) == want.size
                assert at == at_w and nxt == nxt_w
                if above > 0:
                    # forming the positions leaves the kept steps as drawn
                    steps = got.steps.copy()
                    assert np.array_equal(_stratum_positions(got), want)
                    assert np.array_equal(got.steps, steps)
    assert past > 0


@pytest.mark.parametrize("block", [16, 17, 1000])
def test_kept_steps_find_their_end_in_any_block(monkeypatch, block):
    # short blocks put each stratum's end in a different block of its
    # first batch, or past the batch
    monkeypatch.setattr(sampler, "PREFIX_BLOCK", block)
    size = 1100
    for slots in range(20000, 24000, 97):
        got = _read_stratum(lambda: np.random.default_rng(slots), slots,
                            0.05, size)[0]
        want = reference_bernoulli_positions(np.random.default_rng(slots),
                                             slots, 0.05)
        assert type(got) is sampler._Steps
        assert np.array_equal(_stratum_positions(got), want)


def test_decoded_keys_agree_with_positions_summed_at_once(monkeypatch):
    # at n = 2000 every stratum that draws keeps its gap steps
    rho = 2 / math.sqrt(2000)
    for w in (W_ASYM, W_THREE):
        for seed in range(3):
            g = sample(w, 2000, rho, replicate_seed(4, 2000, seed))
            assert any(type(s) is sampler._Steps for s in g._strata)
            with monkeypatch.context() as mp:
                mp.setattr(sampler, "PREFIX_BLOCK", 10 ** 9)
                h = sample(w, 2000, rho, replicate_seed(4, 2000, seed))
            assert all(type(s) is np.ndarray for s in h._strata)
            assert g.edge_count == h.edge_count
            assert np.array_equal(g.pair_keys(), h.pair_keys())


@pytest.mark.parametrize("w", [W_ASYM, W_THREE],
                         ids=["W_asym", "three_blocks"])
def test_stratum_plan_cache_is_transparent(monkeypatch, fresh_plans, w):
    made = {}

    def spy(seed, k):
        rng = seeding.child_rng(seed, k)
        made[k] = rng
        return rng

    monkeypatch.setattr(sampler, "child_rng", spy)

    def draw(n, rho, seed):
        """The graph's keys and the next uniform of both its streams: a
        graph whose latents came from the seed's lane builds no stream-0
        generator, so stream 0's is numpy's after n doubles."""
        made.clear()
        keys = sample(w, n, rho, seed).pair_keys()
        ref = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(0,))))
        ref.random(n)
        first = ref.random()
        if 0 in made:
            assert made[0].random() == first
        return keys, [first, made[1].random()]

    plans = sampler._stratum_plan
    for n in (8, 30, 31, 200):
        rho = min(1.0, 3 / math.sqrt(n))
        seeds = [replicate_seed(9, n, r) for r in range(25)]
        cold = []
        for seed in seeds:
            plans.cache_clear()
            cold.append(draw(n, rho, seed))
        for _ in range(2):
            hits = plans.cache_info().hits
            warm = [draw(n, rho, seed) for seed in seeds]
            for (keys, nexts), (keys_c, nexts_c) in zip(warm, cold):
                assert np.array_equal(keys, keys_c)
                assert len(nexts) == 2 and nexts == nexts_c
            info = plans.cache_info()
            assert info.currsize <= info.maxsize
        # the second warm pass found every plan in the cache
        assert info.hits - hits == len(seeds)


def test_graph_occupancy_counts_its_blocks():
    for w in (W_ASYM, W_THREE):
        K = w.block_count
        for n in (1, 6, 31, 200):
            g = sample(w, n, 0.5, replicate_seed(3, n, 0))
            h = resample_edges(w, g.latents, 0.5, replicate_seed(3, n, 1))
            back = SampledGraph.from_dump(g.to_dump(), w)
            for graph in (g, h, back):
                assert graph.occupancy == tuple(
                    np.bincount(graph.blocks, minlength=K).tolist())
                assert all(type(c) is int for c in graph.occupancy)
            assert g.occupancy == h.occupancy == back.occupancy
            assert SampledGraph.from_dump(g.to_dump()).occupancy == (n,)


def test_bernoulli_positions_edge_cases():
    rng = np.random.default_rng(0)
    assert bernoulli_positions(rng, 0, 0.5).size == 0
    assert bernoulli_positions(rng, 10, 0.0).size == 0
    assert bernoulli_positions(rng, 7, 1.0).tolist() == list(range(7))


def _assert_kernel_matches_reference(n_slots, p, seed):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = bernoulli_positions(rng, n_slots, p)
    want = reference_bernoulli_positions(ref, n_slots, p)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)
    # the same next uniform shows the same generator state
    assert rng.random() == ref.random()
    return got


@pytest.mark.parametrize("p", [1e-6, 0.01, 0.3, 0.999])
@pytest.mark.parametrize("n_slots", [1, 15, 16, 17, 10 ** 3, 5 * 10 ** 5,
                                     10 ** 6])
def test_bernoulli_positions_match_the_allocating_kernel(n_slots, p):
    for seed in (0, 1, 2024):
        _assert_kernel_matches_reference(n_slots, p, seed)


@pytest.mark.parametrize("p", [0.01, 0.3, 0.999])
def test_bernoulli_positions_match_across_continuation_batches(
        fresh_plans, monkeypatch, p):
    # 16 uniforms a batch: every stream of more than a few successes
    # continues past its first batch, on both kernels
    monkeypatch.setattr(sampler, "_batch_size", lambda remaining, p: 16)
    for n_slots in (17, 10 ** 3, 2 * 10 ** 4):
        for seed in (3, 4):
            got = _assert_kernel_matches_reference(n_slots, p, seed)
            assert got.size > 16 or n_slots * p < 16


def test_sampling_threads_never_share_the_scratch():
    # four threads draw n = 2000 graphs and leave them undecoded while the
    # others draw; a kept position that aliased an array another draw
    # reuses would be overwritten before the decode below
    rho = 2 / math.sqrt(2000)
    seeds = [[100 * k + i for i in range(6)] for k in range(4)]
    graphs = [[None] * 6 for _ in range(4)]

    def draw(k):
        for i, seed in enumerate(seeds[k]):
            graphs[k][i] = sample(W_ASYM, 2000, rho, seed)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(old)
    for k in range(4):
        for seed, g in zip(seeds[k], graphs[k]):
            assert g._keys is None
            assert g.to_dump() == sample(W_ASYM, 2000, rho, seed).to_dump()


def test_bernoulli_positions_marginals_and_independence():
    rng = np.random.default_rng(42)
    n_slots, p, reps = 12, 0.3, 40000
    hits = np.zeros(n_slots)
    pair_hits = 0.0
    for _ in range(reps):
        pos = bernoulli_positions(rng, n_slots, p)
        mask = np.zeros(n_slots)
        mask[pos] = 1.0
        hits += mask
        pair_hits += mask[2] * mask[7]
    freq = hits / reps
    se = math.sqrt(p * (1 - p) / reps)
    assert np.all(np.abs(freq - p) < 5 * se)
    se2 = math.sqrt(p * p * (1 - p * p) / reps)
    assert abs(pair_hits / reps - p * p) < 5 * se2


def test_stream_matches_per_pair_bernoulli_distribution():
    # joint distribution check on a 3-vertex graph: all 8 edge patterns
    w = StepGraphon((0.5, 0.5), ((0.9, 0.3), (0.3, 0.1)))
    reps = 30000
    counts = {}
    rng_probs = {}
    for r in range(reps):
        g = sample(w, 3, 0.8, replicate_seed(7, 3, r))
        key = tuple(g.edge_list())
        counts[key] = counts.get(key, 0) + 1
        # accumulate the exact pattern probability for this latent draw
        b = g.blocks
        probs = [0.8 * w.values[b[i]][b[j]]
                 for i, j in ((0, 1), (0, 2), (1, 2))]
        pairs = [(1, 2), (1, 3), (2, 3)]
        for bits in range(8):
            edges = tuple(e for k, e in enumerate(pairs) if bits >> k & 1)
            pp = 1.0
            for k, p in enumerate(probs):
                pp *= p if bits >> k & 1 else 1 - p
            rng_probs[edges] = rng_probs.get(edges, 0.0) + pp / reps
    for pattern, expected in rng_probs.items():
        got = counts.get(pattern, 0) / reps
        se = math.sqrt(expected * (1 - expected) / reps) + 1e-9
        assert abs(got - expected) < 5 * se, (pattern, got, expected)


def test_edge_marginal_constant_graphon():
    w = StepGraphon.constant(0.6)
    n, rho, reps = 40, 0.5, 4000
    total = sum(sample(w, n, rho, replicate_seed(1, n, r)).edge_count
                for r in range(reps))
    pairs = n * (n - 1) // 2
    p = rho * 0.6
    se = math.sqrt(p * (1 - p) / (reps * pairs))
    assert abs(total / (reps * pairs) - p) < 4 * se


def test_edge_marginal_spec_fixture():
    # W_sym at n=2000, rho=0.1 over 200 replicates: density near 0.05;
    # W_sym is degree-regular so pair indicators are uncorrelated and the
    # binomial standard error is exact
    n, reps = 2000, 200
    total = sum(sample(W_SYM, n, 0.1, replicate_seed(31, n, r)).edge_count
                for r in range(reps))
    pairs = n * (n - 1) // 2
    se = math.sqrt(0.05 * 0.95 / (reps * pairs))
    assert abs(total / (reps * pairs) - 0.05) < 3 * se


def test_replicate_seed_is_stable_and_spread():
    s1 = replicate_seed(123, 100, 0)
    assert s1 == replicate_seed(123, 100, 0)
    seeds = {replicate_seed(123, 100, r) for r in range(1000)}
    assert len(seeds) == 1000


def _numpy_replicate_seed(root, n, r):
    ss = np.random.SeedSequence((root, n, r))
    return int(ss.generate_state(1, np.uint64)[0])


@pytest.mark.parametrize("r", [2 ** 32, 2 ** 64 + 5])
def test_replicate_seed_past_the_block_range_uses_numpy(r):
    assert replicate_seed(3, 6, r) == _numpy_replicate_seed(3, 6, r)


@pytest.mark.parametrize("args", [(-1, 6, 0), (5, -6, 0), (5, 6, -1)])
def test_replicate_seed_rejects_negative_arguments(args):
    with pytest.raises(ValueError):
        np.random.SeedSequence(args)
    with pytest.raises(ValueError):
        replicate_seed(*args)


@pytest.mark.parametrize("n", [6, 40])
def test_prefetch_hit_and_miss_sample_the_same_graph(n):
    seed = replicate_seed(31, n, SEED_BLOCK + 3)
    hit = sample(W_ASYM, n, 0.3, seed)
    hit_edges = resample_edges(W_ASYM, hit.latents, 0.3, seed)
    # another seed handed out: the note no longer names this one
    replicate_seed(31, n, 0)
    assert seeding._LOCAL.note[0] != seed
    miss = sample(W_ASYM, n, 0.3, seed)
    miss_edges = resample_edges(W_ASYM, hit.latents, 0.3, seed)
    assert hit.to_dump() == miss.to_dump()
    assert hit_edges.to_dump() == miss_edges.to_dump()


@pytest.mark.parametrize("n", [6, 40])
def test_seed_noted_on_another_thread_samples_the_numpy_graph(
        monkeypatch, n):
    # one note serves every thread: a seed noted on a worker thread hits
    # it on this one, and a seed whose note a later worker replaced misses
    # it; both sample what numpy's SeedSequence gives
    handed = {}

    def hand_out(r):
        handed[r] = replicate_seed(17, n, r)

    def on_worker(r):
        t = threading.Thread(target=hand_out, args=(r,))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        return handed[r]

    monkeypatch.setattr(seeding._LOCAL, "note", None)
    hit_seed = on_worker(3)
    assert seeding._LOCAL.note[0] == hit_seed
    hit = sample(W_ASYM, n, 0.3, hit_seed)
    miss_seed = on_worker(4)
    on_worker(5)
    assert seeding._LOCAL.note[0] != miss_seed
    miss = sample(W_ASYM, n, 0.3, miss_seed)
    seeding._LOCAL.note = None
    for seed, g in ((hit_seed, hit), (miss_seed, miss)):
        assert g.to_dump() == sample(W_ASYM, n, 0.3, seed).to_dump()


# ---------------------------------------------------------------------------
# latents from the seed block's lanes


def _numpy_graph(w, n, rho, seed):
    """The graph ``sample`` draws, its latents from a numpy generator."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(0,))))
    return resample_edges(w, rng.random(n), rho, seed)


@pytest.fixture
def streams(monkeypatch):
    """The child stream indices of every generator ``sample`` builds."""
    made = []

    def spy(seed, k):
        made.append(k)
        return seeding.child_rng(seed, k)

    monkeypatch.setattr(sampler, "child_rng", spy)
    return made


@pytest.mark.parametrize("w", [W_ASYM, StepGraphon.constant(0.6), W_THREE],
                         ids=["W_asym", "one_block", "three_blocks"])
@pytest.mark.parametrize("n", [SMALL_GRAPH_VERTICES, SMALL_GRAPH_VERTICES + 1])
def test_lane_served_sample_equals_the_numpy_graph(streams, w, n):
    for r in (0, 1, SEED_BLOCK - 1, SEED_BLOCK):
        seed = replicate_seed(23, n, r)
        streams.clear()
        g = sample(w, n, 0.4, seed)
        # at most SMALL_GRAPH_VERTICES the latents come from the lane
        assert streams == ([1] if n <= SMALL_GRAPH_VERTICES else [0, 1])
        h = _numpy_graph(w, n, 0.4, seed)
        assert g.to_dump() == h.to_dump()
        assert g.occupancy == h.occupancy
        assert np.array_equal(g.blocks, h.blocks)
        assert np.array_equal(g.pair_keys(), h.pair_keys())


def test_lane_arrays_are_read_only():
    g = sample(W_ASYM, 6, 0.3, replicate_seed(3, 6, 4))
    for a in (g.latents, g.blocks):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0
    # the next graph of the block reads other rows of the same arrays
    h = sample(W_ASYM, 6, 0.3, replicate_seed(3, 6, 5))
    assert h.latents.base is g.latents.base
    assert g.to_dump() == _numpy_graph(W_ASYM, 6, 0.3, g.seed).to_dump()


def test_noted_seed_at_another_n_samples_the_numpy_graph(streams):
    seed = replicate_seed(8, 8, 3)  # noted with the block of n = 8
    g = sample(W_ASYM, 6, 0.3, seed)
    assert streams == [0, 1]
    assert g.to_dump() == _numpy_graph(W_ASYM, 6, 0.3, seed).to_dump()


def test_note_replaced_on_another_thread_samples_the_numpy_graph(streams):
    seed = replicate_seed(8, 6, 3)
    t = threading.Thread(target=replicate_seed, args=(8, 6, 4))
    t.start()
    t.join(timeout=60)
    assert not t.is_alive()
    g = sample(W_ASYM, 6, 0.3, seed)
    assert streams == [0, 1]
    assert g.to_dump() == _numpy_graph(W_ASYM, 6, 0.3, seed).to_dump()


def test_lone_sample_after_replicate_seed_builds_its_block():
    sampler._lane_labels.cache_clear()
    seed = replicate_seed(41, 10, 2 * SEED_BLOCK + 7)
    g = sample(W_THREE, 10, 0.5, seed)
    assert sampler._lane_labels.cache_info().currsize == 1
    assert g.to_dump() == _numpy_graph(W_THREE, 10, 0.5, seed).to_dump()


# ---------------------------------------------------------------------------
# schedules and regimes


def test_schedule_rho():
    assert schedule_rho(SparsitySchedule(1.0, 0.5), 100) == pytest.approx(0.1)
    assert schedule_rho(SparsitySchedule(1.0, 0.0), 12345) == 1.0
    assert schedule_rho(SparsitySchedule(2.0, 1.0), 1000) == pytest.approx(0.002)
    assert schedule_rho(SparsitySchedule(5.0, 0.1), 2) == 1.0  # clamped


def test_schedule_validation():
    with pytest.raises(ValueError):
        SparsitySchedule(0.0, 0.5)
    with pytest.raises(ValueError):
        SparsitySchedule(1.0, -0.1)
    with pytest.raises(ValueError):
        schedule_rho(SparsitySchedule(1.0, 0.5), 0)


@pytest.mark.parametrize("a,gamma,message", [
    (math.nan, 0.5, "amplitude nan must be positive and finite"),
    (math.inf, 0.5, "amplitude inf must be positive and finite"),
    (1.0, math.nan, "exponent nan must be nonnegative and finite"),
    (1.0, math.inf, "exponent inf must be nonnegative and finite"),
], ids=["a_nan", "a_inf", "gamma_nan", "gamma_inf"])
def test_schedule_rejects_nan_and_infinity(a, gamma, message):
    with pytest.raises(ValueError, match=message):
        SparsitySchedule(a, gamma)


def test_classify_regime_triangle():
    k3 = named_motif("triangle")
    assert classify_regime(k3, 1.2) == "below_containment"
    assert classify_regime(k3, 1.0) == "at_containment"
    assert classify_regime(k3, 0.8) == "edge_dominated"
    assert classify_regime(k3, 2 / 3) == "critical"
    assert classify_regime(k3, Fraction(2, 3)) == "critical"
    assert classify_regime(k3, 0.5) == "label_dominated"
    assert classify_regime(k3, 0.0) == "dense"
    with pytest.raises(ValueError):
        classify_regime(k3, -0.5)


def test_critical_schedule_pins_the_product():
    for name, c in (("edge", 5.0), ("triangle", 1.7), ("c4", 0.4)):
        m = named_motif(name)
        s = critical_schedule(m, c)
        from graphon_motifs import density_exponents
        m1 = float(density_exponents(m).m1)
        for n in (100, 1000, 4000):
            rho = schedule_rho(s, n)
            assert n * rho ** m1 == pytest.approx(c, rel=1e-9)
