import math
import pickle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_motifs import (
    Motif,
    StepGraphon,
    critical_edge_variance_share,
    degree_function,
    density_exponents,
    hom_density,
    is_motif_regular,
    multipoint_density,
    named_graphon,
    named_motif,
    projection_variance,
    regularity_report,
)
from graphon_motifs.graphon import _arrays
from util import (
    connected_classes_up_to,
    copies_on_labels,
    critical_edge_variance_share_closed_form,
    join_catalog,
    mean_rooted_density,
    naive_hom_density,
    random_graphon,
    random_motif,
    reference_blocks_of,
    rooted_density,
    split_blocks,
)

K2 = named_motif("edge")
P3 = named_motif("path3")
K3 = named_motif("triangle")
W_SYM = named_graphon("W_sym")
W_ASYM = named_graphon("W_asym")
# Three blocks with non-dyadic widths, on which multiplying the edge values
# before the pi factors moves the last bit of c5's and fig2a's densities.
W_3 = StepGraphon((0.05, 0.4, 0.55), ((0.35, 0.85, 0.25), (0.85, 0.35, 0.05),
                                      (0.25, 0.05, 0.8)))
# Irregular for the edge by 5e-8 in one block's degree, so its xi is 2.5e-15.
W_NEARLY_FLAT = StepGraphon((0.5, 0.5), ((0.5, 0.5), (0.5, 0.5000002)))


def test_graphon_validation():
    with pytest.raises(ValueError):
        StepGraphon((0.5, 0.4), ((0.5, 0.5), (0.5, 0.5)))  # widths not unit sum
    with pytest.raises(ValueError):
        StepGraphon((0.5, 0.5), ((0.5, 0.4), (0.5, 0.5)))  # asymmetric
    with pytest.raises(ValueError):
        StepGraphon((0.5, 0.5), ((1.5, 0.2), (0.2, 0.1)))  # out of range
    with pytest.raises(ValueError):
        StepGraphon((1.0,), ((0.0,),))  # degenerate edge density
    with pytest.raises(ValueError):
        StepGraphon((1.0, -0.0), ((0.5, 0.5), (0.5, 0.5)))


@pytest.mark.parametrize("pi", [(math.nan, 1.0), (0.5, math.nan),
                                (math.inf, 1.0)], ids=["nan", "nan2", "inf"])
def test_graphon_rejects_nan_and_infinite_widths(pi):
    with pytest.raises(ValueError, match="must be positive and finite"):
        StepGraphon(pi, ((0.5, 0.5), (0.5, 0.5)))


@pytest.mark.parametrize("pi,values,message", [
    (("0.5", 0.5), ((0.5, 0.5), (0.5, 0.5)), "block width '0.5' is not"),
    ((True,), ((0.5,),), "block width True is not a real number"),
    ((1.0,), ((True,),), "graphon value True is not a real number"),
    ((1.0,), (("0.5",),), "graphon value '0.5' is not a real number"),
    ((1.0,), ((np.bool_(True),),), "graphon value np.True_ is not"),
], ids=["str_width", "bool_width", "bool_value", "str_value",
        "numpy_bool_value"])
def test_graphon_needs_real_numbers(pi, values, message):
    with pytest.raises(ValueError, match=message):
        StepGraphon(pi, values)
    with pytest.raises(ValueError, match=message):
        StepGraphon.from_json_dict({"pi": list(pi),
                                    "values": [list(r) for r in values]})


def test_graphon_accepts_integers_and_numpy_reals():
    w = StepGraphon(np.array([0.5, 0.5]),
                    ((np.float32(0.5), 1), (np.int64(1), np.float64(0.25))))
    assert w == StepGraphon((0.5, 0.5), ((0.5, 1.0), (1.0, 0.25)))
    assert all(type(v) is float for v in (*w.pi, *w.values[0], *w.values[1]))


@pytest.mark.parametrize("name", ["const:0.25", "W_sym", "W_asym"])
def test_graphons_built_apart_compare_and_hash_equal(name):
    w = named_graphon(name)
    others = [named_graphon(name), StepGraphon(list(w.pi), w.values),
              StepGraphon.from_json_dict(w.to_json_dict()),
              pickle.loads(pickle.dumps(w))]
    for v in others:
        assert v is not w
        assert v == w and hash(v) == hash(w) == hash((w.pi, w.values))
    # a graphon built apart finds what a cache stored under another one
    assert len({w, *others}) == 1
    assert _arrays(others[-1]) is _arrays(w)
    changed = StepGraphon(w.pi, tuple(tuple(v / 2 for v in row)
                                      for row in w.values))
    assert changed != w and hash(changed) != hash(w)


def test_named_graphons():
    assert named_graphon("const:0.25").values == ((0.25,),)
    with pytest.raises(ValueError):
        named_graphon("bogus")


def test_blocks_of():
    w = StepGraphon((0.25, 0.75), ((0.5, 0.5), (0.5, 0.5)))
    blocks = w.blocks_of([0.0, 0.2499, 0.25, 0.9, 0.999999])
    assert blocks.tolist() == [0, 0, 1, 1, 1]


# the cumulative widths of ten blocks of 0.1 end at 1 - 2^-53, below 1
BLOCKS_OF_GRAPHONS = [
    StepGraphon.constant(0.4), W_ASYM, W_3,
    StepGraphon((0.1,) * 10, ((0.5,) * 10,) * 10),
    random_graphon(np.random.default_rng(81), blocks=4),
]
BLOCKS_OF_IDS = ["one_block", "W_asym", "W_3", "ten_tenths", "random4"]


@pytest.mark.parametrize("w", BLOCKS_OF_GRAPHONS, ids=BLOCKS_OF_IDS)
def test_blocks_of_matches_the_clamped_formula_at_the_boundaries(w):
    cum = np.cumsum(np.array(w.pi))
    edges = np.concatenate([cum, [0.0, 1.0 - 2.0 ** -53]])
    latents = np.concatenate([edges, np.nextafter(edges, 0.0),
                              np.nextafter(edges, 1.0)])
    latents = latents[(latents >= 0.0) & (latents < 1.0)]
    got = w.blocks_of(latents)
    assert got.dtype == np.int64
    assert got.tolist() == reference_blocks_of(w, latents).tolist()


@pytest.mark.parametrize("w", BLOCKS_OF_GRAPHONS, ids=BLOCKS_OF_IDS)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40))
def test_blocks_of_matches_the_clamped_formula(w, latents):
    got = w.blocks_of(latents)
    assert got.dtype == np.int64 and got.shape == (len(latents),)
    assert got.tolist() == reference_blocks_of(w, latents).tolist()


# ---------------------------------------------------------------------------
# densities


def test_hom_density_constant_kernel():
    for m in [K2, P3, K3, named_motif("c4"), named_motif("fig1b")]:
        w = StepGraphon.constant(0.37)
        assert hom_density(m, w) == pytest.approx(0.37 ** m.edge_count, rel=1e-12)


def test_hom_density_fixtures():
    assert hom_density(K2, W_ASYM) == pytest.approx(0.4, abs=1e-12)
    assert hom_density(K3, W_SYM) == pytest.approx(0.152, abs=1e-12)
    assert hom_density(P3, W_ASYM) == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("name,w,value", [
    ("edge", W_ASYM, 0.4),
    ("triangle", W_SYM, 0.15200000000000005),
    ("c4", W_SYM, 0.07060000000000002),
    ("c5", W_3, 0.01850993154482423),
    ("fig2a", W_3, 0.0062813946549296696),
], ids=["edge", "triangle", "c4", "c5", "fig2a"])
def test_hom_density_bits(name, w, value):
    # expected_count, and so every summary, is read from these bits:
    # pi factors first, then the edges, then one sum in C order
    assert hom_density(named_motif(name), w) == value


def test_hom_density_against_naive_sum():
    rng = np.random.default_rng(12)
    for _ in range(25):
        w = random_graphon(rng)
        m = random_motif(rng, max_vertices=5)
        assert hom_density(m, w) == pytest.approx(naive_hom_density(m, w),
                                                  rel=1e-12)


def test_hom_density_in_unit_interval():
    rng = np.random.default_rng(13)
    for _ in range(25):
        w = random_graphon(rng)
        m = random_motif(rng, max_vertices=5)
        t = hom_density(m, w)
        assert 0.0 < t <= 1.0


def test_hom_density_cap():
    big = Motif(12, [(1, 2)])
    w = random_graphon(np.random.default_rng(0), blocks=4)
    with pytest.raises(ValueError):
        hom_density(big, w)  # 4^12 > cap
    # a pinned vertex still counts toward the cap
    with pytest.raises(ValueError, match=r"4\^12 block assignments"):
        multipoint_density(big, {1: 0}, w)


def test_rooted_density_fixtures():
    assert rooted_density(K2, 1, 0, W_ASYM) == pytest.approx(0.6, abs=1e-12)
    assert rooted_density(K3, 1, 0, W_SYM) == pytest.approx(0.152, abs=1e-12)


def test_rooted_density_total_probability():
    rng = np.random.default_rng(14)
    for _ in range(15):
        w = random_graphon(rng)
        m = random_motif(rng, max_vertices=4)
        t = hom_density(m, w)
        for a in range(1, m.vertex_count + 1):
            mix = sum(w.pi[b] * rooted_density(m, a, b, w)
                      for b in range(w.block_count))
            assert mix == pytest.approx(t, abs=1e-10)


def test_mean_rooted_density():
    assert mean_rooted_density(K2, 0, W_ASYM) == pytest.approx(0.6, abs=1e-12)
    assert mean_rooted_density(K3, 0, W_SYM) == pytest.approx(0.152, abs=1e-12)
    w = StepGraphon.constant(0.3)
    assert mean_rooted_density(K3, 0, w) == pytest.approx(0.027, rel=1e-12)


def test_degree_function():
    assert degree_function(W_ASYM).tolist() == pytest.approx([0.6, 0.2])
    assert degree_function(W_SYM).tolist() == pytest.approx([0.5, 0.5])
    assert degree_function(StepGraphon.constant(0.7)).tolist() == [0.7]


def test_degree_function_is_rooted_edge_density():
    rng = np.random.default_rng(15)
    for _ in range(10):
        w = random_graphon(rng)
        d = degree_function(w)
        for b in range(w.block_count):
            assert rooted_density(K2, 1, b, w) == pytest.approx(float(d[b]),
                                                                abs=1e-12)


def test_multipoint_density():
    assert multipoint_density(K2, {}, W_ASYM) == pytest.approx(0.4, abs=1e-12)
    assert multipoint_density(K2, {1: 0, 2: 1}, W_ASYM) == pytest.approx(0.3)
    # averaging pinned blocks with pi weights recovers the unpinned density
    rng = np.random.default_rng(16)
    for _ in range(10):
        w = random_graphon(rng)
        m = random_motif(rng, max_vertices=4)
        v = int(rng.integers(1, m.vertex_count + 1))
        mix = sum(w.pi[b] * multipoint_density(m, {v: b}, w)
                  for b in range(w.block_count))
        assert mix == pytest.approx(hom_density(m, w), abs=1e-10)
    with pytest.raises(ValueError):
        multipoint_density(K2, {3: 0}, W_ASYM)
    with pytest.raises(ValueError):
        multipoint_density(K2, {1: 2}, W_ASYM)


# ---------------------------------------------------------------------------
# regularity


def test_regularity_fixtures():
    rep = regularity_report(K2, W_SYM)
    assert rep.is_regular
    rep = regularity_report(K2, W_ASYM)
    assert not rep.is_regular
    assert rep.max_deviation == pytest.approx(0.2, abs=1e-12)
    assert is_motif_regular(K3, StepGraphon.constant(0.4))


def test_regularity_report_matches_the_pinned_densities():
    # t and every g_b come from one kernel array; they agree with
    # hom_density bit for bit and with the one-hot rooted densities
    rng = np.random.default_rng(19)
    for w in (W_SYM, W_ASYM, W_3, random_graphon(rng), random_graphon(rng)):
        for m in (K2, P3, K3, named_motif("c5"), random_motif(rng, 5)):
            rep = regularity_report(m, w)
            assert rep.t == hom_density(m, w)
            assert rep.per_block_mean_rooted == pytest.approx(
                [mean_rooted_density(m, b, w) for b in range(w.block_count)],
                rel=1e-12, abs=0)


def test_regularity_mixture_identity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        w = random_graphon(rng)
        m = random_motif(rng, max_vertices=4)
        rep = regularity_report(m, w)
        mix = sum(p * v for p, v in zip(w.pi, rep.per_block_mean_rooted))
        assert mix == pytest.approx(rep.t, abs=1e-10)


def test_block_swap_symmetric_graphons_are_regular_for_everything():
    rng = np.random.default_rng(18)
    for _ in range(8):
        a, b = rng.uniform(0.1, 0.9, size=2)
        w = StepGraphon((0.5, 0.5), ((a, b), (b, a)))
        m = random_motif(rng, max_vertices=5)
        assert is_motif_regular(m, w)
        assert projection_variance(m, w) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# projection variance


def brute_projection_variance(m, w):
    """Enumerate pairs of copies on two label sets sharing one vertex."""
    k = m.vertex_count
    left = list(range(1, k + 1))
    right = list(range(k, 2 * k))
    t = hom_density(m, w)
    total = 0.0
    for e_left in copies_on_labels(m, tuple(left)):
        for e_right in copies_on_labels(m, tuple(right)):
            union = Motif(2 * k - 1, list(e_left | e_right))
            total += hom_density(union, w) - t * t
    return total


def test_projection_variance_fixture():
    assert projection_variance(K2, W_ASYM) == pytest.approx(0.04, abs=1e-12)
    assert projection_variance(K2, W_SYM) == pytest.approx(0.0, abs=1e-12)
    assert projection_variance(K3, StepGraphon.constant(0.5)) == pytest.approx(
        0.0, abs=1e-12)


def test_projection_variance_against_pair_enumeration():
    rng = np.random.default_rng(19)
    cases = [(random_graphon(rng, blocks=2), random_motif(rng, max_vertices=4))
             for _ in range(20)]
    cases += [(random_graphon(rng, blocks=3), random_motif(rng, max_vertices=4))
              for _ in range(8)]
    cases += [(random_graphon(rng, blocks=3), m)
              for m in (named_motif("c5"), Motif(5, [(1, b) for b in range(2, 6)]))]
    for w, m in cases:
        assert projection_variance(m, w) == pytest.approx(
            brute_projection_variance(m, w), abs=1e-10)


def test_projection_variance_nonnegative():
    rng = np.random.default_rng(20)
    for _ in range(30):
        w = random_graphon(rng)
        m = random_motif(rng, max_vertices=4)
        assert projection_variance(m, w) >= 0.0


def test_projection_variance_zero_iff_regular():
    rng = np.random.default_rng(21)
    graphons = [StepGraphon.constant(0.5), W_SYM,
                StepGraphon((0.5, 0.5), ((0.3, 0.7), (0.7, 0.3)))]
    graphons += [random_graphon(rng) for _ in range(12)]
    motifs = [K2, P3, K3, named_motif("c4"), named_motif("triangle_pendant")]
    for w in graphons:
        for m in motifs:
            regular = is_motif_regular(m, w)
            xi = projection_variance(m, w)
            assert regular == (xi <= 1e-10), (m, w.pi, xi)


def test_split_blocks_leave_every_analytic_value_unchanged():
    w6 = split_blocks(W_ASYM, 3)
    assert w6.block_count == 6
    rel = dict(rel=1e-12, abs=0.0)
    for name in ("edge", "triangle", "c4", "c5", "fig2a"):
        m = named_motif(name)
        assert hom_density(m, w6) == pytest.approx(hom_density(m, W_ASYM), **rel)
        assert projection_variance(m, w6) == pytest.approx(
            projection_variance(m, W_ASYM), **rel)
        rep6, rep2 = regularity_report(m, w6), regularity_report(m, W_ASYM)
        assert rep6.is_regular == rep2.is_regular
        assert rep6.max_deviation == pytest.approx(rep2.max_deviation, **rel)
        assert rep6.per_block_mean_rooted == pytest.approx(
            [g for g in rep2.per_block_mean_rooted for _ in range(3)], **rel)
        assert critical_edge_variance_share(m, w6, 1.0) == pytest.approx(
            critical_edge_variance_share(m, W_ASYM, 1.0), **rel)


# ---------------------------------------------------------------------------
# critical share


def test_critical_share_fixture():
    assert critical_edge_variance_share(K2, W_ASYM, 1.0) == pytest.approx(5 / 6)
    assert critical_edge_variance_share(K2, W_ASYM, 5.0) == pytest.approx(0.5)
    assert critical_edge_variance_share_closed_form(K2, W_ASYM, 1.0) == \
        pytest.approx(5 / 6)


def catalog_share(m, w, c):
    """The critical share with the edge term summed over the union classes
    of ``util.join_catalog``: each m1-maximizing intersection class f
    weighs 1/(c^{|V(f)|-1} (2k - |V(f)|)!) times sum mult * t(union)."""
    k = m.vertex_count
    label = k * k / math.factorial(k) ** 2 * projection_variance(m, w)
    edge = 0.0
    for f in density_exponents(m).m1_maximizers:
        fv = f.vertex_count
        edge += sum(mult * hom_density(rep, w)
                    for rep, mult in join_catalog(m, f)) / (
            c ** (fv - 1) * math.factorial(2 * k - fv))
    return 1.0 - label / (label + edge)


def test_critical_share_equals_the_join_catalog_sum():
    rng = np.random.default_rng(29)
    graphons = [W_ASYM] + [random_graphon(rng, blocks=3) for _ in range(2)]
    checked = 0
    for w in graphons:
        for m in connected_classes_up_to(5):
            if is_motif_regular(m, w):
                continue
            for c in (0.5, 2.0):
                assert critical_edge_variance_share(m, w, c) == \
                    pytest.approx(catalog_share(m, w, c), rel=1e-12, abs=0.0)
            checked += 1
    assert checked == 3 * 30


def test_critical_share_refuses_seven_vertices():
    path7 = Motif(7, [(i, i + 1) for i in range(1, 7)])
    assert not is_motif_regular(path7, W_ASYM)
    with pytest.raises(ValueError, match="critical share capped at 6 motif "
                                         "vertices, not 7"):
        critical_edge_variance_share(path7, W_ASYM, 1.0)


def test_critical_share_closed_form_agreement():
    for name in ("edge", "triangle", "c4", "c5", "k4"):
        m = named_motif(name)
        a = critical_edge_variance_share(m, W_ASYM, 1.3)
        b = critical_edge_variance_share_closed_form(m, W_ASYM, 1.3)
        assert a == pytest.approx(b, abs=1e-9)


def test_critical_share_monotone_and_bounded():
    rng = np.random.default_rng(23)
    for _ in range(8):
        w = random_graphon(rng, blocks=2)
        for m in (K2, K3, P3):
            if is_motif_regular(m, w):
                continue
            vals = [critical_edge_variance_share(m, w, c)
                    for c in (0.1, 1.0, 10.0)]
            assert all(0.0 < v < 1.0 for v in vals)
            assert vals[0] > vals[1] > vals[2]


def test_critical_share_regular_case_rejected():
    with pytest.raises(ValueError):
        critical_edge_variance_share(K2, W_SYM, 1.0)
    with pytest.raises(ValueError):
        critical_edge_variance_share(K2, W_ASYM, 0.0)


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_critical_share_c_must_be_positive_and_finite(c):
    # NaN would give a NaN share and infinity a share of 0.0
    for share in (critical_edge_variance_share,
                  critical_edge_variance_share_closed_form):
        with pytest.raises(ValueError, match="must be positive and finite"):
            share(K2, W_ASYM, c)


def test_critical_share_follows_the_regularity_test():
    rep = regularity_report(K2, W_NEARLY_FLAT)
    assert not rep.is_regular
    assert rep.max_deviation == pytest.approx(5e-8, rel=1e-6)
    assert 0.0 < projection_variance(K2, W_NEARLY_FLAT) < 1e-12
    shares = [critical_edge_variance_share(K2, W_NEARLY_FLAT, c)
              for c in (0.5, 1.0, 2.0)]
    shares.append(critical_edge_variance_share_closed_form(
        K2, W_NEARLY_FLAT, 1.0))
    assert all(0.0 < v <= 1.0 for v in shares), shares
    for share in (critical_edge_variance_share,
                  critical_edge_variance_share_closed_form):
        with pytest.raises(ValueError, match="undefined in regular case"):
            share(K2, W_SYM, 1.0)


def test_closed_form_requires_strictly_strongly_balanced():
    with pytest.raises(ValueError):
        critical_edge_variance_share_closed_form(
            named_motif("triangle_pendant"), W_ASYM, 1.0)
