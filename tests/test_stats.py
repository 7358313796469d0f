import numpy as np
import pytest
import scipy.special
from hypothesis import given
from hypothesis import strategies as st

from graphon_motifs import (
    ExperimentConfig,
    SparsitySchedule,
    ks_test,
    named_graphon,
    named_motif,
    normal_cdf,
    run_experiment,
    standardize,
)
from graphon_motifs.stats import (
    covariance_and_se,
    mean_and_se,
    sample_skewness,
    variance_shares,
)

from util import variance_and_se


def test_standardize_identity_and_fixture():
    x = np.array([1.0, 2.0, 3.0])
    assert standardize(x, 0.0, 1.0).tolist() == [1.0, 2.0, 3.0]
    assert standardize([2.0, 4.0], 3.0, 1.0).tolist() == [-1.0, 1.0]
    with pytest.raises(ValueError):
        standardize(x, 0.0, 0.0)


def test_standardize_empirical_moments():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, size=4000)
    z = standardize(x, float(x.mean()), float(x.std(ddof=1)))
    assert abs(z.mean()) < 1e-12
    assert abs(z.std(ddof=1) - 1.0) < 1e-12


def test_normal_cdf_values():
    assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)
    assert normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    for x in (-3.5, -1.0, 0.3, 2.2):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-12)


def test_normal_cdf_against_scipy():
    grid = np.linspace(-8.0, 8.0, 10001)
    ref = scipy.special.ndtr(grid)
    got = np.array([normal_cdf(float(x)) for x in grid])
    assert np.max(np.abs(got - ref)) < 1e-10
    assert np.all(np.diff(got) >= 0)


def test_ks_on_true_normals_is_small():
    rng = np.random.default_rng(7)
    rep = ks_test(rng.standard_normal(10000))
    assert rep.ks_statistic < 0.02  # 1.63/sqrt(N) at the 1% level is 0.0163


def test_ks_point_mass():
    rep = ks_test(np.zeros(100))
    assert rep.ks_statistic == pytest.approx(0.5, abs=1e-12)
    assert rep.sd == 0.0


def test_ks_uniform_is_far():
    rng = np.random.default_rng(8)
    rep = ks_test(rng.random(10000))
    assert rep.ks_statistic > 0.2


def test_ks_requires_samples_and_ignores_order():
    with pytest.raises(ValueError):
        ks_test(np.zeros(49))
    rng = np.random.default_rng(9)
    x = rng.standard_normal(500)
    a = ks_test(x).ks_statistic
    b = ks_test(np.sort(x)[::-1]).ks_statistic
    assert a == b


def test_variance_ratio_degenerate_component():
    rng = np.random.default_rng(10)
    v1 = float(np.var(rng.standard_normal(500), ddof=1))
    r1, r2 = variance_shares(v1, 0.0)
    assert (r1, r2) == (1.0, 0.0)


def test_variance_ratio_swap_symmetry_and_sum():
    rng = np.random.default_rng(11)
    va = float(np.var(rng.standard_normal(1000) * 2.0, ddof=1))
    vb = float(np.var(rng.standard_normal(1000), ddof=1))
    r1, r2 = variance_shares(va, vb)
    s1, s2 = variance_shares(vb, va)
    # swapping swaps the pair (up to one ulp: the complements are computed
    # as 1 - ratio so that each pair sums to 1 exactly)
    assert r1 == pytest.approx(s2, rel=1e-14)
    assert r2 == pytest.approx(s1, rel=1e-14)
    assert r1 + r2 == 1.0
    assert s1 + s2 == 1.0


@given(st.floats(0.0, 1e300), st.floats(0.0, 1e300))
def test_variance_shares_sum_to_one_exactly(v1, v2):
    if v1 + v2 > 0:
        r1, r2 = variance_shares(v1, v2)
        assert r1 == v1 / (v1 + v2)
        assert r1 + r2 == 1.0


def test_variance_ratio_and_summary_shares_agree():
    # a variance_ratio campaign's records are the shares of its cell's
    # unbiased component variances
    res = run_experiment(ExperimentConfig(
        "variance_ratio", named_motif("edge"), named_graphon("W_asym"),
        SparsitySchedule(1.0, 0.5), (40,), 120, 3))
    rec, cell = res.records[0], res.table[0]
    assert (rec.r1, rec.r2) == variance_shares(
        float(np.var(cell.delta1, ddof=1)), float(np.var(cell.delta2, ddof=1)))
    assert rec.r1 + rec.r2 == 1.0


def test_moment_helpers():
    rng = np.random.default_rng(13)
    x = rng.standard_normal(20000)
    m, se = mean_and_se(x)
    assert abs(m) < 4 * se
    v, vse = variance_and_se(x)
    assert abs(v - 1.0) < 4 * vse
    y = 0.5 * x + rng.standard_normal(20000)
    cov, cse = covariance_and_se(x, y)
    assert abs(cov - 0.5) < 4 * cse
    assert abs(sample_skewness(x)) < 0.05
