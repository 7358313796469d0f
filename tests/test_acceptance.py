"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Statistical criteria run at fixed seeds, so every gate below is
deterministic.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines as they complete.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from graphon_motifs import (
    ExperimentConfig,
    SparsitySchedule,
    StepGraphon,
    conditional_variance,
    count,
    critical_schedule,
    decompose,
    density_exponents,
    expected_count,
    exact_variance,
    is_motif_regular,
    named_graphon,
    named_motif,
    projection_variance,
    run_experiment,
    sample,
)
from graphon_motifs.experiments import write_result
from graphon_motifs.sampler import replicate_seed, resample_edges
from graphon_motifs import canonical_relabel
from graphon_motifs.motif import canonical_key

from util import (
    all_graphs_on,
    connected_classes_up_to,
    label_ustatistic,
    random_graphon,
    subset_count_oracle,
    variance_and_se,
)

K2 = named_motif("edge")
P3 = named_motif("path3")
K3 = named_motif("triangle")
W_SYM = named_graphon("W_sym")
W_ASYM = named_graphon("W_asym")


def _report(num: int, label: str, ok: bool, detail: str, t0: float,
            budget: float):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status} - {label}: {detail} "
          f"[{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def _motif_classes_up_to(max_vertices: int, min_edges: int = 0):
    seen = {}
    for k in range(1, max_vertices + 1):
        for g in all_graphs_on(k):
            if g.edge_count < min_edges:
                continue
            key = canonical_key(g)
            if key not in seen:
                seen[key] = canonical_relabel(g)
    return list(seen.values())


def test_c01_counting_oracle_equivalence():
    t0 = time.perf_counter()
    motifs = _motif_classes_up_to(4)
    rng = np.random.default_rng(101)
    mismatches = 0
    for i in range(100):
        n = int(rng.integers(4, 11))
        rho = float(rng.uniform(0.2, 0.95))
        g = sample(W_ASYM, n, rho, replicate_seed(1001, n, i))
        for m in motifs:
            if count(g, m) != subset_count_oracle(n, g.edge_list(), m):
                mismatches += 1
    _report(1, "counting oracle equivalence", mismatches == 0,
            f"{100 * len(motifs)} comparisons, {mismatches} mismatches",
            t0, 30.0)


def test_c02_density_exponent_fixtures():
    t0 = time.perf_counter()
    fig1b = density_exponents(named_motif("fig1b"))
    pend = density_exponents(named_motif("triangle_pendant"))
    fig2a = density_exponents(named_motif("fig2a"))
    ok = (fig1b.m == Fraction(5, 4) and not fig1b.balanced
          and pend.m1 == Fraction(3, 2) and not pend.strongly_balanced
          and fig2a.strictly_balanced and not fig2a.strongly_balanced)
    _report(2, "density-exponent fixtures", ok,
            f"fig1b m={fig1b.m}, pendant m1={pend.m1}, "
            f"fig2a strict={fig2a.strictly_balanced}", t0, 1.0)


def test_c03_exponent_order_sweep():
    t0 = time.perf_counter()
    classes = connected_classes_up_to(6)
    violations = 0
    for m in classes:
        prof = density_exponents(m)
        if not prof.m < prof.m1:
            violations += 1
        if prof.strongly_balanced and not prof.strictly_balanced:
            violations += 1
    _report(3, "exponent ordering and balance implication",
            violations == 0,
            f"{len(classes)} connected classes, {violations} violations",
            t0, 120.0)


def test_c04_expectation_identity():
    t0 = time.perf_counter()
    n, rho, reps = 50, 0.1, 20000
    ref = expected_count(K3, W_SYM, n, rho)
    xs = np.empty(reps)
    for r in range(reps):
        g = sample(W_SYM, n, rho, replicate_seed(4001, n, r))
        xs[r] = count(g, K3)
    se = xs.std(ddof=1) / math.sqrt(reps)
    dev = abs(xs.mean() - ref)
    ok = dev <= 4 * se and abs(ref - 2.9792) < 1e-10
    _report(4, "expectation identity", ok,
            f"mean={xs.mean():.4f}, ref={ref:.4f}, dev={dev / se:.2f} se",
            t0, 60.0)


def test_c05_exact_variance_oracle():
    t0 = time.perf_counter()
    details = []
    ok = True
    fixtures = [
        (K2, W_ASYM, 6, 0.3, 5001),
        (K3, StepGraphon.constant(1.0), 5, 0.5, 5002),
    ]
    for m, w, n, rho, seed in fixtures:
        want = exact_variance(m, w, n, rho)
        xs = np.empty(200000)
        for r in range(200000):
            xs[r] = count(sample(w, n, rho, replicate_seed(seed, n, r)), m)
        v, se = variance_and_se(xs)
        dev = abs(v - want) / se
        details.append(f"exact={want:.4f} emp={v:.4f} ({dev:.2f} se)")
        ok = ok and dev <= 3.0
    _report(5, "exact-variance oracle", ok, "; ".join(details), t0, 120.0)


def test_c06_decomposition_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6001)
    ok = True
    worst = 0.0
    for i in range(100):
        m = (K2, P3, K3)[i % 3]
        w = random_graphon(rng, blocks=2)
        n = int(rng.integers(m.vertex_count + 2, 40))
        rho = float(rng.uniform(0.05, 0.9))
        g = sample(w, n, rho, replicate_seed(6002, n, i))
        d = decompose(g, m, w)
        scale = max(1.0, abs(d.delta))
        err = abs(d.delta - (d.delta1 + d.delta2)) / scale
        T = label_ustatistic(g.latents, m, w)
        rhs = math.comb(n, m.vertex_count) * rho ** m.edge_count * T
        err2 = abs(d.delta2 - rhs) / max(1.0, abs(d.delta2))
        worst = max(worst, err, err2)
        ok = ok and err <= 1e-9 and err2 <= 1e-9
    wconst = StepGraphon.constant(0.6)
    for i in range(10):
        g = sample(wconst, 25, 0.4, replicate_seed(6003, 25, i))
        d = decompose(g, K3, wconst)
        ok = ok and d.delta2 == 0.0
    _report(6, "decomposition identities", ok,
            f"100 instances, worst relative error {worst:.2e}", t0, 60.0)


def test_c07_projection_variance_regularity_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7001)
    graphons = [StepGraphon.constant(0.7), W_SYM,
                StepGraphon((0.5, 0.5), ((0.25, 0.75), (0.75, 0.25))),
                StepGraphon((0.5, 0.5), ((0.6, 0.2), (0.2, 0.6)))]
    graphons += [random_graphon(rng) for _ in range(16)]
    motifs = _motif_classes_up_to(5, min_edges=1)
    disagreements = 0
    for w in graphons:
        for m in motifs:
            regular = is_motif_regular(m, w)
            xi = projection_variance(m, w)
            if regular != (xi <= 1e-10) or xi < -1e-12:
                disagreements += 1
    fixture_ok = abs(projection_variance(K2, W_ASYM) - 0.04) < 1e-12
    _report(7, "projection variance/regularity equivalence",
            disagreements == 0 and fixture_ok,
            f"{len(motifs)} motifs x {len(graphons)} graphons, "
            f"{disagreements} disagreements; fixture 0.04 ok={fixture_ok}",
            t0, 60.0)


def test_c08_containment_threshold():
    t0 = time.perf_counter()
    w = StepGraphon.constant(1.0)
    above = ExperimentConfig("containment", K3, w,
                             SparsitySchedule(1.0, 0.8), (1000,), 1000, 8001)
    below = ExperimentConfig("containment", K3, w,
                             SparsitySchedule(1.0, 1.2), (1000,), 1000, 8002)
    rec_b = run_experiment(below).records[0]
    rec_a = run_experiment(above).records[0]
    ok = (rec_b.containment_fraction <= 0.02
          and rec_a.containment_fraction >= 0.9 and rec_a.mean_x >= 5.0)
    _report(8, "containment threshold", ok,
            f"below: frac={rec_b.containment_fraction:.4f}; "
            f"above: frac={rec_a.containment_fraction:.3f}, "
            f"mean={rec_a.mean_x:.2f}", t0, 120.0)


def test_c09_clt_regular_case():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("clt", K3, StepGraphon.constant(0.5),
                           SparsitySchedule(1.0, 0.5), (300,), 2000, 31415)
    rec = run_experiment(cfg).records[0]
    ks = rec.ks_x.ks_statistic
    _report(9, "normality in the regular case", ks < 0.05,
            f"KS={ks:.4f} at n=300, 2000 replicates", t0, 180.0)


def test_c10_variance_phase_transition():
    t0 = time.perf_counter()
    sparse = ExperimentConfig("clt", K2, W_ASYM,
                              SparsitySchedule(18.0, 1.5), (2000,), 2000, 1002)
    dense = ExperimentConfig("clt", K2, W_ASYM,
                             SparsitySchedule(2.0, 0.5), (2000,), 2000, 1002)
    rec_s = run_experiment(sparse).records[0]
    rec_d = run_experiment(dense).records[0]
    ok = (rec_s.r2 <= 0.1 and rec_s.ks_x.ks_statistic < 0.05
          and rec_d.r2 >= 0.9 and rec_d.ks_x.ks_statistic < 0.05)
    _report(10, "variance phase transition", ok,
            f"edge regime: share2={rec_s.r2:.4f}, KS={rec_s.ks_x.ks_statistic:.4f}; "
            f"label regime: share2={rec_d.r2:.4f}, KS={rec_d.ks_x.ks_statistic:.4f}",
            t0, 120.0)


def test_c11_critical_share():
    t0 = time.perf_counter()
    details = []
    ok = True
    for c, tol in ((1.0, 0.03), (5.0, 0.04)):
        cfg = ExperimentConfig("critical_kappa", K2, W_ASYM,
                               critical_schedule(K2, c), (2000,), 5000, 1003)
        rec = run_experiment(cfg).records[0]
        target = 1.0 - rec.kappa_theory
        dev = abs(rec.r2 - target)
        ok = (ok and dev <= tol and abs(rec.corr_delta12) <= 0.05
              and rec.ks_delta1.ks_statistic < 0.05
              and rec.ks_delta2.ks_statistic < 0.05
              and rec.r1 + rec.r2 == 1.0)
        details.append(f"c={c:g}: share2={rec.r2:.4f} vs {target:.4f}, "
                       f"corr={rec.corr_delta12:.3f}, "
                       f"KS=({rec.ks_delta1.ks_statistic:.3f},"
                       f"{rec.ks_delta2.ks_statistic:.3f})")
    _report(11, "critical variance share", ok, "; ".join(details), t0, 180.0)


def test_c12_conditional_clt():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("conditional_clt", K3, W_SYM,
                           SparsitySchedule(1.0, 0.5), (200,), 2000, 2024)
    rec = run_experiment(cfg).records[0]
    ks = rec.cond_ks.ks_statistic

    # small-n cross-check: empirical conditional variance vs the exact oracle
    rho6 = 6.0 ** -0.5
    lat = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(606))).random(6)
    want = conditional_variance(lat, K3, W_SYM, rho6)
    xs = np.empty(100000)
    for r in range(100000):
        xs[r] = count(resample_edges(W_SYM, lat, rho6,
                                     replicate_seed(1212, 6, r)), K3)
    v, se = variance_and_se(xs)
    dev = abs(v - want) / se
    ok = ks < 0.05 and dev <= 3.0
    _report(12, "conditional normality", ok,
            f"KS={ks:.4f} at n=200; small-n variance dev={dev:.2f} se",
            t0, 180.0)


def test_c13_determinism(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig("clt", K2, W_ASYM,
                           SparsitySchedule(1.0, 0.5), (150,), 300, 13001)
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    write_result(run_experiment(cfg), d1)
    write_result(run_experiment(cfg), d2)
    same = all((d1 / f).read_bytes() == (d2 / f).read_bytes()
               for f in ("summary.json", "summary.csv"))
    _report(13, "byte-identical determinism", same,
            "two runs produce identical summary files", t0, 60.0)
