import json
import math
import threading

import numpy as np
import pytest

from graphon_motifs import (
    ExperimentConfig,
    Motif,
    SparsitySchedule,
    StepGraphon,
    critical_edge_variance_share,
    critical_schedule,
    named_graphon,
    named_motif,
    run_experiment,
)
from graphon_motifs import experiments
from graphon_motifs.experiments import replicate_rows, write_result
from graphon_motifs.seeding import SEED_BLOCK
from util import split_blocks

K2 = named_motif("edge")
K3 = named_motif("triangle")
W_ASYM = named_graphon("W_asym")


def small_cfg(kind, **over):
    base = dict(experiment_kind=kind, motif=K2, graphon=W_ASYM,
                schedule=SparsitySchedule(1.0, 0.5), n_values=(60, 120),
                replicates=150, seed=2718)
    base.update(over)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        small_cfg("bogus")
    with pytest.raises(ValueError):
        small_cfg("clt", replicates=0)
    with pytest.raises(ValueError):
        small_cfg("clt", n_values=())
    with pytest.raises(ValueError):
        small_cfg("clt", n_values=(100, 100))
    with pytest.raises(ValueError):
        small_cfg("clt", n_values=(200, 100))


def test_config_rejects_replicates_reaching_the_latent_tag():
    # replicate index _LATENT_TAG would draw the frozen latent seed; only
    # the config is built, nothing is sampled
    from graphon_motifs.experiments import _LATENT_TAG
    with pytest.raises(ValueError, match="must be below 0xfeed0000"):
        small_cfg("conditional_clt", replicates=_LATENT_TAG)
    with pytest.raises(ValueError, match="replicates must be below"):
        small_cfg("clt", replicates=_LATENT_TAG + 1)
    assert small_cfg("clt", replicates=_LATENT_TAG - 1).replicates == \
        _LATENT_TAG - 1


def test_config_refuses_a_pair_over_the_assignment_cap():
    # a 12-vertex path on 4 blocks has 4^12 block assignments: refused when
    # the config is built, before any replicate is sampled
    path12 = Motif(12, [(v, v + 1) for v in range(1, 12)])
    w4 = StepGraphon((0.25,) * 4, tuple(
        tuple(0.5 + 0.1 * (a == b) for b in range(4)) for a in range(4)))
    with pytest.raises(ValueError,
                       match=r"4\^12 block assignments exceed cap"):
        small_cfg("clt", motif=path12, graphon=w4)


@pytest.mark.parametrize("over,message", [
    (dict(n_values=(20.7,)), "n value 20.7 is not an integer"),
    (dict(n_values=(60, True)), "n value True is not an integer"),
    (dict(replicates=10.9), "replicates 10.9 is not an integer"),
    (dict(replicates=True), "replicates True is not an integer"),
    (dict(replicates="10"), "replicates '10' is not an integer"),
    (dict(seed=1.5), "seed 1.5 is not an integer"),
    (dict(seed=np.float64(2.0)),
     r"seed np.float64\(2.0\) is not an integer"),
], ids=["n_float", "n_bool", "replicates_float", "replicates_bool",
        "replicates_str", "seed_float", "seed_numpy_float"])
def test_config_rejects_non_integers(over, message):
    with pytest.raises(ValueError, match=message):
        small_cfg("clt", **over)


def test_config_accepts_numpy_integers_as_python_ints():
    cfg = small_cfg("clt", n_values=np.array([60, 120]),
                    replicates=np.int32(150), seed=np.uint64(2718))
    assert cfg == small_cfg("clt")
    assert [type(v) for v in (*cfg.n_values, cfg.replicates, cfg.seed)] \
        == [int] * 4
    json.dumps(cfg.to_json_dict())


def test_config_json_round_trip():
    cfg = small_cfg("variance_ratio")
    back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
    assert back == cfg
    named = ExperimentConfig.from_json_dict({
        "experiment_kind": "containment", "motif": "triangle",
        "graphon": "const:0.5", "schedule": {"a": 1, "gamma": 1.2},
        "n_values": [100], "replicates": 10, "seed": 5})
    assert named.motif == K3
    assert named.graphon.values == ((0.5,),)


def test_record_count_matches_n_values():
    cfg = small_cfg("containment", schedule=SparsitySchedule(1.0, 1.5))
    res = run_experiment(cfg)
    assert len(res.records) == 2
    assert [r.n for r in res.records] == [60, 120]


def test_determinism_across_runs_and_threads():
    # two serial runs, then two runs started at once on two threads: a
    # seed hand-off to the sampler that the other thread replaced gives
    # the same graph through numpy's SeedSequence
    cfg = small_cfg("clt", n_values=(80,), replicates=200)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    results = [None, None]

    def run(i):
        results[i] = run_experiment(cfg)

    workers = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    assert a.to_json() == b.to_json()
    assert [r.to_json() for r in results] == [a.to_json()] * 2
    assert all(r.table[0].x.tolist() == a.table[0].x.tolist()
               for r in results)


def test_mean_tracks_expectation_in_every_runner():
    for kind in ("containment", "clt", "variance_ratio"):
        cfg = small_cfg(kind, n_values=(100,), replicates=400,
                        schedule=SparsitySchedule(1.0, 0.7))
        res = run_experiment(cfg)
        assert all(r.mean_within_4se for r in res.records)


def test_containment_monotone_in_rho():
    # fraction is nondecreasing in rho at fixed n, up to 4 SE slack
    fracs = []
    ses = []
    for a in (0.4, 0.8, 1.6):
        cfg = ExperimentConfig("containment", K3, StepGraphon.constant(1.0),
                               SparsitySchedule(a, 1.0), (80,), 300, 99)
        rec = run_experiment(cfg).records[0]
        f = rec.containment_fraction
        fracs.append(f)
        ses.append(math.sqrt(f * (1 - f) / 300 + 1e-12))
    assert fracs[1] >= fracs[0] - 4 * (ses[0] + ses[1])
    assert fracs[2] >= fracs[1] - 4 * (ses[1] + ses[2])


def _count_sampling(monkeypatch):
    """Record every sample and resample_edges call the engine makes."""
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(experiments, "sample", counted(experiments.sample))
    monkeypatch.setattr(experiments, "resample_edges",
                        counted(experiments.resample_edges))
    return calls


def test_clt_rejects_subcritical_regime(monkeypatch):
    calls = _count_sampling(monkeypatch)
    with pytest.raises(ValueError, match="normality run not meaningful in "
                                         "regime 'below_containment'"):
        small_cfg("clt", motif=K3, schedule=SparsitySchedule(1.0, 1.2))
    assert calls == []


def test_variance_ratio_rejects_the_containment_threshold(monkeypatch):
    # gamma = 1/m(triangle) = 1 sits on the containment line
    calls = _count_sampling(monkeypatch)
    with pytest.raises(ValueError, match="variance ratios not meaningful in "
                                         "regime 'at_containment'"):
        small_cfg("variance_ratio", motif=K3,
                  schedule=SparsitySchedule(1.0, 1.0))
    with pytest.raises(ValueError, match="regime 'below_containment'"):
        small_cfg("variance_ratio", schedule=SparsitySchedule(1.0, 2.5))
    assert calls == []


@pytest.mark.parametrize("kind,over", [
    ("clt", dict(motif=named_motif("c4"), n_values=(50, 90))),
    ("critical_kappa", dict(schedule=critical_schedule(K2, 1.0))),
    ("conditional_clt", dict(motif=K3)),
], ids=["clt", "critical_kappa", "conditional_clt"])
def test_ks_runners_reject_too_few_replicates_before_sampling(
        monkeypatch, kind, over):
    calls = _count_sampling(monkeypatch)
    with pytest.raises(ValueError, match="KS test needs at least 50 samples"):
        small_cfg(kind, replicates=40, **over)
    assert calls == []
    # the floor is the KS test's own; variance_ratio runs no KS test
    assert small_cfg("variance_ratio", replicates=40).replicates == 40


def test_variance_ratio_constant_graphon_r2_zero():
    cfg = small_cfg("variance_ratio", graphon=StepGraphon.constant(0.7),
                    n_values=(60,), replicates=200)
    rec = run_experiment(cfg).records[0]
    assert rec.r2 == 0.0
    assert rec.var_delta2 == 0.0


def test_variance_ratio_direction_on_grid():
    # label share grows with n in the label-dominated regime
    cfg = small_cfg("variance_ratio", n_values=(50, 200, 800),
                    replicates=500, schedule=SparsitySchedule(1.0, 0.5))
    recs = run_experiment(cfg).records
    r2s = [r.r2 for r in recs]
    assert r2s[2] > r2s[0]


def test_variance_ratio_decreases_in_edge_regime():
    # label share shrinks toward 0 with n when the edge component dominates
    cfg = small_cfg("variance_ratio", n_values=(500, 1000, 2000),
                    replicates=800, seed=54,
                    schedule=SparsitySchedule(18.0, 1.5))
    r2s = [r.r2 for r in run_experiment(cfg).records]
    assert r2s[0] > r2s[1] > r2s[2]


def test_conditional_clt_label_dominated_configuration():
    # the unconditional law is label-dominated here, but the conditional
    # law of the edge component is still close to normal
    cfg = ExperimentConfig("conditional_clt", K2, W_ASYM,
                           SparsitySchedule(1.0, 0.5), (500,), 2000, 51)
    rec = run_experiment(cfg).records[0]
    assert rec.cond_ks.ks_statistic < 0.05


def test_critical_requires_irregular_graphon(monkeypatch):
    calls = _count_sampling(monkeypatch)
    with pytest.raises(ValueError, match="critical share undefined for a "
                                         "regular graphon"):
        ExperimentConfig("critical_kappa", K2, named_graphon("W_sym"),
                         critical_schedule(K2, 1.0), (100,), 200, 1)
    assert calls == []


def test_critical_refuses_an_uncomputable_share_before_sampling(monkeypatch):
    calls = _count_sampling(monkeypatch)
    path7 = Motif(7, [(i, i + 1) for i in range(1, 7)])
    with pytest.raises(ValueError, match="critical share capped at 6"):
        ExperimentConfig("critical_kappa", path7, W_ASYM,
                         critical_schedule(path7, 1.0), (20,), 50, 1)
    assert calls == []


def test_critical_runs_fig2a_on_six_blocks():
    fig2a = named_motif("fig2a")
    cfg = ExperimentConfig("critical_kappa", fig2a, split_blocks(W_ASYM, 3),
                           critical_schedule(fig2a, 1.0), (20,), 50, 5)
    rec = run_experiment(cfg).records[0]
    assert rec.kappa_theory == pytest.approx(
        critical_edge_variance_share(fig2a, W_ASYM, 1.0), rel=1e-12, abs=0.0)


def test_critical_requires_pinned_exponent(monkeypatch):
    calls = _count_sampling(monkeypatch)
    with pytest.raises(ValueError, match="schedule exponent must equal 1/m1"):
        ExperimentConfig("critical_kappa", K2, W_ASYM,
                         SparsitySchedule(1.0, 0.5), (100,), 200, 1)
    assert calls == []


def test_critical_requires_pinning_at_every_n(monkeypatch):
    # a = 4 with gamma = 1 clamps rho to 1 at n = 2, where n rho = 2 != 4;
    # n = 5 and 8 are pinned, and the broken n is named
    calls = _count_sampling(monkeypatch)
    schedule = critical_schedule(K2, 4.0)
    with pytest.raises(ValueError, match="pinning broken at n=2: "
                                         r"n rho\^m1 != c"):
        ExperimentConfig("critical_kappa", K2, W_ASYM, schedule,
                         (2, 5, 8), 200, 1)
    assert calls == []
    assert ExperimentConfig("critical_kappa", K2, W_ASYM, schedule,
                            (5, 8), 200, 1).n_values == (5, 8)


def test_critical_smoke_share_near_theory():
    cfg = ExperimentConfig("critical_kappa", K2, W_ASYM,
                           critical_schedule(K2, 1.0), (600,), 1500, 31)
    rec = run_experiment(cfg).records[0]
    assert rec.c_value == pytest.approx(1.0)
    assert rec.kappa_theory == pytest.approx(5 / 6)
    assert rec.r1 + rec.r2 == 1.0
    assert abs(rec.r2 - (1 - rec.kappa_theory)) < 0.06
    assert abs(rec.cov_delta12) < 4 * 1.0 if rec.cov_delta12 is not None else True


def test_conditional_clt_smoke():
    cfg = ExperimentConfig("conditional_clt", K3, named_graphon("W_sym"),
                           SparsitySchedule(1.0, 0.5), (60,), 300, 41)
    rec = run_experiment(cfg).records[0]
    assert rec.cond_ks is not None
    assert rec.cond_var_empirical > 0
    # latent draw is frozen: reruns reproduce the conditional mean exactly
    rec2 = run_experiment(cfg).records[0]
    assert rec2.cond_mean == rec.cond_mean


def test_run_experiment_dispatch():
    cfg = small_cfg("containment", schedule=SparsitySchedule(1.0, 1.5))
    res = run_experiment(cfg)
    assert res.experiment_kind == "containment"


def test_write_result_files_and_determinism(tmp_path):
    cfg = small_cfg("clt", n_values=(80,), replicates=150)
    res = run_experiment(cfg)
    res3 = run_experiment(cfg)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    write_result(res, d1, replicate_table=replicate_rows(res))
    write_result(res3, d2, replicate_table=replicate_rows(res3))
    for name in ("summary.json", "summary.csv", "replicates.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    doc = json.loads((d1 / "summary.json").read_text())
    assert doc["experiment_kind"] == "clt"
    assert len(doc["records"]) == 1
    assert "runtime" not in json.dumps(doc)
    header = (d1 / "replicates.csv").read_text().splitlines()[0]
    assert header == "seed,n,rho,x,expected,cond_expected,delta,delta1,delta2"
    assert len((d1 / "replicates.csv").read_text().splitlines()) == 151


def test_small_n_cells_draw_latents_from_the_seed_lanes(monkeypatch,
                                                       tmp_path):
    # tiny_n's shape: every replicate's latents come from its seed's lane,
    # so no stream-0 generator is built, and the files are those of the
    # numpy generators
    from graphon_motifs import sampler, seeding
    cfg = small_cfg("variance_ratio", schedule=SparsitySchedule(
        0.3 * math.sqrt(6), 0.5), n_values=(6, 8, 10), replicates=60)
    streams = []

    def spy(seed, k):
        streams.append(k)
        return seeding.child_rng(seed, k)

    with monkeypatch.context() as mp:
        mp.setattr(sampler, "child_rng", spy)
        write_result(run_experiment(cfg), tmp_path / "lanes")
    assert streams == [1] * 180
    with monkeypatch.context() as mp:
        mp.setattr(sampler, "noted_lane", lambda seed, n: None)
        write_result(run_experiment(cfg), tmp_path / "numpy")
    for name in ("summary.json", "summary.csv"):
        assert (tmp_path / "lanes" / name).read_bytes() == \
            (tmp_path / "numpy" / name).read_bytes()


def test_tower_orthogonality_cov_within_4se():
    # the two components are uncorrelated by the tower property
    cfg = small_cfg("variance_ratio", n_values=(400,), replicates=5000,
                    schedule=SparsitySchedule(1.0, 0.75))
    rec = run_experiment(cfg).records[0]
    from graphon_motifs.counting import conditional_expected_count, count, expected_count
    from graphon_motifs.sampler import replicate_seed, sample
    from graphon_motifs.stats import covariance_and_se
    # recompute the component arrays to get the covariance standard error
    d1 = np.empty(5000)
    d2 = np.empty(5000)
    exp = expected_count(K2, W_ASYM, 400, cfg.schedule.a * 400 ** -0.75)
    rho = cfg.schedule.a * 400 ** -0.75
    for r in range(5000):
        g = sample(W_ASYM, 400, rho, replicate_seed(cfg.seed, 400, r))
        x = count(g, K2)
        cond = conditional_expected_count(g.latents, K2, W_ASYM, rho)
        d1[r] = x - cond
        d2[r] = cond - exp
    cov, se = covariance_and_se(d1, d2)
    assert cov == pytest.approx(rec.cov_delta12, rel=1e-9)
    assert abs(cov) <= 4 * se


def test_result_json_round_trip():
    from graphon_motifs.experiments import ExperimentResult
    cfg = small_cfg("clt", n_values=(80,), replicates=150)
    res = run_experiment(cfg)
    back = ExperimentResult.from_json_dict(json.loads(res.to_json()))
    assert back.to_json() == res.to_json()
    assert ExperimentConfig.from_json_dict(back.config) == cfg


def test_conditional_clt_mean_guard_uses_conditional_mean():
    cfg = ExperimentConfig("conditional_clt", K3, named_graphon("W_sym"),
                           SparsitySchedule(1.0, 0.5), (60,), 400, 43)
    rec = run_experiment(cfg).records[0]
    assert rec.mean_within_4se
    assert abs(rec.mean_x - rec.cond_mean) <= 4 * rec.se_x


def test_replicate_rows_identity():
    cfg = small_cfg("clt", n_values=(40,), replicates=50)
    rows = replicate_rows(run_experiment(cfg))
    for seed, n, rho, x, exp, cond, delta, d1, d2 in rows:
        assert delta == pytest.approx(d1 + d2, abs=1e-9)
        assert x == int(x)


def test_replicate_rows_regenerate_from_seed_for_every_kind():
    # each row is the replicate its seed draws: fresh latents, or the
    # frozen latent draw of the cell for conditional_clt
    from graphon_motifs.counting import conditional_expected_count, count
    from graphon_motifs.experiments import EXPERIMENT_KINDS, _LATENT_TAG
    from graphon_motifs.sampler import replicate_seed, resample_edges, sample
    cfgs = [
        small_cfg("containment", motif=K3, n_values=(30, 50), replicates=50,
                  schedule=SparsitySchedule(1.0, 0.9)),
        small_cfg("clt", n_values=(30, 50), replicates=50),
        small_cfg("variance_ratio", n_values=(30, 50), replicates=50),
        small_cfg("critical_kappa", n_values=(30, 50), replicates=50,
                  schedule=critical_schedule(K2, 1.0)),
        small_cfg("conditional_clt", motif=K3, graphon=named_graphon("W_sym"),
                  n_values=(30, 50), replicates=50),
    ]
    assert {c.experiment_kind for c in cfgs} == set(EXPERIMENT_KINDS)
    for cfg in cfgs:
        m, w = cfg.motif, cfg.graphon
        rows = replicate_rows(run_experiment(cfg))
        assert len(rows) == cfg.replicates * len(cfg.n_values)
        for i, (seed, n, rho, x, _, cond, _, _, _) in enumerate(rows):
            assert n == cfg.n_values[i // cfg.replicates]
            assert seed == replicate_seed(cfg.seed, n, i % cfg.replicates)
            if cfg.experiment_kind == "conditional_clt":
                lat = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                    replicate_seed(cfg.seed, n, _LATENT_TAG)))).random(n)
                g = resample_edges(w, lat, rho, seed)
                assert cond == conditional_expected_count(lat, m, w, rho)
            else:
                g = sample(w, n, rho, seed)
                assert cond == conditional_expected_count(g.latents, m, w, rho)
            assert type(x) is int and x == count(g, m)


def _reference_cell(cfg, n):
    """The replicate table of one cell, one replicate at a time."""
    from graphon_motifs.counting import (
        conditional_expected_count, count, expected_count)
    from graphon_motifs.experiments import _LATENT_TAG
    from graphon_motifs.sampler import (
        replicate_seed, resample_edges, sample, schedule_rho)
    m, w = cfg.motif, cfg.graphon
    rho = schedule_rho(cfg.schedule, n)
    frozen = None
    if cfg.experiment_kind == "conditional_clt":
        frozen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            replicate_seed(cfg.seed, n, _LATENT_TAG)))).random(n)
    seeds, xs, conds = [], [], []
    for r in range(cfg.replicates):
        seed = replicate_seed(cfg.seed, n, r)
        if frozen is None:
            g = sample(w, n, rho, seed)
            conds.append(conditional_expected_count(g.latents, m, w, rho))
        else:
            g = resample_edges(w, frozen, rho, seed)
            conds.append(conditional_expected_count(frozen, m, w, rho))
        seeds.append(seed)
        xs.append(count(g, m))
    return rho, expected_count(m, w, n, rho), seeds, xs, conds


@pytest.mark.parametrize("cfg", [
    small_cfg("containment", motif=K3, schedule=SparsitySchedule(1.0, 0.9)),
    small_cfg("clt", graphon=named_graphon("const:0.3")),
    small_cfg("clt", motif=K3),
    small_cfg("variance_ratio"),
    small_cfg("critical_kappa", schedule=critical_schedule(K2, 1.0)),
    small_cfg("conditional_clt", motif=K3, graphon=named_graphon("W_sym")),
], ids=["containment", "clt_const", "clt", "variance_ratio",
        "critical_kappa", "conditional_clt"])
def test_replicate_cell_equals_reference_loop(cfg):
    # the cell crosses a seed block edge, on both edge paths
    from dataclasses import replace
    from graphon_motifs.experiments import _replicate_cell
    cfg = replace(cfg, n_values=(8, 40), replicates=SEED_BLOCK + 30)
    for n in cfg.n_values:
        rho, expected, seeds, xs, conds = _reference_cell(cfg, n)
        cell = _replicate_cell(cfg, n)
        assert cell.n == n and cell.rho == rho
        assert cell.expected == expected
        assert cell.seed.tolist() == seeds
        assert cell.x.tolist() == xs
        assert cell.cond.tolist() == conds
        if cfg.graphon.block_count == 1:
            # one block: E[X | latents] is the unconditional mean, exactly
            assert set(conds) == {expected}


