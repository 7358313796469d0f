"""Self-test of the benchmark at tiny scale.

Run with: python3 -m pytest bench/test_bench.py -q
"""

from pathlib import Path

import pytest

import run
from series import verdict


def _tiny(inv):
    # a tenth of the replicates, but every KS statistic needs 50 samples
    cfg = dict(inv.config, replicates=max(50, inv.config["replicates"] // 10))
    return run.Invocation(inv.name, cfg, inv.args)


TINY = {w: tuple(_tiny(i) for i in invs) for w, invs in run.WORKLOADS.items()}
# the golden digests cover only the full-size configs at the default seed
OTHER_SEED = run.DEFAULT_SEED + 1


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


@pytest.fixture(scope="module", params=list(run.WORKLOADS))
def traced_run(request, tmp_path_factory):
    """One traced run of each workload: warm-up, untraced, traced round."""
    w = request.param
    return w, run.run_workload(w, OTHER_SEED, 0, True, workloads=TINY,
                               workdir=tmp_path_factory.mktemp(w))


def test_every_metric_present_with_unit_and_no_errors(traced_run, spec):
    _, result = traced_run
    assert result["failed"] == 0 and result["error_rate"] == 0.0
    assert result["attempted"] >= 3
    for trace, names in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
        line = run.metrics_line(result, spec, trace)
        assert line["correct"]
        assert {k: m["unit"] for k, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in names}


def test_samples_per_replicate(traced_run):
    w, result = traced_run
    want = 2.0 if w == "dense_edges" else 1.0
    assert result["per_layer"]["experiments.samples_per_replicate"] == want


def test_wrong_golden_digest_is_a_failure(tmp_path):
    inv = TINY["tiny_n"][0]
    key = run.config_key(dict(inv.config, seed=run.DEFAULT_SEED), inv.args)
    golden = {"tiny_n/variance_ratio": {"config_sha256": key,
                                        "files": {"summary.json": "0" * 64}}}
    result = run.run_workload("tiny_n", run.DEFAULT_SEED, 0, False,
                              workloads=TINY, golden=golden, workdir=tmp_path)
    assert result["failed"] == result["attempted"] > 0
    assert result["error_rate"] == 1.0


def test_missing_golden_at_default_seed_is_a_failure(tmp_path):
    result = run.run_workload("tiny_n", run.DEFAULT_SEED, 0, False,
                              workloads=TINY, golden={}, workdir=tmp_path)
    assert result["failed"] == result["attempted"] > 0


def test_golden_covers_every_invocation_as_configured():
    golden = run.load_golden()
    names = {f"{w}/{inv.name}": inv for w, invs in run.WORKLOADS.items()
             for inv in invs}
    assert set(golden) == set(names)
    for key, inv in names.items():
        cfg = dict(inv.config, seed=run.DEFAULT_SEED)
        assert golden[key]["config_sha256"] == run.config_key(cfg, inv.args)


def test_default_seed_matches_golden(tmp_path):
    inv = run.WORKLOADS["tiny_n"][0]
    rec = run.run_invocation("tiny_n", inv, run.DEFAULT_SEED, tmp_path, False,
                             run.load_golden(), "golden")
    assert rec["errors"] == []
    assert set(rec["files"]) == set(run.load_golden()["tiny_n/variance_ratio"]
                                    ["files"])


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_self_times_fit_in_wall_times_threads(workload, tmp_path):
    for inv in TINY[workload]:
        rec = run.run_invocation(workload, inv, OTHER_SEED, tmp_path,
                                 True, {}, inv.name)
        assert rec["errors"] == []
        threads = int(inv.args[inv.args.index("--threads") + 1])
        assert 0.0 < rec["trace"]["self_total_s"] <= rec["wall_s"] * threads


def test_rate_is_scaled_by_reference_speed():
    nominal = run.REFERENCE_NOMINAL_S
    inv = {"replicates": 100, "wall_s": 2.0, "reference_s": nominal}
    assert run._rps([inv]) == run._raw_rps([inv]) == 50.0
    # a host running the reference 1.5 times slower ran the campaign too
    slow = dict(inv, wall_s=3.0, reference_s=1.5 * nominal)
    assert run._rps([slow]) == pytest.approx(50.0)
    assert run._raw_rps([slow]) == pytest.approx(100 / 3)


def test_verdict_against_bound():
    base = {s: 100.0 + s for s in range(10)}
    assert verdict(base, {s: 200.0 + s for s in range(10)}, 0.1, True) == "better"
    assert verdict(base, {s: 50.0 + s for s in range(10)}, 0.1, True) == "worse"
    assert verdict(base, dict(base), 0.1, True) == "within bound"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in range(10)}
    assert verdict(base, noisy, 0.1, True) == "unresolved"


def test_fails_without_sources(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", Path(tmp_path))
    assert run.main(["--workload", "tiny_n", "--seconds", "0"]) == 2


@pytest.mark.parametrize("seconds", ["-1", "nan", "inf"])
def test_rejects_bad_seconds(seconds):
    assert run.main(["--workload", "tiny_n", "--seconds", seconds]) == 2
