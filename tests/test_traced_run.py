"""Traced runs of the benchmark's child process.

``bench/child.py`` wraps functions of ``experiments``, ``counting`` and
``cli``, and ``SampledGraph.adjacency``, by attribute name to time each
layer, so a rename in any of them breaks traced benchmark runs, and a
counter that stops reading the adjacency leaves its layer empty.  The
per-layer report (``bench/spans.py``) also needs ``replicate_seed`` and
``sample`` (or ``resample_edges``) called once per replicate through
``experiments``: a replicate loop that seeds or samples in batches leaves
it no replicate to time.  These tests run the child on tiny campaigns and
read the spans it wrote.
"""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
CHILD = BENCH / "child.py"


def _traced_run(tmp_path, config: dict, args=()) -> list:
    """Spans of one traced ``run-experiment`` child on ``config``, with
    extra command-line ``args``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    report, spans = tmp_path / "report.json", tmp_path / "spans.json"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "argv": ["run-experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out"), *args],
        "report": str(report), "spans": str(spans)}))
    proc = subprocess.run([sys.executable, str(CHILD), str(job)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["rc"] == 0
    return json.loads(spans.read_text())


def _bench_spans():
    spec = importlib.util.spec_from_file_location("bench_spans",
                                                  BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_one_sample_per_replicate(spans, replicates):
    bench_spans = _bench_spans()
    assert bench_spans.layer_totals(spans)["sampler.sample_calls"] == replicates
    assert len(bench_spans.replicate_ms(spans)) == replicates


def test_traced_child_run_records_every_layer(tmp_path):
    spans = _traced_run(tmp_path, {
        "experiment_kind": "clt", "motif": "edge", "graphon": "W_asym",
        "schedule": {"a": 1.0, "gamma": 0.5}, "n_values": [40],
        "replicates": 50, "seed": 1})
    names = {s[1] for s in spans}
    assert {"replicate_seed", "sample", "count", "ks_test", "run_experiment",
            "write_result"} <= names


def test_traced_small_graph_run_times_every_replicate(tmp_path):
    # the tiny_n workload's shape: every replicate is seeded and sampled
    # on its own, so each one shows as a replicate with a sampler span
    spans = _traced_run(tmp_path, {
        "experiment_kind": "variance_ratio", "motif": "edge",
        "graphon": "W_asym", "schedule": {"a": 0.3 * math.sqrt(6),
                                          "gamma": 0.5},
        "n_values": [6, 8], "replicates": 60, "seed": 1})
    _assert_one_sample_per_replicate(spans, 120)
    bench_spans = _bench_spans()
    assert bench_spans.layer_totals(spans)["sampler.sample_s"] > 0
    assert set(bench_spans.split_by_n(spans)) == {6, 8}


def test_traced_frozen_latent_run_times_every_replicate(tmp_path):
    # the count_heavy workload's conditional_clt shape: every replicate
    # redraws its edges through resample_edges on one frozen latent draw
    spans = _traced_run(tmp_path, {
        "experiment_kind": "conditional_clt", "motif": "triangle",
        "graphon": "W_sym", "schedule": {"a": 1.0, "gamma": 0.5},
        "n_values": [80], "replicates": 60, "seed": 1}, ("--threads", "1"))
    names = {s[1] for s in spans}
    assert {"resample_edges", "conditional_expected_count",
            "triangle_count"} <= names
    assert "sample" not in names
    _assert_one_sample_per_replicate(spans, 60)


def test_traced_run_with_replicates_times_every_replicate(tmp_path):
    # the dense_edges workload's arguments: --threads 2 is accepted, and
    # the replicate rows come from the one sampling pass
    spans = _traced_run(tmp_path, {
        "experiment_kind": "clt", "motif": "edge", "graphon": "W_asym",
        "schedule": {"a": 2.0, "gamma": 0.5}, "n_values": [2000],
        "replicates": 60, "seed": 1}, ("--threads", "2", "--with-replicates"))
    names = [s[1] for s in spans]
    assert names.count("replicate_rows") == 1
    assert names.count("write_result") == 1
    _assert_one_sample_per_replicate(spans, 60)
    rows = (tmp_path / "out" / "replicates.csv").read_text().splitlines()
    assert len(rows) == 61


def test_traced_four_cycle_run_times_every_adjacency(tmp_path):
    # the count_heavy workload's c4 shape: each replicate samples once,
    # counts once, and the 4-cycle count reads the graph's adjacency,
    # which is the benchmark's adjacency layer
    spans = _traced_run(tmp_path, {
        "experiment_kind": "clt", "motif": "c4", "graphon": "W_sym",
        "schedule": {"a": 1.0, "gamma": 0.5}, "n_values": [150],
        "replicates": 50, "seed": 1}, ("--threads", "1"))
    names = [s[1] for s in spans]
    assert names.count("sample") == names.count("adjacency") == 50
    assert names.count("count") == 50
    _assert_one_sample_per_replicate(spans, 50)
    assert _bench_spans().layer_totals(spans)["sampler.adjacency_s"] > 0
