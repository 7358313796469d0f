"""One traced run of the benchmark's child process.

``bench/child.py`` wraps functions of ``experiments`` and ``cli`` by
attribute name to time each layer, so a rename in either module breaks
traced benchmark runs; this test runs the child once on a tiny campaign
and reads the spans it wrote.
"""

import json
import subprocess
import sys
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def test_traced_child_run_records_every_layer(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment_kind": "clt", "motif": "edge", "graphon": "W_asym",
        "schedule": {"a": 1.0, "gamma": 0.5}, "n_values": [40],
        "replicates": 50, "seed": 1}))
    report, spans = tmp_path / "report.json", tmp_path / "spans.json"
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "argv": ["run-experiment", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "out")],
        "report": str(report), "spans": str(spans)}))
    proc = subprocess.run([sys.executable, str(CHILD), str(job)],
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(report.read_text())["rc"] == 0
    names = {s[1] for s in json.loads(spans.read_text())}
    assert {"replicate_seed", "sample", "count", "ks_test", "run_experiment",
            "write_result"} <= names
