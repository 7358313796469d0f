"""Campaign benchmark for `graphon-motifs run-experiment`.

Usage:
    python3 bench/run.py --workload tiny_n|count_heavy|dense_edges
                         [--seed N] [--seconds S] [--trace 0|1]
                         [--result FILE]

Each round runs the workload's invocations, each in a fresh child
interpreter (bench/child.py) on a config generated from --seed.  Rounds
repeat until --seconds have passed; the first round only warms the file
cache and is left out of the timings.  Every invocation's output files
are checked (exit code, invariants, golden digests at the default seed,
byte-identity across rounds) and every failure is printed to stderr and
counted.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from spans import LAYERS, layer_totals, replicate_ms, self_times, split_by_n

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
# a hung invocation fails after CHILD_TIMEOUT_S, and no round starts once
# a run has overrun --seconds by GRACE_S, so a run ends within 180 s
CHILD_TIMEOUT_S = 60
GRACE_S = 60
# the child's reference computation (child.reference_s) takes about this
# long on the 2-core host the benchmark was written on; replicates_per_s
# is scaled to a host as fast as that one (see bench/README.md, Noise)
REFERENCE_NOMINAL_S = 0.0375


@dataclass(frozen=True)
class Invocation:
    name: str
    config: dict  # ExperimentConfig JSON without the seed
    args: tuple   # extra run-experiment flags

    def replicates(self) -> int:
        return self.config["replicates"] * len(self.config["n_values"])


def _cfg(kind, motif, graphon, a, gamma, n_values, replicates):
    return {"experiment_kind": kind, "motif": motif, "graphon": graphon,
            "schedule": {"a": a, "gamma": gamma}, "n_values": n_values,
            "replicates": replicates}


# Shapes come from the acceptance criteria; see bench/README.md for why
# each workload is here and which layers it stresses.
WORKLOADS = {
    # C05's shape, rho(6) = 0.3: fixed per-replicate cost, counting bypassed
    "tiny_n": (
        Invocation("variance_ratio",
                   _cfg("variance_ratio", "edge", "W_asym", 0.3 * math.sqrt(6),
                        0.5, [6, 8, 10], 1500),
                   ("--threads", "1")),
    ),
    # C12's shape plus the generic counter: counting dominates
    "count_heavy": (
        Invocation("conditional_clt",
                   _cfg("conditional_clt", "triangle", "W_sym", 1.0, 0.5,
                        [200], 300),
                   ("--threads", "1")),
        Invocation("clt_c4",
                   _cfg("clt", "c4", "W_sym", 1.0, 0.5, [150], 100),
                   ("--threads", "1")),
    ),
    # C10's label regime: the sampler at scale, a second sampling pass for
    # --with-replicates, and two threads
    "dense_edges": (
        Invocation("clt",
                   _cfg("clt", "edge", "W_asym", 2.0, 0.5, [2000], 100),
                   ("--threads", "2", "--with-replicates")),
    ),
}

def config_key(config: dict, args) -> str:
    blob = json.dumps({"config": config, "args": list(args)}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


# ---------------------------------------------------------------------------
# one invocation


def run_invocation(workload: str, inv: Invocation, seed: int, workdir: Path,
                   traced: bool, golden: dict, label: str) -> dict:
    """Run one child, check its outputs, return its record.

    The record's "errors" list is empty when the invocation succeeded.
    """
    d = workdir / label
    d.mkdir(parents=True)
    config = dict(inv.config, seed=seed)
    (d / "config.json").write_text(json.dumps(config, indent=2))
    out = d / "out"
    job = {"argv": ["run-experiment", "--config", str(d / "config.json"),
                    "--out-dir", str(out), *inv.args],
           "report": str(d / "report.json"),
           "spans": str(d / "spans.json") if traced else None}
    (d / "job.json").write_text(json.dumps(job))
    rec = {"name": inv.name, "traced": traced, "replicates": inv.replicates(),
           "errors": []}
    errors = rec["errors"]
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                               str(d / "job.json")],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        errors.append(f"timed out after {CHILD_TIMEOUT_S}s")
        return rec
    if proc.returncode != 0:
        errors.append(f"child exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
        return rec
    rec.update(json.loads((d / "report.json").read_text()))
    if rec["rc"] != 0:
        errors.append(f"run-experiment exit {rec['rc']}: "
                      f"{proc.stderr.strip()[-400:]}")
        return rec
    expected_files = ["summary.csv", "summary.json"]
    if "--with-replicates" in inv.args:
        expected_files.append("replicates.csv")
    written = sorted(p.name for p in out.iterdir())
    if written != sorted(expected_files):
        errors.append(f"wrote {written}, expected {sorted(expected_files)}")
        return rec
    rec["files"] = {f: sha256_file(out / f) for f in expected_files}
    rec["bytes"] = sum((out / f).stat().st_size for f in expected_files)
    errors.extend(check_summary(json.loads((out / "summary.json").read_text()),
                                config))
    if seed == DEFAULT_SEED:
        want = golden.get(f"{workload}/{inv.name}")
        if not want or want["config_sha256"] != config_key(config, inv.args):
            errors.append(f"no golden digests for {workload}/{inv.name} "
                          f"as configured; regenerate bench/golden.json")
        else:
            for f, digest in want["files"].items():
                if rec["files"].get(f) != digest:
                    errors.append(f"{f} sha256 {rec['files'].get(f)} != "
                                  f"golden {digest}")
    if traced:
        spans = json.loads((d / "spans.json").read_text())
        rec["trace"] = summarize_spans(spans)
    return rec


def summarize_spans(spans) -> dict:
    """What the run keeps of one invocation's spans."""
    return {"layers": layer_totals(spans), "replicate_ms": replicate_ms(spans),
            "by_n": split_by_n(spans),
            "self_total_s": sum(self_times(spans).values())}


def check_summary(summary: dict, config: dict) -> list:
    """Invariants that hold for any seed."""
    errors = []
    records = summary.get("records", [])
    ns = [r.get("n") for r in records]
    if ns != config["n_values"]:
        errors.append(f"records for n={ns}, expected one per n in "
                      f"{config['n_values']}")
    for r in records:
        if r.get("replicates") != config["replicates"]:
            errors.append(f"n={r.get('n')}: replicates {r.get('replicates')}"
                          f" != {config['replicates']}")
        if "r1" in r and "r2" in r and r["r1"] + r["r2"] != 1.0:
            errors.append(f"n={r.get('n')}: r1 + r2 = {r['r1'] + r['r2']!r}")
    return errors


# ---------------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 workloads: dict = WORKLOADS, golden: dict = None,
                 workdir: Path = None) -> dict:
    """Rounds of the workload for `seconds`; returns the run's result."""
    golden = load_golden() if golden is None else golden
    invs = workloads[workload]
    own_workdir = workdir is None
    if own_workdir:
        workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    meta = run_metadata(workload, seed, seconds, trace)
    rounds = []
    first = {}  # invocation name -> files of its first successful run
    # round 0 warms up; a traced run alternates untraced and traced rounds
    min_rounds = 3 if trace else 2
    t0 = time.perf_counter()
    try:
        while ((len(rounds) < min_rounds
                or time.perf_counter() - t0 < seconds)
               and time.perf_counter() - t0 < seconds + GRACE_S):
            i = len(rounds)
            traced = trace and i > 0 and i % 2 == 0
            recs = [run_invocation(workload, inv, seed, workdir, traced,
                                   golden, f"r{i}-{inv.name}")
                    for inv in invs]
            for rec in recs:
                files = rec.get("files")
                if files and not rec["errors"]:
                    ref = first.setdefault(rec["name"], files)
                    for f in sorted(set(ref) | set(files)):
                        if ref.get(f) != files.get(f):
                            rec["errors"].append(
                                f"{f} differs from round 0 "
                                f"({'traced' if traced else 'untraced'})")
                for e in rec["errors"]:
                    print(f"FAIL {workload} round {i} {rec['name']}: {e}",
                          file=sys.stderr)
            rounds.append({"traced": traced, "invocations": recs})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if own_workdir:
            try:
                workdir.parent.rmdir()
            except OSError:
                pass  # another run still uses it
    meta["load_avg_end"] = list(os.getloadavg())
    meta["elapsed_s"] = time.perf_counter() - t0
    for rec in (r for rnd in rounds for r in rnd["invocations"]):
        for key in ("python", "numpy"):
            if key in rec:
                meta[key] = rec[key]
    attempted = sum(len(r["invocations"]) for r in rounds)
    failed = sum(1 for r in rounds for rec in r["invocations"] if rec["errors"])
    result = {"meta": meta, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted}
    result["end_to_end"] = end_to_end(rounds)
    if trace:
        result["per_layer"] = per_layer(rounds)
    return result


def run_metadata(workload, seed, seconds, trace) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else None
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": int(trace), "git_sha": sha, "nproc": os.cpu_count(),
            "load_avg_start": list(os.getloadavg()),
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def _measured(rounds, traced: bool) -> list:
    """Rounds after the warm-up whose invocations all succeeded."""
    return [r["invocations"] for r in rounds[1:]
            if r["traced"] == traced and not any(x["errors"]
                                                 for x in r["invocations"])]


def _raw_rps(invocations) -> float:
    return (sum(x["replicates"] for x in invocations)
            / sum(x["wall_s"] for x in invocations))


def _rps(invocations) -> float:
    """Replicates per second, each invocation's wall time scaled by how
    much slower than nominal the host ran the reference around it."""
    return (sum(x["replicates"] for x in invocations)
            / sum(x["wall_s"] * REFERENCE_NOMINAL_S / x["reference_s"]
                  for x in invocations))


def end_to_end(rounds) -> dict:
    """Medians over the untraced measured rounds ({} if there are none)."""
    measured = _measured(rounds, traced=False)
    if not measured:
        return {}
    rps = [_rps(r) for r in measured]
    return {
        "replicates_per_s": statistics.median(rps),
        "replicates_per_s_rounds": rps,
        "raw_replicates_per_s": statistics.median(_raw_rps(r)
                                                  for r in measured),
        "reference_s": statistics.median(x["reference_s"]
                                         for r in measured for x in r),
        "setup_s": statistics.median(x["setup_s"] for r in measured for x in r),
        "peak_rss_mb": statistics.median(max(x["peak_rss_mb"] for x in r)
                                         for r in measured),
    }


def per_layer(rounds) -> dict:
    """Medians over traced rounds; replicate times pooled over them."""
    traced = _measured(rounds, traced=True)
    untraced = _measured(rounds, traced=False)
    if not traced or not untraced:
        return {}
    per_round = []
    reps = []
    by_n = {}
    for r in traced:
        tot = {}
        for x in r:
            for k, v in x["trace"]["layers"].items():
                tot[k] = tot.get(k, 0) + v
            reps.extend(x["trace"]["replicate_ms"])
            for n, row in x["trace"]["by_n"].items():
                acc = by_n.setdefault(n, {})
                for k, v in row.items():
                    acc[k] = acc.get(k, 0) + v
        tot["sampler.edges_per_s"] = (tot["sampler.edges_sampled"]
                                      / tot["sampler.sample_s"])
        tot["experiments.samples_per_replicate"] = (
            tot["sampler.sample_calls"] / sum(x["replicates"] for x in r))
        tot["cli.bytes_written"] = sum(x["bytes"] for x in r)
        per_round.append(tot)
    out = {k: statistics.median(t[k] for t in per_round) for k in per_round[0]}
    q = statistics.quantiles(reps, n=100, method="inclusive")
    out["experiments.replicate_ms_p50"] = statistics.median(reps)
    out["experiments.replicate_ms_p99"] = q[98]
    out["experiments.cpu_per_wall"] = statistics.median(
        sum(x["cpu_s"] for x in r) / sum(x["wall_s"] for x in r)
        for r in untraced)
    out["trace.overhead"] = (statistics.median(_rps(r) for r in untraced)
                             / statistics.median(_rps(r) for r in traced))
    out["split_by_n"] = {str(n): row for n, row in sorted(by_n.items())}
    return out


# ---------------------------------------------------------------------------
# output


def metrics_line(result: dict, spec: dict, trace: bool) -> dict:
    """The final JSON object; values of exactly the spec's metric set."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    source = result["per_layer" if trace else "end_to_end"]
    metrics = {}
    for m in names:
        if m["name"] in source:
            metrics[m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    return {"correct": result["failed"] == 0 and len(metrics) == len(names),
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics}


def print_report(result: dict, line: dict):
    meta = result["meta"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  "
          f"trace {meta['trace']}  {meta['elapsed_s']:.1f}s  "
          f"git {meta['git_sha'] or '-'}  nproc {meta['nproc']}  "
          f"python {meta.get('python', '-')}  numpy {meta.get('numpy', '-')}  "
          f"load {meta['load_avg_start'][0]:.2f}->{meta['load_avg_end'][0]:.2f}")
    for name, m in line["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    e2e = result["end_to_end"]
    if "reference_s" in e2e and not meta["trace"]:
        print(f"  {'unscaled replicates_per_s':40s} "
              f"{e2e['raw_replicates_per_s']:>14.6g} 1/s (reference "
              f"{e2e['reference_s']:.4g} s, nominal {REFERENCE_NOMINAL_S} s)")
    print(f"  {'error_rate':40s} {result['error_rate']:>14.6g} ratio "
          f"({result['failed']} failed / {result['attempted']} invocations)")
    layers = result.get("per_layer", {})
    if layers.get("split_by_n"):
        print("  per-replicate self time by n (us per replicate, share):")
        for n, row in layers["split_by_n"].items():
            total = sum(row.get(k, 0.0) for k in LAYERS)
            reps = row["replicates"]
            cells = [f"{k.split('.', 1)[1][:-2]} {1e6 * row[k] / reps:.1f} "
                     f"({row[k] / total:.0%})"
                     for k in LAYERS if row.get(k)]
            print(f"    n={n}: {1e6 * total / reps:.1f} us; " + "; ".join(cells))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--result", default=None,
                   help="also write the full result (medians, metadata, "
                        "error rate) to this JSON file")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "graphon_motifs" / "cli.py").is_file():
        print(f"error: no graphon_motifs sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 64:
        print("error: --seed must fit in 64 bits", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not 0 <= seconds < math.inf:
        print("error: --seconds must be a finite number >= 0", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    line = metrics_line(result, spec, bool(args.trace))
    if args.result:
        Path(args.result).write_text(json.dumps(dict(result, line=line),
                                                indent=1, sort_keys=True))
    print_report(result, line)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
