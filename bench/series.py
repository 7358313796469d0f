"""Series of benchmark runs, and the comparison of two series.

Usage:
    python3 bench/series.py run --out FILE
    python3 bench/series.py compare BASE NEW

`run` makes RUNS untraced runs of every workload with seeds FIRST_SEED,
FIRST_SEED+1, ..., each run_seconds of BENCHMARK.json long, interleaving
the workloads and rotating their order each time, because the host's
CPU speed drifts over minutes.  It then makes one traced run per
workload and writes every run's result to FILE.  The constants are the
same for every series, so that two series pair their runs by seed.

`compare` prints one row per workload and end-to-end metric: both
medians and quartiles, the ratio NEW/BASE and a verdict against the
metric's bound in BENCHMARK.json.  The verdict is "unresolved" when the
run-to-run spread (quartile distance over median) of either side exceeds
the bound, unless every run of one side beats every run of the other.
"better" also needs NEW to win nine tenths of the runs paired by seed and
to move by more than BASE's own spread.  Per-layer medians of the traced
runs follow each workload's rows.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, WORKLOADS, load_spec  # noqa: E402

RUNS = 10
FIRST_SEED = 100


def _one_run(workload, seed, seconds, trace) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        path = Path(tmp) / "result.json"
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace), "--result", str(path)],
            stdout=subprocess.PIPE, text=True)
        print(proc.stdout.strip().splitlines()[0] if proc.stdout else
              f"{workload}: run.py exit {proc.returncode}", flush=True)
        if proc.returncode != 0:
            raise SystemExit(f"run.py failed on {workload} seed {seed}")
        result = json.loads(path.read_text())
    try:
        (ROOT / ".bench_work").rmdir()
    except OSError:
        pass  # another run still uses it
    return result


def cmd_run(args) -> int:
    seconds = load_spec()["run_seconds"]
    workloads = list(WORKLOADS)
    runs = []
    for i in range(RUNS):
        k = i % len(workloads)
        for w in workloads[k:] + workloads[:k]:
            runs.append(_one_run(w, FIRST_SEED + i, seconds, 0))
    for w in workloads:
        runs.append(_one_run(w, FIRST_SEED + RUNS, seconds, 1))
    Path(args.out).write_text(json.dumps(
        {"finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "runs": runs},
        indent=1, sort_keys=True))
    return 0


def _spread(values) -> float:
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(base: dict, new: dict, bound: float, higher_better: bool) -> str:
    """base, new: seed -> value."""
    sign = 1.0 if higher_better else -1.0
    a, b = list(base.values()), list(new.values())
    ma, mb = statistics.median(a), statistics.median(b)
    if min(len(a), len(b)) < 2:
        return "unresolved"
    if max(_spread(a), _spread(b)) > bound:
        if all(sign * y > sign * x for x in a for y in b):
            return "better"
        if all(sign * y < sign * x for x in a for y in b):
            return "worse"
        return "unresolved"
    change = sign * (mb - ma) / ma
    if change < -bound:
        return "worse"
    paired = [s for s in base if s in new]
    wins = sum(sign * new[s] > sign * base[s] for s in paired)
    if change > _spread(a) and paired and wins >= 0.9 * len(paired):
        return "better"
    return "within bound"


def _by_workload(series: dict, trace: int) -> dict:
    out = {}
    for r in series["runs"]:
        if r["meta"]["trace"] == trace:
            out.setdefault(r["meta"]["workload"], []).append(r)
    return out


def _quartiles(values) -> str:
    if len(values) < 2:
        return f"{values[0]:.5g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def cmd_compare(args) -> int:
    spec = load_spec()
    base, new = (json.loads(Path(p).read_text()) for p in (args.base, args.new))
    ba, nb = _by_workload(base, 0), _by_workload(new, 0)
    bt, nt = _by_workload(base, 1), _by_workload(new, 1)
    print(f"{'workload':12s} {'metric':40s} {'base median [q1, q3]':34s} "
          f"{'new median [q1, q3]':34s} {'new/base':>9s}  verdict")
    for w in [w for w in WORKLOADS if w in ba and w in nb]:
        for m in spec["end_to_end"]:
            bv = {r["meta"]["seed"]: r["end_to_end"][m["name"]] for r in ba[w]
                  if m["name"] in r["end_to_end"]}
            nv = {r["meta"]["seed"]: r["end_to_end"][m["name"]] for r in nb[w]
                  if m["name"] in r["end_to_end"]}
            if not bv or not nv:
                print(f"{w:12s} {m['name']:40s} missing")
                continue
            ratio = statistics.median(nv.values()) / statistics.median(bv.values())
            v = verdict(bv, nv, m["bound"], m["better"] == "higher")
            print(f"{w:12s} {m['name'] + ' (' + m['unit'] + ')':40s} "
                  f"{_quartiles(list(bv.values())):34s} "
                  f"{_quartiles(list(nv.values())):34s} {ratio:9.4f}  {v} "
                  f"(bound {m['bound']})")
        for label, runs in (("base", ba[w]), ("new", nb[w])):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"{w:12s} {'error_rate (ratio) ' + label:40s} "
                  f"{failed / attempted:.5g} ({failed}/{attempted})")
        if w in bt and w in nt:
            for m in spec["per_layer"]:
                bv = [r["per_layer"].get(m["name"]) for r in bt[w]]
                nv = [r["per_layer"].get(m["name"]) for r in nt[w]]
                if None in bv or None in nv:
                    continue
                b, n = statistics.median(bv), statistics.median(nv)
                ratio = f"{n / b:9.4f}" if b else f"{'-':>9s}"
                print(f"{w:12s}   {m['name'] + ' (' + m['unit'] + ')':38s} "
                      f"{b:<34.5g} {n:<34.5g} {ratio}  per-layer")
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("base")
    c.add_argument("new")
    args = p.parse_args(argv)
    return cmd_run(args) if args.cmd == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
