"""One `graphon-motifs run-experiment` invocation in a fresh interpreter.

Usage: python3 bench/child.py JOB.json

JOB.json holds {"argv": [...], "report": path, "spans": path or null}.
The child times the import of graphon_motifs.cli (set-up), optionally
wraps the public functions of each module with span recorders, calls
cli.main(argv), and writes a report with the exit code, wall and CPU
seconds inside cli.main, peak resident memory, and the time of a fixed
reference computation run just before and just after the call.  Spans
stay in memory and are written to the spans path once the invocation
has ended.

No source file of the package is edited: every wrapper is installed on
the module attribute its caller looks the function up through.
"""

import functools
import itertools
import json
import platform
import resource
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


class Tracer:
    """Records one span per wrapped call: id, name, parent id, replicate
    group, start, end and an optional (edges, n) payload for samplers.

    Parents come from a thread-local stack.  A span opened on a worker
    thread with an empty stack takes the open cli-level span as parent,
    because the cli blocks on the pool until every worker has returned.
    Spans of one replicate share the key (cli span id, replicate seed):
    the seed alone repeats when --with-replicates samples it a second time.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.group = None
        return loc

    def wrap(self, name, fn, *, root=False, grouped=True, sets_group=False,
             payload=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            loc = self._state()
            parent = loc.stack[-1] if loc.stack else self._root
            sid = next(self._ids)
            group = loc.group if grouped and not root else None
            loc.stack.append(sid)
            if root:
                outer_root, self._root = self._root, sid
                loc.group = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                loc.stack.pop()
                if root:
                    self._root = outer_root
            if sets_group:
                group = loc.group = f"{self._root}:{result}"
            extra = payload(result) if payload else None
            self.spans.append([sid, name, parent, group, start, end, extra])
            return result
        return traced


def install(tracer, cli):
    """Wrap each traced function where its caller looks it up."""
    from graphon_motifs import counting, experiments, sampler

    def graph_size(g):
        return [g.edge_count, g.n]

    for name in ("sample", "resample_edges"):
        setattr(experiments, name,
                tracer.wrap(name, getattr(experiments, name),
                            payload=graph_size))
    experiments.replicate_seed = tracer.wrap(
        "replicate_seed", experiments.replicate_seed, sets_group=True)
    for name in ("count", "conditional_expected_count"):
        setattr(experiments, name, tracer.wrap(name, getattr(experiments, name)))
    # ks_test runs once per cell, after the last replicate on this thread
    experiments.ks_test = tracer.wrap("ks_test", experiments.ks_test,
                                      grouped=False)
    for name in ("triangle_count", "count_embeddings"):
        setattr(counting, name, tracer.wrap(name, getattr(counting, name)))
    sampler.SampledGraph.adjacency = tracer.wrap(
        "adjacency", sampler.SampledGraph.adjacency)
    for name in ("run_experiment", "replicate_rows", "write_result"):
        setattr(cli, name, tracer.wrap(name, getattr(cli, name), root=True))


def reference_s() -> float:
    """Seconds for a fixed mix of interpreter and numpy work that no
    change to the package can alter; it tracks the host's current speed."""
    import numpy

    rng = numpy.random.default_rng(0)
    t0 = time.perf_counter()
    s = 0
    for i in range(400_000):
        s += i * i
    for _ in range(200):
        s += int((rng.random(2000) < 0.5).sum())
    return time.perf_counter() - t0


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import graphon_motifs.cli as cli
    setup_s = time.perf_counter() - t0
    import numpy

    tracer = None
    if job["spans"]:
        tracer = Tracer()
        install(tracer, cli)
    ref_before = reference_s()
    c0 = time.process_time()
    t1 = time.perf_counter()
    rc = cli.main(job["argv"])
    wall_s = time.perf_counter() - t1
    cpu_s = time.process_time() - c0
    ref_after = reference_s()
    if tracer is not None:
        Path(job["spans"]).write_text(json.dumps(tracer.spans))
    report = {
        "rc": rc,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "reference_s": (ref_before + ref_after) / 2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    Path(job["report"]).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
