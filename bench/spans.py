"""Per-layer numbers from the spans one traced invocation wrote.

A span is [id, name, parent id, replicate group, start, end, payload];
sampler spans carry payload [edges, n].  A span's self time is its
duration minus the part of its interval that its child spans cover; at
two threads the children of a cli-level span overlap, so the covered part
is the union of their intervals.
"""

from collections import defaultdict

# wrapped function -> per-layer busy-time metric (self time, seconds)
LAYER_OF = {
    "replicate_seed": "sampler.replicate_seed_s",
    "sample": "sampler.sample_s",
    "resample_edges": "sampler.sample_s",
    "adjacency": "sampler.adjacency_s",
    "triangle_count": "counting.triangle_count_s",
    "count": "counting.count_s",
    "conditional_expected_count": "counting.conditional_expected_count_s",
    "count_embeddings": "motif.count_embeddings_s",
    "ks_test": "stats.ks_test_s",
    "run_experiment": "experiments.self_s",
    "replicate_rows": "experiments.replicate_rows_s",
    "write_result": "cli.write_result_s",
}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))
SAMPLERS = ("sample", "resample_edges")


def self_times(spans) -> dict:
    """Span id -> self seconds."""
    children = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append((s[4], s[5]))
    out = {}
    for sid, _, _, _, start, end, _ in spans:
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out[sid] = (end - start) - covered
    return out


def layer_totals(spans) -> dict:
    """Per-layer self seconds plus sample calls and edges sampled."""
    selfs = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    calls = edges = 0
    for s in spans:
        out[LAYER_OF[s[1]]] += selfs[s[0]]
        if s[1] in SAMPLERS:
            calls += 1
            edges += s[6][0]
    out["sampler.sample_calls"] = calls
    out["sampler.edges_sampled"] = edges
    return out


def _replicate_groups(spans) -> dict:
    """Group key -> spans, for groups that drew a graph (one replicate)."""
    groups = defaultdict(list)
    for s in spans:
        if s[3] is not None:
            groups[s[3]].append(s)
    return {k: v for k, v in groups.items()
            if any(s[1] in SAMPLERS for s in v)}


def replicate_ms(spans) -> list:
    """Wall milliseconds of each replicate, first span start to last end."""
    return [1e3 * (max(s[5] for s in g) - min(s[4] for s in g))
            for g in _replicate_groups(spans).values()]


def split_by_n(spans) -> dict:
    """n -> {"replicates": count, layer: self seconds summed over them}."""
    selfs = self_times(spans)
    out = {}
    for group in _replicate_groups(spans).values():
        n = next(s[6][1] for s in group if s[1] in SAMPLERS)
        row = out.setdefault(n, defaultdict(float))
        row["replicates"] += 1
        for s in group:
            row[LAYER_OF[s[1]]] += selfs[s[0]]
    return out
