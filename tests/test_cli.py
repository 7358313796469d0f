import argparse
import csv
import json
import math
import re
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from graphon_motifs import (
    Motif,
    SampledGraph,
    experiments,
    hom_density,
    named_graphon,
    projection_variance,
)
from graphon_motifs.cli import SUBCOMMANDS, build_parser, main
from graphon_motifs.graphon import MAX_CRITICAL_VERTICES
from graphon_motifs.motif import _NAMED
from util import split_blocks


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_motif_triangle(capsys):
    code, out, _ = run_cli(capsys, "analyze-motif", "triangle")
    assert code == 0
    assert "m  = 1 (1)" in out
    assert "m1 = 3/2 (1.5)" in out
    assert "strictly strongly balanced: True" in out


def test_analyze_motif_fig1b(capsys):
    code, out, _ = run_cli(capsys, "analyze-motif", "fig1b")
    assert code == 0
    assert "m  = 5/4" in out
    assert "balanced: False" in out


def test_analyze_motif_json_output(capsys, tmp_path):
    out_file = tmp_path / "motif.json"
    code, out, _ = run_cli(capsys, "analyze-motif", "triangle",
                           "--format", "json", "--output", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert doc["m"] == [1, 1]
    assert doc["m1"] == [3, 2]
    assert doc["automorphisms"] == 6


def test_analyze_motif_from_file(capsys, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"vertices": 3,
                                "edges": [[1, 2], [2, 3], [1, 3]]}))
    code, out, _ = run_cli(capsys, "analyze-motif", str(path))
    assert code == 0
    assert "automorphisms: 6" in out


def test_analyze_motif_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze-motif", "/no/such/file.json")
    assert code == 2
    assert "error" in err


def test_analyze_motif_malformed_json(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze-motif", str(path))
    assert code == 2


@pytest.mark.parametrize("doc,message", [
    ({"vertices": 3.9, "edges": [[1, 2], [2, 3], [1, 3]]},
     "motif vertex count 3.9 is not an integer"),
    ({"vertices": True, "edges": []}, "motif vertex count True is not"),
    ({"vertices": 3, "edges": [[1, 2.5]]}, "motif edge endpoint 2.5 is not"),
], ids=["float_count", "bool_count", "float_end"])
@pytest.mark.parametrize("command", ["analyze-motif", "count", "decompose"])
def test_bad_motif_file_gives_the_reason(capsys, tmp_path, doc, message,
                                         command):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(doc))
    graph = tmp_path / "g.txt"
    graph.write_text("4 0.5 1\n1 2\nlatents\n0.1\n0.2\n0.3\n0.4\n")
    argv = {"analyze-motif": [str(path)],
            "count": ["--graph", str(graph), "--motif", str(path)],
            "decompose": ["--graphon", "W_asym", "--motif", str(path),
                          "--n", "20", "--rho", "0.3", "--seed", "1"]}
    code, out, err = run_cli(capsys, command, *argv[command])
    assert code == 2
    assert out == ""
    assert "malformed motif file" in err
    assert message in err


@pytest.mark.parametrize("text,reason", [
    (None, "no such {} name or file: {}"),
    ("{not json", "malformed {} file {}: Expecting property name"),
    ("[]", "malformed {} file {}: list indices"),
    ("{}", "malformed {} file {}: "),
], ids=["missing", "not_json", "not_an_object", "no_fields"])
@pytest.mark.parametrize("kind,argv", [
    ("motif", ["analyze-motif"]),
    ("graphon", ["analyze-graphon", "--motif", "edge", "--graphon"]),
])
def test_bad_source_names_its_kind(capsys, tmp_path, text, reason, kind,
                                   argv):
    path = tmp_path / "source.json"
    if text is not None:
        path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: " + reason.format(kind, path))


def test_analyze_graphon(capsys):
    code, out, _ = run_cli(capsys, "analyze-graphon",
                           "--graphon", "W_asym", "--motif", "edge")
    assert code == 0
    assert "density t = 0.4" in out
    assert "regular for this motif: False" in out
    assert "projection variance = 0.039999" in out
    assert "critical share at c=1: 0.8333" in out


def test_analyze_graphon_barely_irregular_case(capsys, tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"pi": [0.5, 0.5],
                                "values": [[0.5, 0.5], [0.5, 0.5000002]]}))
    code, out, err = run_cli(capsys, "analyze-graphon",
                             "--graphon", str(path), "--motif", "edge")
    assert code == 0, err
    assert "regular for this motif: False" in out
    shares = re.findall(r"critical share at c=\S+: (\S+)", out)
    assert len(shares) == 3
    assert all(0.0 < float(v) <= 1.0 for v in shares), shares


def _shares_on_six_blocks(capsys, tmp_path, motif):
    """Three printed critical shares of ``motif`` on split_blocks(W_asym,
    3), checked against the same shares on W_asym."""
    shares = []
    for graphon in (split_blocks(named_graphon("W_asym"), 3),
                    named_graphon("W_asym")):
        path = tmp_path / f"w{graphon.block_count}.json"
        path.write_text(json.dumps(graphon.to_json_dict()))
        code, out, err = run_cli(capsys, "analyze-graphon",
                                 "--graphon", str(path), "--motif", motif)
        assert code == 0, err
        assert f"graphon: {graphon.block_count} blocks" in out
        assert "regular for this motif: False" in out
        shares.append([float(v) for v in re.findall(
            r"critical share at c=\S+: (\S+)", out)])
    six, two = shares
    assert len(six) == 3
    assert six == pytest.approx(two, rel=1e-12, abs=0.0)


def test_analyze_graphon_c5_on_six_blocks(capsys, tmp_path):
    _shares_on_six_blocks(capsys, tmp_path, "c5")


def test_analyze_graphon_fig2a_on_six_blocks(capsys, tmp_path):
    # its m1 maximum is the triangle, so overlaps share three vertices
    _shares_on_six_blocks(capsys, tmp_path, "fig2a")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_analyze_graphon_reports_all_but_the_share_past_the_vertex_cap(
        capsys, tmp_path, fmt):
    k = MAX_CRITICAL_VERTICES + 1
    path7 = Motif(k, [(i, i + 1) for i in range(1, k)])
    path = tmp_path / "m.json"
    path.write_text(json.dumps(path7.to_json_dict()))
    w = named_graphon("W_asym")
    code, out, err = run_cli(capsys, "analyze-graphon", "--graphon", "W_asym",
                             "--motif", str(path), "--format", fmt)
    assert code == 0, err
    if fmt == "text":
        assert f"density t = {hom_density(path7, w)!r}" in out
        assert "degree function per block: " in out
        assert "regular for this motif: False" in out
        assert (f"projection variance = {projection_variance(path7, w)!r}"
                in out)
        assert out.endswith(f"critical share: not computed (motifs of more "
                            f"than {MAX_CRITICAL_VERTICES} vertices)\n")
    else:
        doc = json.loads(out)
        assert doc["t"] == hom_density(path7, w)
        assert len(doc["degree_function"]) == w.block_count
        assert doc["is_regular"] is False
        assert doc["projection_variance"] == projection_variance(path7, w)
        assert doc["critical_share"] is None


def test_analyze_graphon_regular_case(capsys):
    code, out, _ = run_cli(capsys, "analyze-graphon",
                           "--graphon", "const:0.5", "--motif", "triangle")
    assert code == 0
    assert "regular for this motif: True" in out
    assert "undefined (regular case)" in out


def test_sample_count_round_trip(capsys, tmp_path):
    path = tmp_path / "g.txt"
    code, out, _ = run_cli(capsys, "sample", "--graphon", "W_asym",
                           "--n", "30", "--rho", "0.3", "--seed", "42",
                           "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "count", "--graph", str(path),
                           "--motif", "edge")
    assert code == 0
    lines = path.read_text().splitlines()
    edge_lines = lines[1:lines.index("latents")]
    assert int(out.strip()) == len(edge_lines)
    code, out, _ = run_cli(capsys, "count", "--graph", str(path),
                           "--motif", "triangle")
    assert code == 0
    assert int(out.strip()) >= 0


# A triangle plus its first edge reversed, a path with a self-loop and a
# vertex past n, values out of range, and lines that do not parse, named
# by their number in the file (blank lines count): every motif must reject
# each as bad input.
MALFORMED_DUMPS = {
    "reversed_duplicate": ("3 0.5 1\n1 2\n2 3\n1 3\n2 1\n"
                           "latents\n0.1\n0.2\n0.3\n"),
    "self_loop_out_of_range": ("3 0.5 1\n1 2\n2 2\n3 4\n"
                               "latents\n0.1\n0.2\n0.3\n"),
    "empty": "",
    "n_zero": "0 0.5 1\nlatents\n",
    "rho_above_one": "3 1.5 1\n1 2\nlatents\n0.1\n0.2\n0.3\n",
    "nan_latent": "3 0.5 1\n1 2\nlatents\n0.1\nnan\n0.5\n",
    "latent_above_one": "3 0.5 1\n1 2\nlatents\n0.1\n1.5\n0.5\n",
    "negative_latent": "3 0.5 1\n1 2\nlatents\n-0.2\n0.1\n0.5\n",
    "two_field_header": "3 0.5\n1 2\nlatents\n0.1\n0.2\n0.3\n",
    "three_field_edge": "3 0.5 1\n1 2 3\nlatents\n0.1\n0.2\n0.3\n",
    "non_integer_edge": "3 0.5 1\n\n1 x\nlatents\n0.1\n0.2\n0.3\n",
    "no_latents_line": "3 0.5 1\n1 2\n0.1\n0.2\n0.3\n",
    "non_numeric_latent": "3 0.5 1\n1 2\nlatents\n0.1\nabc\n0.3\n",
}
# the reason each one is refused, as the error names it
MALFORMED_DUMP_REASONS = {
    "reversed_duplicate": "duplicate edge 1 2",
    "self_loop_out_of_range": "self-loop 2 2",
    "empty": "empty graph dump",
    "n_zero": "n = 0 must be at least 1",
    "rho_above_one": "rho = 1.5 must lie in (0, 1]",
    "nan_latent": "latent nan of vertex 2 outside [0, 1)",
    "latent_above_one": "latent 1.5 of vertex 2 outside [0, 1)",
    "negative_latent": "latent -0.2 of vertex 1 outside [0, 1)",
    "two_field_header": "line 1: expected 'n rho seed', got '3 0.5'",
    "three_field_edge": "line 2: expected an edge 'a b' or 'latents', "
                        "got '1 2 3'",
    "non_integer_edge": "line 3: expected an edge 'a b' or 'latents', "
                        "got '1 x'",
    "no_latents_line": "line 3: expected an edge 'a b' or 'latents', "
                       "got '0.1'",
    "non_numeric_latent": "line 5: expected a latent, got 'abc'",
}


@pytest.mark.parametrize("motif", ["edge", "triangle", "path3"])
@pytest.mark.parametrize("dump", sorted(MALFORMED_DUMPS))
def test_count_rejects_malformed_dump(capsys, tmp_path, dump, motif):
    path = tmp_path / "g.txt"
    path.write_text(MALFORMED_DUMPS[dump])
    code, out, err = run_cli(capsys, "count", "--graph", str(path),
                             "--motif", motif)
    assert code == 2
    assert out == ""
    assert "malformed graph dump" in err
    assert MALFORMED_DUMP_REASONS[dump] in err


@st.composite
def _dump_with_one_fault(draw):
    """A valid dump, and the same dump with one malformation injected: a
    self-loop, an out-of-range vertex, a duplicate or reversed duplicate
    edge, a wrong latent count or a non-integer token in an edge line."""
    n = draw(st.integers(2, 8))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(1, n + 1),
                                                             2))),
                          unique=True, max_size=8))
    edges = [(b, a) if draw(st.booleans()) else (a, b) for a, b in pairs]
    latents = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                            min_size=n, max_size=n))
    fault = draw(st.sampled_from(["self_loop", "out_of_range", "duplicate",
                                  "reversed_duplicate", "latent_count",
                                  "non_integer"]))
    bad_edges, bad_latents = list(edges), list(latents)
    if fault == "self_loop":
        v = draw(st.integers(1, n))
        bad_edges.insert(draw(st.integers(0, len(edges))), (v, v))
    elif fault == "out_of_range":
        v = draw(st.one_of(st.integers(-3, 0), st.integers(n + 1, n + 4)))
        e = (draw(st.integers(1, n)), v)
        bad_edges.insert(draw(st.integers(0, len(edges))),
                         e[::-1] if draw(st.booleans()) else e)
    elif fault in ("duplicate", "reversed_duplicate"):
        if not edges:
            edges.append((1, 2))
            bad_edges.append((1, 2))
        a, b = draw(st.sampled_from(edges))
        e = (b, a) if fault == "reversed_duplicate" else (a, b)
        bad_edges.insert(draw(st.integers(0, len(bad_edges))), e)
    elif fault == "latent_count":
        size = draw(st.integers(0, n + 3).filter(lambda k: k != n))
        bad_latents = (latents + [0.5] * 3)[:size]
    else:
        token = draw(st.sampled_from(["x", "1.5", "2e0", "nan", "0x1", "--1"]))
        k = draw(st.integers(0, len(edges)))
        e = list(edges[k]) if k < len(edges) else [1, 2]
        e[draw(st.integers(0, 1))] = token
        bad_edges[k:k + (k < len(edges))] = [tuple(e)]

    def text(es, us):
        return "\n".join([f"{n} 0.5 3", *(f"{a} {b}" for a, b in es),
                          "latents", *map(repr, us)]) + "\n"

    return text(edges, latents), text(bad_edges, bad_latents)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_dump_with_one_fault())
def test_count_rejects_any_malformed_dump(capsys, tmp_path, dumps):
    valid, bad = dumps
    SampledGraph.from_dump(valid)
    path = tmp_path / "g.txt"
    path.write_text(bad)
    for motif in sorted(_NAMED):
        code, out, err = run_cli(capsys, "count", "--graph", str(path),
                                 "--motif", motif)
        assert code == 2, (motif, bad)
        assert out == ""
        assert "malformed graph dump" in err


def test_sample_determinism(capsys, tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    run_cli(capsys, "sample", "--graphon", "W_sym", "--n", "50",
            "--rho", "0.2", "--seed", "9", "--out", str(p1))
    run_cli(capsys, "sample", "--graphon", "W_sym", "--n", "50",
            "--rho", "0.2", "--seed", "9", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_sample_validation(capsys):
    code, _, err = run_cli(capsys, "sample", "--graphon", "W_sym",
                           "--n", "50", "--rho", "0.0", "--seed", "1")
    assert code == 2


@pytest.mark.parametrize("n,rho,message", [
    ("0", "0.5", "n must be at least 1"),
    ("5", "0", r"rho must lie in (0, 1]"),
    ("5", "1.5", r"rho must lie in (0, 1]"),
], ids=["n0", "rho0", "rho1.5"])
@pytest.mark.parametrize("command", ["sample", "sample_out", "decompose"])
def test_sample_and_decompose_reject_bad_n_and_rho(capsys, tmp_path, command,
                                                   n, rho, message):
    out = tmp_path / "g.txt"
    argv = ["sample" if command.startswith("sample") else command,
            "--graphon", "W_sym", "--n", n, "--rho", rho, "--seed", "1"]
    if command == "sample_out":
        argv += ["--out", str(out)]
    elif command == "decompose":
        argv += ["--motif", "triangle", "--output", str(out)]
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert message in err
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--graphon", "W_asym",
                           "--motif", "triangle", "--n", "30",
                           "--rho", "0.3", "--seed", "42")
    assert code == 0
    vals = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            vals[key.strip()] = val.strip()
    assert float(vals["delta"]) == pytest.approx(
        float(vals["delta1"]) + float(vals["delta2"]), abs=1e-9)


def test_run_experiment_writes_outputs(capsys, tmp_path):
    cfg = {
        "experiment_kind": "containment",
        "motif": "triangle",
        "graphon": "const:1.0",
        "schedule": {"a": 1.0, "gamma": 1.2},
        "n_values": [100, 200],
        "replicates": 50,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, _, err = run_cli(capsys, "run-experiment", "--config",
                           str(cfg_path), "--out-dir", str(out_dir))
    assert code == 0
    assert re.search(r"^elapsed \d+\.\d\ds, \d+ replicates/s$", err, re.M)
    summary = json.loads((out_dir / "summary.json").read_text())
    assert len(summary["records"]) == 2
    csv_lines = (out_dir / "summary.csv").read_text().splitlines()
    assert len(csv_lines) == 3  # header + one row per n


def test_run_experiment_byte_identical(capsys, tmp_path):
    cfg = {
        "experiment_kind": "clt",
        "motif": "edge",
        "graphon": "W_asym",
        "schedule": {"a": 1.0, "gamma": 0.5},
        "n_values": [80],
        "replicates": 120,
        "seed": 11,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    d1, d2 = tmp_path / "o1", tmp_path / "o2"
    assert run_cli(capsys, "run-experiment", "--config", str(cfg_path),
                   "--out-dir", str(d1), "--threads", "1",
                   "--with-replicates")[0] == 0
    assert run_cli(capsys, "run-experiment", "--config", str(cfg_path),
                   "--out-dir", str(d2), "--threads", "4",
                   "--with-replicates")[0] == 0
    for name in ("summary.json", "summary.csv", "replicates.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()



def test_run_experiment_conditional_replicates_match_summary(capsys, tmp_path):
    # replicates.csv holds the campaign's own frozen-latent replicates
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "conditional_clt", "motif": "triangle",
        "graphon": "W_sym", "schedule": {"a": 1.0, "gamma": 0.5},
        "n_values": [60], "replicates": 100, "seed": 41}))
    out = tmp_path / "out"
    assert run_cli(capsys, "run-experiment", "--config", str(cfg_path),
                   "--out-dir", str(out), "--threads", "1",
                   "--with-replicates")[0] == 0
    rec = json.loads((out / "summary.json").read_text())["records"][0]
    with open(out / "replicates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    xs = [int(row["x"]) for row in rows]
    assert sum(xs) / len(xs) == pytest.approx(rec["mean_x"], rel=1e-12)
    assert {float(row["cond_expected"]) for row in rows} == {rec["cond_mean"]}


def test_run_experiment_has_no_format_flag(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "containment", "motif": "edge",
        "graphon": "const:1.0", "schedule": {"a": 1.0, "gamma": 1.2},
        "n_values": [10], "replicates": 5, "seed": 7}))
    code, _, err = run_cli(capsys, "run-experiment", "--config",
                           str(cfg_path), "--out-dir", str(tmp_path / "o"),
                           "--format", "json")
    assert code == 2
    assert "--format" in err


def test_run_experiment_defaults_to_one_thread():
    args = build_parser().parse_args(
        ["run-experiment", "--config", "c.json", "--out-dir", "o"])
    assert args.threads == 1


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_run_experiment_rejects_threads_below_one(capsys, tmp_path, threads):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "containment", "motif": "edge",
        "graphon": "const:1.0", "schedule": {"a": 1.0, "gamma": 1.2},
        "n_values": [10], "replicates": 5, "seed": 7}))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "run-experiment", "--config",
                           str(cfg_path), "--out-dir", str(out),
                           "--threads", threads)
    assert code == 2
    assert f"threads must be at least 1, not {threads}" in err
    assert not out.exists()


def test_run_experiment_rejects_replicates_at_the_latent_tag(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "conditional_clt", "motif": "triangle",
        "graphon": "W_sym", "schedule": {"a": 1.0, "gamma": 0.5},
        "n_values": [6], "replicates": 0xFEED0000, "seed": 7}))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "run-experiment", "--config",
                           str(cfg_path), "--out-dir", str(out))
    assert code == 2
    assert "replicates must be below 0xfeed0000" in err
    assert not out.exists()


@pytest.mark.parametrize("over,message", [
    (dict(n_values=[20.7]), "n value 20.7 is not an integer"),
    (dict(replicates=10.9), "replicates 10.9 is not an integer"),
    (dict(replicates=True), "replicates True is not an integer"),
    (dict(seed=1.5), "seed 1.5 is not an integer"),
    (dict(schedule={"a": math.nan, "gamma": 0.5}),
     "amplitude nan must be positive and finite"),
    (dict(schedule={"a": math.inf, "gamma": 0.5}),
     "amplitude inf must be positive and finite"),
    (dict(schedule={"a": 1.0, "gamma": math.nan}),
     "exponent nan must be nonnegative and finite"),
    (dict(graphon={"pi": [math.nan, 1.0],
                   "values": [[0.5, 0.5], [0.5, 0.5]]}),
     "block widths [nan, 1.0] must be positive and finite"),
    (dict(schedule={"a": True, "gamma": 0.5}),
     "schedule a True is not a real number"),
    (dict(schedule={"a": 1.0, "gamma": "0.5"}),
     "schedule gamma '0.5' is not a real number"),
    (dict(graphon={"pi": ["1.0"], "values": [[0.5]]}),
     "block width '1.0' is not a real number"),
    (dict(graphon={"pi": [1.0], "values": [[False]]}),
     "graphon value False is not a real number"),
    (dict(motif={"vertices": 3.9, "edges": [[1, 2], [2, 3], [1, 3]]}),
     "motif vertex count 3.9 is not an integer"),
    (dict(motif={"vertices": 3, "edges": [[1, True]]}),
     "motif edge endpoint True is not an integer"),
], ids=["n_float", "replicates_float", "replicates_bool", "seed_float",
        "a_nan", "a_inf", "gamma_nan", "widths_nan", "a_bool", "gamma_str",
        "width_str", "value_bool", "motif_float_count", "motif_bool_end"])
def test_run_experiment_rejects_invalid_numbers(capsys, tmp_path, over,
                                                message):
    cfg = {"experiment_kind": "containment", "motif": "edge",
           "graphon": "W_asym", "schedule": {"a": 1.0, "gamma": 1.2},
           "n_values": [20], "replicates": 10, "seed": 7}
    cfg.update(over)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "run-experiment", "--config",
                                str(cfg_path), "--out-dir", str(out))
    assert code == 2
    assert message in err
    assert stdout == ""
    assert not out.exists()


def test_run_experiment_refuses_a_pair_over_the_assignment_cap(
        capsys, tmp_path):
    # 4^12 block assignments: exit 2 before any sampling, no output
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "clt",
        "motif": {"vertices": 12,
                  "edges": [[v, v + 1] for v in range(1, 12)]},
        "graphon": {"pi": [0.25] * 4,
                    "values": [[0.6 if a == b else 0.3 for b in range(4)]
                               for a in range(4)]},
        "schedule": {"a": 1.0, "gamma": 0.5}, "n_values": [20],
        "replicates": 30, "seed": 7}))
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "run-experiment", "--config",
                                str(cfg_path), "--out-dir", str(out))
    assert code == 2
    assert "4^12 block assignments exceed cap 10000000" in err
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("over,message", [
    (dict(experiment_kind="clt", motif="triangle",
          schedule={"a": 1.0, "gamma": 1.2}),
     "normality run not meaningful in regime 'below_containment'"),
    (dict(experiment_kind="critical_kappa", graphon="W_sym",
          schedule={"a": 1.0, "gamma": 1.0}),
     "critical share undefined for a regular graphon"),
], ids=["clt_below_containment", "critical_regular"])
def test_run_experiment_refuses_a_meaningless_campaign(capsys, tmp_path,
                                                       over, message):
    # refused when the config is read, before any sampling: exit 2, no output
    cfg = {"experiment_kind": "clt", "motif": "edge", "graphon": "W_asym",
           "schedule": {"a": 1.0, "gamma": 0.5}, "n_values": [20],
           "replicates": 60, "seed": 7}
    cfg.update(over)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "run-experiment", "--config",
                                str(cfg_path), "--out-dir", str(out))
    assert code == 2
    assert f"invalid experiment config: {message}" in err
    assert stdout == ""
    assert not out.exists()


def test_run_experiment_degenerate_campaign_is_a_runtime_failure(
        capsys, tmp_path):
    # a valid config whose count never varies: K5 at rho = 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "clt", "motif": "edge", "graphon": "const:1.0",
        "schedule": {"a": 1.0, "gamma": 0.0}, "n_values": [5],
        "replicates": 50, "seed": 7}))
    out = tmp_path / "o"
    code, _, err = run_cli(capsys, "run-experiment", "--config",
                           str(cfg_path), "--out-dir", str(out))
    assert code == 1
    assert "zero empirical variance of the count" in err
    assert not out.exists()


def test_run_experiment_value_error_after_the_config_is_a_runtime_failure(
        capsys, tmp_path, monkeypatch):
    def fail(g, m):
        raise ValueError("count failed")

    monkeypatch.setattr(experiments, "count", fail)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "clt", "motif": "triangle", "graphon": "W_asym",
        "schedule": {"a": 1.0, "gamma": 0.5}, "n_values": [20],
        "replicates": 60, "seed": 7}))
    out = tmp_path / "o"
    code, stdout, err = run_cli(capsys, "run-experiment", "--config",
                                str(cfg_path), "--out-dir", str(out))
    assert code == 1
    assert "runtime error: count failed" in err
    assert stdout == ""
    assert not out.exists()


def test_run_experiment_invalid_config(capsys, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "experiment_kind": "containment", "motif": "triangle",
        "graphon": "const:1.0", "schedule": {"a": 1.0, "gamma": 1.2},
        "n_values": [100], "replicates": 0, "seed": 7}))
    code, _, err = run_cli(capsys, "run-experiment", "--config",
                           str(cfg_path), "--out-dir", str(tmp_path / "x"))
    assert code == 2
    code, _, _ = run_cli(capsys, "run-experiment", "--config",
                         "/no/such/cfg.json", "--out-dir", str(tmp_path / "y"))
    assert code == 2


@pytest.mark.parametrize("name,message", [
    ("const:nan", "value nan outside [0,1]"),
    ("const:2", "value 2.0 outside [0,1]"),
    ("const:x", "could not convert string to float: 'x'"),
], ids=["nan", "2", "x"])
def test_bad_const_graphon_gives_the_reason(capsys, name, message):
    code, out, err = run_cli(capsys, "sample", "--graphon", name,
                             "--n", "5", "--rho", "0.5", "--seed", "1")
    assert code == 2
    assert out == ""
    assert message in err
    assert "no such graphon" not in err


def test_usage_error_exit_code(capsys):
    assert main(["no-such-command"]) == 2


def _outcome(capsys, parse):
    """(exit code, stdout, stderr) of a parse that may exit."""
    try:
        parse()
        code = None
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _subparser(parser, name):
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


# per subcommand: a valid argument list, and arguments that give a bad int
# (or, where it takes no int, a bad --format choice)
_VALID_ARGV = {
    "analyze-motif": (["triangle"], ["triangle", "--format", "xml"]),
    "analyze-graphon": (["--graphon", "W_sym", "--motif", "edge"],
                        ["--graphon", "W_sym", "--motif", "edge",
                         "--format", "xml"]),
    "sample": (["--graphon", "W_sym", "--n", "5", "--rho", "1", "--seed",
                "1"], ["--graphon", "W_sym", "--n", "5.5", "--rho", "1",
                       "--seed", "1"]),
    "count": (["--graph", "g.txt", "--motif", "edge"],
              ["--graph", "g.txt", "--motif", "edge", "--format", "json"]),
    "decompose": (["--graphon", "W_sym", "--motif", "edge", "--n", "5",
                   "--rho", "1", "--seed", "1"],
                  ["--graphon", "W_sym", "--motif", "edge", "--n", "5",
                   "--rho", "1", "--seed", "x"]),
    "run-experiment": (["--config", "c.json", "--out-dir", "o"],
                       ["--config", "c.json", "--out-dir", "o",
                        "--threads", "two"]),
}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_one_subcommand_parser_reads_as_the_full_parser(capsys, name):
    full, lean = build_parser(), build_parser((name,))
    assert _subparser(lean, name).format_help() \
        == _subparser(full, name).format_help()
    assert lean.format_usage() == full.format_usage()
    valid, bad = _VALID_ARGV[name]
    assert vars(lean.parse_args([name, *valid])) \
        == vars(full.parse_args([name, *valid]))
    # --help; a missing required argument; a bad value; an unknown option,
    # which the top-level parser reports under its own usage line
    for args in (["--help"], valid[:-2] if len(valid) > 2 else [], bad,
                 [*valid, "--no-such-option"]):
        argv = [name, *args]
        want = _outcome(capsys, lambda: full.parse_args(argv))
        assert want[0] == (0 if args == ["--help"] else 2)
        assert want[1 if args == ["--help"] else 2]
        assert _outcome(capsys, lambda: lean.parse_args(argv)) == want
        # main builds the lean parser for this argv
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (want[0], want[1], want[2])


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["no-such-command"],
                                  ["--no-such-option", "sample"]],
                         ids=["none", "h", "help", "unknown", "option"])
def test_main_builds_every_subcommand_when_none_is_named(capsys, argv):
    want = _outcome(capsys, lambda: build_parser().parse_args(argv))
    assert run_cli(capsys, *argv) == want
    usage = build_parser().format_usage()
    assert "{" + ",".join(SUBCOMMANDS) + "}" in usage.replace("\n", "") \
        .replace(" ", "")
    if argv == []:
        assert want == (2, "", usage + "graphon-motifs: error: the following "
                        "arguments are required: command\n")
    elif argv[0] in ("-h", "--help"):
        assert want[0] == 0 and want[1].startswith(usage)
        assert all(f"    {name}" in want[1] for name in SUBCOMMANDS)
    else:
        assert want[0] == 2 and "error: " in want[2]
