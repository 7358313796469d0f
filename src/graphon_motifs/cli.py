"""Command-line front end.

Subcommands: analyze-motif, analyze-graphon, sample, count, decompose,
run-experiment, each defined once in ``SUBCOMMANDS``.  ``main`` builds
only the parser of the subcommand that its first argument names, and all
six when it names none (no argument, -h, an unknown name), so help, usage
and error output read the same either way.  Human-readable text goes to
stdout; machine output only through --format/--output.  Exit codes:
0 success, 1 runtime error, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from .motif import (
    Motif,
    automorphism_count,
    density_exponents,
    named_motif,
)
from .graphon import (
    MAX_CRITICAL_VERTICES,
    StepGraphon,
    critical_edge_variance_share,
    hom_density,
    degree_function,
    named_graphon,
    projection_variance,
    regularity_report,
)
from .sampler import SampledGraph, sample
from .counting import count, decompose
from .experiments import (
    ExperimentConfig,
    replicate_rows,
    run_experiment,
    write_result,
)


def _load(kind: str, source: str):
    """The motif or graphon (``kind``) of that name, else read from the
    JSON file at the path ``source``."""
    named, from_json_dict = (
        (named_motif, Motif.from_json_dict) if kind == "motif"
        else (named_graphon, StepGraphon.from_json_dict))
    try:
        return named(source)
    except ValueError as exc:
        if kind == "graphon" and source.startswith("const:"):
            raise ValueError(f"bad graphon {source}: {exc}") from exc
    path = Path(source)
    if not path.exists():
        raise ValueError(f"no such {kind} name or file: {source}")
    try:
        return from_json_dict(json.loads(path.read_text()))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {kind} file {source}: {exc}") from exc


def _emit(text_report: str, machine: dict, args):
    if args.format == "json":
        payload = json.dumps(machine, indent=2, sort_keys=True) + "\n"
        if args.output:
            Path(args.output).write_text(payload)
        else:
            sys.stdout.write(payload)
    else:
        sys.stdout.write(text_report)
        if args.output:
            Path(args.output).write_text(text_report)


def _fraction_str(f: Fraction) -> str:
    return f"{f} ({float(f):g})"


def cmd_analyze_motif(args) -> int:
    m = _load("motif", args.motif)
    prof = density_exponents(m)
    aut = automorphism_count(m)
    lines = [
        f"motif: {m.vertex_count} vertices, {m.edge_count} edges",
        f"edges: {list(m.sorted_edges())}",
        f"automorphisms: {aut}",
        f"m  = {_fraction_str(prof.m)}",
        f"m1 = {_fraction_str(prof.m1)}",
        f"balanced: {prof.balanced}",
        f"strictly balanced: {prof.strictly_balanced}",
        f"strongly balanced: {prof.strongly_balanced}",
        f"strictly strongly balanced: {prof.strictly_strongly_balanced}",
        "m1 maximizer classes:",
    ]
    for s in prof.m1_maximizers:
        lines.append(f"  {s.vertex_count} vertices, edges {list(s.sorted_edges())}")
    machine = {
        "vertices": m.vertex_count,
        "edges": [list(e) for e in m.sorted_edges()],
        "automorphisms": aut,
        "m": [prof.m.numerator, prof.m.denominator],
        "m1": [prof.m1.numerator, prof.m1.denominator],
        "balanced": prof.balanced,
        "strictly_balanced": prof.strictly_balanced,
        "strongly_balanced": prof.strongly_balanced,
        "strictly_strongly_balanced": prof.strictly_strongly_balanced,
        "m1_maximizers": [s.to_json_dict() for s in prof.m1_maximizers],
    }
    _emit("\n".join(lines) + "\n", machine, args)
    return 0


def cmd_analyze_graphon(args) -> int:
    w = _load("graphon", args.graphon)
    m = _load("motif", args.motif)
    t = hom_density(m, w)
    rep = regularity_report(m, w)
    xi = projection_variance(m, w)
    lines = [
        f"graphon: {w.block_count} blocks, pi = {list(w.pi)}",
        f"motif: {m.vertex_count} vertices, {m.edge_count} edges",
        f"density t = {t!r}",
        f"degree function per block: {[float(d) for d in degree_function(w)]}",
        f"regular for this motif: {rep.is_regular} "
        f"(max deviation {rep.max_deviation:.3g})",
        f"projection variance = {xi!r}",
    ]
    shares = {}
    if rep.is_regular:
        lines.append("critical share: undefined (regular case)")
    elif m.vertex_count > MAX_CRITICAL_VERTICES:
        lines.append(f"critical share: not computed (motifs of more than "
                     f"{MAX_CRITICAL_VERTICES} vertices)")
    else:
        for c in (0.5, 1.0, 2.0):
            val = critical_edge_variance_share(m, w, c)
            shares[repr(c)] = val
            lines.append(f"critical share at c={c:g}: {val!r}")
    machine = {
        "t": t,
        "degree_function": [float(d) for d in degree_function(w)],
        "is_regular": rep.is_regular,
        "max_deviation": rep.max_deviation,
        "projection_variance": xi,
        "critical_share": shares if shares else None,
    }
    _emit("\n".join(lines) + "\n", machine, args)
    return 0


def cmd_sample(args) -> int:
    w = _load("graphon", args.graphon)
    g = sample(w, args.n, args.rho, args.seed)
    dump = g.to_dump()
    if args.out:
        Path(args.out).write_text(dump)
        sys.stdout.write(f"wrote {g.edge_count} edges to {args.out}\n")
    else:
        sys.stdout.write(dump)
    return 0


def cmd_count(args) -> int:
    m = _load("motif", args.motif)
    path = Path(args.graph)
    if not path.exists():
        raise ValueError(f"no such graph file: {args.graph}")
    try:
        g = SampledGraph.from_dump(path.read_text())
    except ValueError as exc:
        raise ValueError(f"malformed graph dump {args.graph}: {exc}") from exc
    sys.stdout.write(f"{count(g, m)}\n")
    return 0


def cmd_decompose(args) -> int:
    w = _load("graphon", args.graphon)
    m = _load("motif", args.motif)
    g = sample(w, args.n, args.rho, args.seed)
    d = decompose(g, m, w)
    lines = [
        f"n = {g.n}, rho = {g.rho!r}, seed = {g.seed}",
        f"x = {d.x}",
        f"expected = {d.expected!r}",
        f"conditional expected = {d.conditional_expected!r}",
        f"delta  = {d.delta!r}",
        f"delta1 = {d.delta1!r}",
        f"delta2 = {d.delta2!r}",
    ]
    machine = {"n": g.n, "rho": g.rho, "seed": g.seed, "x": d.x,
               "expected": d.expected,
               "cond_expected": d.conditional_expected,
               "delta": d.delta, "delta1": d.delta1, "delta2": d.delta2}
    _emit("\n".join(lines) + "\n", machine, args)
    return 0


def cmd_run_experiment(args) -> int:
    path = Path(args.config)
    if not path.exists():
        raise ValueError(f"no such config file: {args.config}")
    try:
        cfg = ExperimentConfig.from_json_dict(json.loads(path.read_text()))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"invalid experiment config: {exc}") from exc
    if args.threads < 1:
        raise ValueError(f"threads must be at least 1, not {args.threads}")
    t0 = time.perf_counter()
    try:
        result = run_experiment(cfg)
        table = replicate_rows(result) if args.with_replicates else None
        write_result(result, args.out_dir, replicate_table=table)
    except ValueError as exc:
        # the config was refused above if it was bad: this is a fault
        raise RuntimeError(exc) from exc
    elapsed = time.perf_counter() - t0
    replicates = cfg.replicates * len(cfg.n_values)
    print(f"experiment {cfg.experiment_kind}: {len(result.records)} cells "
          f"-> {args.out_dir}", file=sys.stderr)
    print(f"elapsed {elapsed:.2f}s, {replicates / elapsed:.0f} replicates/s",
          file=sys.stderr)
    return 0


def _args_analyze_motif(p):
    p.add_argument("motif", help="built-in name or JSON file")
    _format_flags(p)


def _args_analyze_graphon(p):
    p.add_argument("--graphon", required=True)
    p.add_argument("--motif", required=True)
    _format_flags(p)


def _args_sample(p):
    p.add_argument("--graphon", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)


def _args_count(p):
    p.add_argument("--graph", required=True)
    p.add_argument("--motif", required=True)


def _args_decompose(p):
    p.add_argument("--graphon", required=True)
    p.add_argument("--motif", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    _format_flags(p)


def _args_run_experiment(p):
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for older scripts and changes nothing: "
                        "replicates run in one serial loop (must be at "
                        "least 1; default 1)")
    p.add_argument("--with-replicates", action="store_true",
                   help="also write one CSV row per replicate")


def _format_flags(p):
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", default=None)


# name: (help, arguments, handler), in the order that the help lists them
SUBCOMMANDS = {
    "analyze-motif": ("density exponents of a motif", _args_analyze_motif,
                      cmd_analyze_motif),
    "analyze-graphon": ("density analytics of a graphon for a motif",
                        _args_analyze_graphon, cmd_analyze_graphon),
    "sample": ("draw one random graph", _args_sample, cmd_sample),
    "count": ("count motif copies in a graph dump", _args_count, cmd_count),
    "decompose": ("sample one graph and decompose its count",
                  _args_decompose, cmd_decompose),
    "run-experiment": ("run a configured campaign", _args_run_experiment,
                       cmd_run_experiment),
}


def build_parser(names=tuple(SUBCOMMANDS)) -> argparse.ArgumentParser:
    """The command-line parser with the subcommands ``names`` (all six by
    default).  A parser with fewer still names all six in its usage line,
    so every message it prints reads as the full parser's."""
    parser = argparse.ArgumentParser(
        prog="graphon-motifs",
        description="Motif statistics for sparse step-graphon random graphs")
    # a metavar would also rename the subcommand in the full parser's
    # "arguments are required" error, so it is set only where needed
    metavar = (None if len(names) == len(SUBCOMMANDS)
               else "{" + ",".join(SUBCOMMANDS) + "}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # one subcommand's parser builds 1-2 ms faster than all six; any other
    # first argument (none, -h, an unknown name) gets all six
    if argv and argv[0] in SUBCOMMANDS:
        parser = build_parser((argv[0],))
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
