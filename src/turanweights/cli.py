"""Command-line surface: generators, weight reports, bound verification,
simplex maximization, support reduction, and verification campaigns.

Exit codes: 0 success, 1 usage or parse errors, 2 mathematical-invariant
violations (which always indicate an implementation bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .cliques import CliqueSet
from .graphs import (
    Graph,
    Graph6Error,
    complete_graph,
    cycle_graph,
    empty_graph,
    parse_edge_list,
    parse_graph6,
    random_gnp,
    turan_graph,
    write_graph6,
)
from .lagrangian import (
    SimplexPoint,
    WeightScheme,
    grid_oracle,
    lagrangian_maximum,
    objective_value,
    support_reduce,
)
from .sweep import (
    DEFAULT_LAGRANGIAN_CAP,
    DEFAULT_SWEEP_CAP,
    DEFAULT_TIGHT_CAP,
    SweepStats,
    fuzz_random,
    sweep_all_graphs,
    turan_bound_campaign,
)
from .weights import InvariantViolation, WeightReport, weight_report

USAGE_ERROR = 1
VIOLATION_ERROR = 2


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid rational {text!r}; expected p or p/q") from None


def _parse_mode(text: str) -> WeightScheme:
    if text == "clique":
        return WeightScheme.clique_weighted()
    if text == "constant":
        return WeightScheme.constant(1)
    if text.startswith("constant:"):
        return WeightScheme.constant(_parse_rational(text.split(":", 1)[1]))
    raise ValueError(f"invalid mode {text!r}; expected clique or constant:c")


def _read_graphs(source: str, input_format: str) -> list[Graph]:
    if source == "-":
        text = sys.stdin.read()
    else:
        text = Path(source).read_text()
    fmt = input_format
    if fmt == "auto":
        fmt = "graph6"
        for line in text.splitlines():
            if line.strip():
                tokens = line.split()
                if len(tokens) == 2 and all(t.lstrip("-").isdigit() for t in tokens):
                    fmt = "edgelist"
                break
    if fmt == "edgelist":
        return [parse_edge_list(text)]
    graphs = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            graphs.append(parse_graph6(line))
        except Graph6Error as exc:
            raise Graph6Error(f"line {lineno}: {exc}") from None
    if not graphs:
        raise ValueError("no graphs found in input")
    return graphs


def _plain(value):
    """JSON form of a library value, field for field.

    Rationals become p/q strings, simplex points their coordinate lists,
    clique sets their vertex lists, records (tuples with ``_fields``) dicts
    keyed by field name, and other tuples lists.  Clique sets and simplex
    points are tuples too, so they are tested first.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (CliqueSet, SimplexPoint)):
        return [_plain(v) for v in value]
    if isinstance(value, tuple):
        if hasattr(value, "_fields"):
            return {name: _plain(v) for name, v in zip(value._fields, value)}
        return [_plain(v) for v in value]
    return value


def _join(items) -> str:
    return ",".join(map(str, items))


def _tsv(*columns) -> str:
    return "\t".join(map(str, columns))


def _render(args, envelope: dict, records: list[dict], human, tsv) -> int:
    """Print the JSON envelope, or each record's human lines or TSV rows.

    The renderers read only the record, which is the dict the envelope
    carries, so all three formats print the same strings.
    """
    if args.format == "json":
        print(json.dumps(envelope, sort_keys=True, indent=2))
    else:
        render = tsv if args.format == "tsv" else human
        for idx, record in enumerate(records, 1):
            for line in render(idx, record):
                print(line)
    return 0


def _per_graph(args, envelope: dict, build, human, tsv) -> int:
    """Build one record per input graph with ``build(idx, g)``, then render.

    Nothing is printed until every record is built, so an error on any graph
    leaves stdout empty.
    """
    graphs = _read_graphs(args.input, args.input_format)
    envelope["reports"] = [build(idx, g) for idx, g in enumerate(graphs, 1)]
    return _render(args, envelope, envelope["reports"], human, tsv)


def _cmd_gen(args) -> int:
    if args.kind == "turan":
        g = turan_graph(args.n, args.r)
    elif args.kind == "complete":
        g = complete_graph(args.n)
    elif args.kind == "empty":
        g = empty_graph(args.n)
    elif args.kind == "cycle":
        g = cycle_graph(args.n)
    else:
        g = random_gnp(args.n, _parse_rational(args.p), args.seed)
    print(write_graph6(g))
    return 0


def _summary_record(rep: WeightReport) -> dict:
    return {
        "n": rep.n,
        "edge_count": len(rep.rs),
        "total": str(rep.total),
        "bound": str(rep.bound),
        "slack": str(rep.slack),
        "tight": rep.tight,
    }


def _weights_record(idx: int, g: Graph) -> dict:
    rep = weight_report(g)
    return {**_summary_record(rep), "records": _plain(rep.records)}


def _cmd_weights(args) -> int:
    return _per_graph(
        args, {"command": "weights"}, _weights_record,
        lambda idx, rep: [
            f"graph {idx}: n={rep['n']} edges={rep['edge_count']}",
            "  u v r w",
            *(f"  {r['u']} {r['v']} {r['r']} {r['w']}" for r in rep["records"]),
            f"  total {rep['total']}",
            f"  bound {rep['bound']}",
            f"  slack {rep['slack']}{'  (tight)' if rep['tight'] else ''}",
        ],
        lambda idx, rep: [
            *(_tsv("edge", idx, r["u"], r["v"], r["r"], r["w"]) for r in rep["records"]),
            _tsv("summary", idx, rep["n"], rep["edge_count"],
                 rep["total"], rep["bound"], rep["slack"]),
        ])


def _cmd_verify(args) -> int:
    return _per_graph(
        args, {"command": "verify"}, lambda idx, g: _summary_record(weight_report(g)),
        lambda idx, rep: [f"graph {idx}: n={rep['n']} slack={rep['slack']} "
                          f"(total {rep['total']}, bound {rep['bound']}) OK"],
        lambda idx, rep: [_tsv("verify", idx, rep["n"], rep["total"], rep["bound"], rep["slack"])])


def _scheme_dict(scheme: WeightScheme) -> dict:
    out = {"mode": scheme.mode}
    if scheme.mode == "constant":
        out["constant"] = str(scheme.c)
    return out


def _cmd_lagrangian(args) -> int:
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"command": "lagrangian", "scheme": _scheme_dict(scheme)},
        lambda idx, g: {"n": g.n, **_plain(lagrangian_maximum(g, scheme))},
        lambda idx, rep: [
            f"graph {idx}: maximum {rep['maximum']}",
            f"  support {_join(rep['support'])}",
            f"  witness {_join(rep['witness'])}",
            f"  candidates {len(rep['candidates'])}",
            *(f"    {_join(c['clique'])} {c['status']} {c['value'] or '-'}"
              for c in rep["candidates"] if args.ledger),
        ],
        lambda idx, rep: [_tsv("lagrangian", idx, rep["maximum"],
                               _join(rep["support"]), _join(rep["witness"]))])


def _start_point(spec_text: str, n: int) -> SimplexPoint:
    if spec_text == "uniform":
        if n < 1:
            raise ValueError("uniform start point needs at least one vertex")
        return SimplexPoint.uniform(n)
    coords = tuple(_parse_rational(t) for t in spec_text.split(","))
    if len(coords) != n:
        raise ValueError(f"start point has {len(coords)} coordinates, graph has {n}")
    return SimplexPoint(coords)


def _reduce_record(g: Graph, scheme: WeightScheme, start: SimplexPoint) -> dict:
    final, trace = support_reduce(g, scheme, start)
    return {
        "n": g.n,
        "start": _plain(start),
        "final": _plain(final),
        "objective_start": str(objective_value(g, scheme, start)),
        "objective_final": str(objective_value(g, scheme, final)),
        "steps": _plain(trace.steps),
    }


def _cmd_reduce(args) -> int:
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"command": "reduce", "scheme": _scheme_dict(scheme)},
        lambda idx, g: _reduce_record(g, scheme, _start_point(args.start, g.n)),
        lambda idx, rep: [
            f"graph {idx}: steps {len(rep['steps'])}",
            *(f"  move {s['j']}->{s['i']}  s_i={s['s_i']} s_j={s['s_j']} "
              f"f {s['f_before']} -> {s['f_after']}" for s in rep["steps"]),
            f"  final {_join(rep['final'])}",
            f"  objective {rep['objective_start']} -> {rep['objective_final']}",
        ],
        lambda idx, rep: [
            *(_tsv("step", idx, s["i"], s["j"], s["s_i"], s["s_j"], s["f_before"], s["f_after"])
              for s in rep["steps"]),
            _tsv("final", idx, _join(rep["final"]), rep["objective_final"]),
        ])


def _cmd_oracle(args) -> int:
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"command": "oracle", "scheme": _scheme_dict(scheme), "resolution": args.grid},
        lambda idx, g: {"n": g.n, "value": str(grid_oracle(g, scheme, args.grid))},
        lambda idx, rep: [f"graph {idx}: grid maximum {rep['value']} (resolution {args.grid})"],
        lambda idx, rep: [_tsv("oracle", idx, rep["value"])])


# label of each stats field; human and TSV output both list them in this order
_STATS_FIELDS = {
    "graphs_checked": "graphs checked",
    "violations": "violations",
    "min_slack": "min slack",
    "tight_count": "tight graphs",
    "max_total_weight": "max total",
}


def _campaign(args, params: dict, stats: SweepStats, note: str = "") -> int:
    """Render the one stats record of a sweep, fuzz or campaign run."""
    header = " ".join([args.command, *(f"{k}={v}" for k, v in params.items())]) + note
    record = _plain(stats)
    envelope = {"command": args.command, "params": params, "stats": record}
    return _render(
        args, envelope, [record],
        lambda idx, rec: [header,
                          *(f"  {label:<17}{rec[key]}" for key, label in _STATS_FIELDS.items()),
                          *(f"  tight example    {g6}" for g6 in rec["tight_examples"])],
        lambda idx, rec: [_tsv("stats", rec["n"], *(rec[key] for key in _STATS_FIELDS)),
                          *(_tsv("tight", g6) for g6 in rec["tight_examples"])])


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"job count must be >= 1, got {args.jobs}")
    stats = sweep_all_graphs(args.n, cap=args.cap, tight_cap=args.tight_cap)
    return _campaign(args, {"n": args.n}, stats, f": all {stats.graphs_checked} labeled graphs")


def _cmd_fuzz(args) -> int:
    p = _parse_rational(args.p)
    stats = fuzz_random(args.n, p, args.count, args.seed, lagrangian_cap=args.lagrangian_cap)
    params = {"n": args.n, "p": str(p), "count": args.count, "seed": args.seed}
    return _campaign(args, params, stats)


def _cmd_campaign(args) -> int:
    stats = turan_bound_campaign(args.n, args.r, args.count, args.seed)
    params = {"n": args.n, "r": args.r, "count": args.count, "seed": args.seed}
    return _campaign(args, params, stats)


def _add_io_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?", default="-",
                     help="input file, or - for standard input (default)")
    sub.add_argument("--input-format", choices=["auto", "graph6", "edgelist"],
                     default="auto", help="input format (default: auto-detect)")
    _add_format_option(sub)


def _add_format_option(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["human", "tsv", "json"], default="human",
                     help="output format (default: human)")


class _UsageError(Exception):
    """An argparse error, raised instead of printed so it can be reported as JSON."""


class _RaisingParser(argparse.ArgumentParser):
    """Parser for argv that asks for ``--format json``; its subparsers share the class."""

    def error(self, message):
        raise _UsageError(message)


def _requested_format(argv: list[str]) -> str | None:
    """The ``--format`` value in argv, found without knowing the command."""
    probe = _RaisingParser(add_help=False)
    probe.add_argument("--format")
    try:
        return probe.parse_known_args(argv)[0].format
    except _UsageError:
        return None


def _build_parser(parser_class: type[argparse.ArgumentParser]) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="turanweights",
        description="Exact clique-weighted edge bounds and simplex maximization on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a graph, emitted as one graph6 line")
    gen_sub = gen.add_subparsers(dest="kind", required=True)
    g_turan = gen_sub.add_parser("turan", help="balanced complete multipartite graph")
    g_turan.add_argument("n", type=int)
    g_turan.add_argument("r", type=int)
    g_complete = gen_sub.add_parser("complete")
    g_complete.add_argument("n", type=int)
    g_empty = gen_sub.add_parser("empty")
    g_empty.add_argument("n", type=int)
    g_cycle = gen_sub.add_parser("cycle")
    g_cycle.add_argument("n", type=int)
    g_gnp = gen_sub.add_parser("gnp", help="G(n,p) with exact rational p")
    g_gnp.add_argument("n", type=int)
    g_gnp.add_argument("p")
    g_gnp.add_argument("--seed", type=int, default=0)
    gen.set_defaults(func=_cmd_gen)

    weights = sub.add_parser("weights", help="per-edge clique numbers and weights")
    _add_io_options(weights)
    weights.set_defaults(func=_cmd_weights)

    verify = sub.add_parser("verify", help="check total weight <= n^2/4 exactly")
    _add_io_options(verify)
    verify.set_defaults(func=_cmd_verify)

    lagr = sub.add_parser("lagrangian", help="exact maximum of the weighted form over the simplex")
    _add_io_options(lagr)
    lagr.add_argument("--mode", default="clique",
                      help="weighting: clique, or constant:c (default: clique)")
    lagr.add_argument("--ledger", action="store_true",
                      help="include the full candidate ledger in human output")
    lagr.set_defaults(func=_cmd_lagrangian)

    reduce_p = sub.add_parser("reduce", help="shift mass until the support induces a clique")
    _add_io_options(reduce_p)
    reduce_p.add_argument("--start", default="uniform",
                          help="start point: uniform, or comma-separated rationals")
    reduce_p.add_argument("--mode", default="clique",
                          help="weighting: clique, or constant:c (default: clique)")
    reduce_p.set_defaults(func=_cmd_reduce)

    oracle = sub.add_parser("oracle", help="exhaustive grid lower bound for the simplex maximum")
    _add_io_options(oracle)
    oracle.add_argument("--grid", type=int, required=True, help="grid resolution D")
    oracle.add_argument("--mode", default="clique",
                        help="weighting: clique, or constant:c (default: clique)")
    oracle.set_defaults(func=_cmd_oracle)

    swp = sub.add_parser("sweep", help="verify the bound on every labeled graph on n vertices")
    swp.add_argument("--n", type=int, required=True)
    swp.add_argument("--jobs", type=int, default=1,
                     help="accepted and ignored: the sweep runs in one process (default 1)")
    swp.add_argument("--cap", type=int, default=DEFAULT_SWEEP_CAP,
                     help=f"refuse n above this cap (default {DEFAULT_SWEEP_CAP})")
    swp.add_argument("--tight-cap", type=int, default=DEFAULT_TIGHT_CAP,
                     help="max tight examples to record")
    _add_format_option(swp)
    swp.set_defaults(func=_cmd_sweep)

    fuzz = sub.add_parser("fuzz", help="verify the bound on seeded G(n,p) draws")
    fuzz.add_argument("--n", type=int, required=True)
    fuzz.add_argument("--p", required=True, help="edge probability, exact rational")
    fuzz.add_argument("--count", type=int, required=True)
    fuzz.add_argument("--seed", type=int, required=True)
    fuzz.add_argument("--lagrangian-cap", type=int, default=DEFAULT_LAGRANGIAN_CAP,
                      help="also check the simplex-maximum chain when n is at most this")
    _add_format_option(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    camp = sub.add_parser("campaign",
                          help="edge bound on random spanning subgraphs of a Turan graph")
    camp.add_argument("--n", type=int, required=True)
    camp.add_argument("--r", type=int, required=True)
    camp.add_argument("--count", type=int, required=True)
    camp.add_argument("--seed", type=int, required=True)
    _add_format_option(camp)
    camp.set_defaults(func=_cmd_campaign)

    return parser


def _emit_error(fmt: str | None, kind: str, error: Exception | str,
                command: str | None = None) -> None:
    """Report an error on stderr, with the shell-quoted command line when one is given."""
    if fmt == "json":
        payload = {"kind": kind, "message": str(error)}
        if command is not None:
            payload["command"] = command
        print(json.dumps({"error": payload}, sort_keys=True), file=sys.stderr)
    else:
        print(f"turanweights: {kind}: {error}", file=sys.stderr)
        if command is not None:
            print(f"  command: {command}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    json_errors = _requested_format(argv) == "json"
    parser = _build_parser(_RaisingParser if json_errors else argparse.ArgumentParser)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the latter
        # into the usage-error code so 2 stays reserved for violations
        return 0 if exc.code == 0 else USAGE_ERROR
    except _UsageError as exc:
        _emit_error("json", "usage", exc)
        return USAGE_ERROR
    fmt = getattr(args, "format", None)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early (``| head``): send the rest of stdout to
        # devnull so the flush at exit cannot raise, and say nothing
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return USAGE_ERROR
    except InvariantViolation as exc:
        import shlex  # only this path needs it; every command's start-up skips it

        _emit_error(fmt, "invariant-violation", exc, shlex.join(["turanweights", *argv]))
        return VIOLATION_ERROR
    except (ValueError, OSError) as exc:
        _emit_error(fmt, "usage", exc)
        return USAGE_ERROR
    except MemoryError:
        # an input whose size header asks for more memory than the host has
        _emit_error(fmt, "usage", "input too large to hold in memory")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
