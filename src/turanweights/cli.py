"""Command-line surface: generators, weight reports, bound verification,
simplex maximization, support reduction, and verification campaigns.

Exit codes: 0 success, 1 usage or parse errors, 2 mathematical-invariant
violations (which always indicate an implementation bug).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .graphs import (
    Graph,
    Graph6Error,
    _as_exact,
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


def _parse_mode(text: str) -> WeightScheme:
    if text == "clique":
        return WeightScheme.clique_weighted()
    if text == "constant":
        return WeightScheme.constant(1)
    if text.startswith("constant:"):
        return WeightScheme.constant(text.split(":", 1)[1])
    raise ValueError(f"invalid mode {text!r}; expected clique or constant:c")


def _read_input(source: str, input_format: str) -> tuple[str, str]:
    """The input's text and its format, ``graph6`` or ``edgelist``."""
    if source == "-":
        text = sys.stdin.read()
    else:
        with open(source) as f:
            text = f.read()
    fmt = input_format
    if fmt == "auto":
        fmt = "graph6"
        for line in text.splitlines():
            if line.strip():
                tokens = line.split()
                if len(tokens) == 2 and all(t.lstrip("-").isdigit() for t in tokens):
                    fmt = "edgelist"
                break
    return text, fmt


def _parse(lines: list[str], at: list[int]) -> list[Graph]:
    """The graphs of the graph6 lines ``lines[i]`` for ``i`` in ``at``; a
    malformed line's error names its line number."""
    graphs = []
    for i in at:
        try:
            graphs.append(parse_graph6(lines[i]))
        except Graph6Error as exc:
            raise Graph6Error(f"line {i + 1}: {exc}") from None
    return graphs


# graph6 byte -> the number of set bits among the 6 it encodes; a byte outside
# the range counts none (its line is malformed, and its range's parse says so)
_SET_BITS = bytes(int.bit_count(b - 63) if 63 <= b <= 126 else 0 for b in range(256))


def _graph6_edges(line: str) -> int:
    """The edge count of a well-formed graph6 line, without building the graph:
    the set bits of its data characters, the size header excluded."""
    line = line.strip()
    if line.startswith(">>graph6<<"):
        line = line[len(">>graph6<<"):]
    header = 1 if line[:1] != "~" else 4 if line[1:2] != "~" else 8
    return sum(line[header:].encode("ascii", "replace").translate(_SET_BITS))


class _Text(str):
    """JSON text that _json writes as it is."""


# the writer's scalars, by exact type: library values hold no subclass of them
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, Fraction: '"{!s}"'.format,
            bool: {True: "true", False: "false"}.__getitem__, type(None): lambda _: "null",
            _Text: str.__str__}


def _json(value, nl: str = "\n") -> str:
    """The text of ``json.dumps(value, sort_keys=True, indent=2)`` for library values:
    rationals as p/q strings, records (tuples with ``_fields``) as objects keyed
    by field name, other tuples and lists as arrays, and _Text as it is.  ``nl``
    is the newline and indent the value starts at; each container's items are
    joined once."""
    scalar = _SCALARS.get(type(value))
    if scalar is not None:
        return scalar(value)
    inner = nl + "  "
    if isinstance(value, dict):
        items = sorted(value.items())
    elif isinstance(value, tuple) and hasattr(value, "_fields"):
        items = sorted(zip(value._fields, value))
    elif isinstance(value, (tuple, list)):
        return f"[{inner}{(',' + inner).join(_texts(value, inner))}{nl}]" if value else "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return "{}"
    keys = [encode_basestring_ascii(k) + ": " for k, _ in items]
    fields = map(str.__add__, keys, _texts([v for _, v in items], inner))
    return f"{{{inner}{(',' + inner).join(fields)}{nl}}}"


def _texts(values, inner: str) -> list[str]:
    """_json of each value, at indent ``inner``, with no call for an exact scalar."""
    return [_json(v, inner) if (scalar := _SCALARS.get(type(v))) is None else scalar(v)
            for v in values]


def _join(items) -> str:
    return ",".join(map(str, items))


def _tsv(*columns) -> str:
    return "\t".join(map(str, columns))


def _lines(records: list, render, start: int = 1) -> str:
    """Each record's human lines or TSV rows, records numbered from ``start``."""
    return "".join([f"{line}\n" for idx, record in enumerate(records, start)
                    for line in render(idx, record)])


def _render(args, envelope: dict, records: list, human, tsv) -> int:
    """Write the JSON envelope, or each record's human lines or TSV rows, at once.

    The renderers read only the record, which is what the envelope carries,
    so all three formats print the same values.
    """
    if args.format == "json":
        text = _json(envelope) + "\n"
    else:
        text = _lines(records, tsv if args.format == "tsv" else human)
    sys.stdout.write(text)
    return 0


# where each report starts in the JSON envelope's "reports" array
_REPORT_NL = "\n    "


def _per_graph(args, envelope: dict, build, human, tsv) -> int:
    """Build one record per input graph with ``build(idx, g)`` and write them
    as _render would, at once.

    Each process renders the records of its range of graphs to text, and the
    JSON reports are spliced into the envelope as that text.  Nothing is
    printed until every record is built, so an error on any graph leaves
    stdout empty.
    """
    def render(start: int, graphs: list[Graph]) -> str:
        records = [build(idx, g) for idx, g in enumerate(graphs, start)]
        if args.format == "json":
            return ("," + _REPORT_NL).join([_json(record, _REPORT_NL) for record in records])
        return _lines(records, tsv if args.format == "tsv" else human, start)

    text, fmt = _read_input(args.input, args.input_format)
    if fmt == "edgelist":
        parts = [render(1, [parse_edge_list(text)])]
    else:
        parts = _range_texts(render, text.splitlines())
    if args.format == "json":
        envelope["reports"] = _Text(f"[{_REPORT_NL}{(',' + _REPORT_NL).join(parts)}\n  ]")
        text = _json(envelope) + "\n"
    else:
        text = "".join(parts)
    sys.stdout.write(text)
    return 0


_OK, _FAILED = b"\0", b"\1"  # a worker's status bytes


def _range_texts(render, lines: list[str]) -> list[str]:
    """``[render(1, graphs)]`` for the graphs of the non-blank graph6 ``lines``,
    on every CPU in this process's affinity mask, unless another thread runs
    in it.

    The graphs are split into contiguous ranges in input order, at most one
    per CPU, with about the same number of edges in each.  A forked worker parses and
    renders each range after the first while this process does the first;
    the texts are read in order.  The first malformed line in input order is
    raised if there is one, else the first failure in input order, as the
    one-process run would raise them; from then on no worker runs.  A worker
    that dies without a result reads as MemoryError.  Every worker is killed
    and reaped before this returns or raises.
    """
    at = [i for i, line in enumerate(lines) if line.strip()]
    if not at:
        raise ValueError("no graphs found in input")
    jobs = 1
    threads = sys.modules.get("threading")  # a fork copies only the forking thread
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and (
            threads is None or threads.active_count() == 1):
        jobs = min(len(os.sched_getaffinity(0)), len(at))
    if jobs < 2:
        return [render(1, _parse(lines, at))]

    # a range takes the graphs whose middle edge falls in its share of the
    # edges (a graph counts at least one); mids holds twice each middle
    starts = list(accumulate((max(1, _graph6_edges(lines[i])) for i in at), initial=0))
    mids = list(map(int.__add__, starts, starts[1:]))
    cuts = [bisect_left(mids, 2 * starts[-1] * k // jobs) for k in range(jobs)] + [len(at)]
    (_, first), *rest = [(lo + 1, at[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    workers: list[tuple[int, int]] = []
    try:
        for start, span in rest:
            workers.append(_fork_worker(render, lines, start, span))
        graphs = _parse(lines, first)
        try:
            texts, failure = [render(1, graphs)], None
        except Exception as exc:
            texts, failure = [], exc
        # every range parses before its first graph is built, so a worker's
        # parse status comes first, and its malformed line beats any failure
        for k, worker in enumerate(workers):
            status = os.read(worker[1], 1)
            if status != _OK:
                _reply(workers, k, status)  # raises
        if failure is not None:
            raise failure
        while workers:
            texts.append(_reply(workers, 0, os.read(workers[0][1], 1)))
        return texts
    finally:
        if workers:
            import signal

            for pid, fd in workers:
                os.kill(pid, signal.SIGKILL)
                _reap(pid, fd)


def _reply(workers: list[tuple[int, int]], k: int, status: bytes) -> str:
    """Read the rest of worker ``k``'s pipe after its ``status`` byte, reap it
    and drop it from ``workers``; return its text, or raise its exception,
    or MemoryError if it died before it wrote all of its reply."""
    pid, fd = workers.pop(k)
    with open(fd, "rb", closefd=False) as pipe:
        data = pipe.read()
    if _reap(pid, fd) or not status:  # a worker exits 0 only after writing its whole reply
        raise MemoryError
    if status == _OK:
        return data.decode()
    import pickle

    raise pickle.loads(data)


def _reap(pid: int, fd: int) -> int:
    """Close a worker's pipe and wait for it; return its wait status."""
    os.close(fd)
    return os.waitpid(pid, 0)[1]


def _fork_worker(render, lines: list[str], start: int, span: list[int]) -> tuple[int, int]:
    """Fork a worker for the graphs on ``lines[i]``, ``i`` in ``span``: it
    parses them all, and writes _OK, or _FAILED and the pickled parse error,
    into a pipe; then it renders them, numbered from ``start``, and writes _OK
    and the text as UTF-8, or _FAILED and the pickled exception it stopped
    at.  Return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)
        return pid, read_fd
    code = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            try:
                graphs = _parse(lines, span)
                pipe.write(_OK)
                pipe.flush()
                text = render(start, graphs)
                pipe.write(_OK)
                pipe.write(text.encode())
            except Exception as exc:
                pipe.write(_FAILED)
                pipe.write(_pickled(exc))
        code = 0
    finally:
        # the worker never returns into the caller, nor flushes its stdout
        os._exit(code)


# the exceptions main reports, in the order of its except clauses
_REPORTED = (InvariantViolation, ValueError, OSError, MemoryError, OverflowError, RecursionError)


def _pickled(exc: Exception) -> bytes:
    """``exc`` pickled; one that does not pickle and load back is sent as a
    stand-in with its message, of the first class in _REPORTED that it is an
    instance of, so main reports it as it would report ``exc`` itself."""
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        kind = next((cls for cls in _REPORTED if isinstance(exc, cls)), Exception)
        return pickle.dumps(kind(str(exc)))


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
        g = random_gnp(args.n, args.p, args.seed)
    print(write_graph6(g))
    return 0


def _summary_record(rep: WeightReport) -> dict:
    return {
        "n": rep.n,
        "edge_count": len(rep.rs),
        "total": rep.total,
        "bound": rep.bound,
        "slack": rep.slack,
        "tight": rep.tight,
    }


def _weights_record(idx: int, g: Graph) -> dict:
    rep = weight_report(g)
    return {**_summary_record(rep), "records": rep.records}


def _cmd_weights(args) -> int:
    return _per_graph(
        args, {"command": "weights"}, _weights_record,
        lambda idx, rep: [
            f"graph {idx}: n={rep['n']} edges={rep['edge_count']}",
            "  u v r w",
            *(f"  {r.u} {r.v} {r.r} {r.w}" for r in rep["records"]),
            f"  total {rep['total']}",
            f"  bound {rep['bound']}",
            f"  slack {rep['slack']}{'  (tight)' if rep['tight'] else ''}",
        ],
        lambda idx, rep: [
            *(_tsv("edge", idx, r.u, r.v, r.r, r.w) for r in rep["records"]),
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
        out["constant"] = scheme.c
    return out


def _cmd_lagrangian(args) -> int:
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"command": "lagrangian", "scheme": _scheme_dict(scheme)},
        lambda idx, g: {"n": g.n, **lagrangian_maximum(g, scheme)._asdict()},
        lambda idx, rep: [
            f"graph {idx}: maximum {rep['maximum']}",
            f"  support {_join(rep['support'])}",
            f"  witness {_join(rep['witness'])}",
            f"  candidates {len(rep['candidates'])}",
            *(f"    {_join(c.clique)} {c.status} {'-' if c.value is None else c.value}"
              for c in rep["candidates"] if args.ledger),
        ],
        lambda idx, rep: [_tsv("lagrangian", idx, rep["maximum"],
                               _join(rep["support"]), _join(rep["witness"]))])


def _start_point(spec_text: str, n: int) -> SimplexPoint:
    if spec_text == "uniform":
        return SimplexPoint.uniform(n)
    coords = tuple(_as_exact(t) for t in spec_text.split(","))
    if len(coords) != n:
        raise ValueError(f"start point has {len(coords)} coordinates, graph has {n}")
    return SimplexPoint(coords)


def _reduce_record(g: Graph, scheme: WeightScheme, start: SimplexPoint) -> dict:
    final, trace = support_reduce(g, scheme, start)
    return {
        "n": g.n,
        "start": start,
        "final": final,
        "objective_start": objective_value(g, scheme, start),
        "objective_final": objective_value(g, scheme, final),
        "steps": trace,
    }


def _cmd_reduce(args) -> int:
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"command": "reduce", "scheme": _scheme_dict(scheme)},
        lambda idx, g: _reduce_record(g, scheme, _start_point(args.start, g.n)),
        lambda idx, rep: [
            f"graph {idx}: steps {len(rep['steps'])}",
            *(f"  move {s.j}->{s.i}  s_i={s.s_i} s_j={s.s_j} f {s.f_before} -> {s.f_after}"
              for s in rep["steps"]),
            f"  final {_join(rep['final'])}",
            f"  objective {rep['objective_start']} -> {rep['objective_final']}",
        ],
        lambda idx, rep: [
            *(_tsv("step", idx, s.i, s.j, s.s_i, s.s_j, s.f_before, s.f_after)
              for s in rep["steps"]),
            _tsv("final", idx, _join(rep["final"]), rep["objective_final"]),
        ])


def _cmd_oracle(args) -> int:
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"command": "oracle", "scheme": _scheme_dict(scheme), "resolution": args.grid},
        lambda idx, g: {"n": g.n, "value": grid_oracle(g, scheme, args.grid)},
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
    envelope = {"command": args.command, "params": params, "stats": stats}
    return _render(
        args, envelope, [stats],
        lambda idx, rec: [header,
                          *(f"  {label:<17}{getattr(rec, key)}"
                            for key, label in _STATS_FIELDS.items()),
                          *(f"  tight example    {g6}" for g6 in rec.tight_examples)],
        lambda idx, rec: [_tsv("stats", rec.n, *(getattr(rec, key) for key in _STATS_FIELDS)),
                          *(_tsv("tight", g6) for g6 in rec.tight_examples)])


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"job count must be >= 1, got {args.jobs}")
    stats = sweep_all_graphs(args.n, cap=args.cap, tight_cap=args.tight_cap)
    return _campaign(args, {"n": args.n}, stats, f": all {stats.graphs_checked} labeled graphs")


def _cmd_fuzz(args) -> int:
    p = _as_exact(args.p)
    stats = fuzz_random(args.n, p, args.count, args.seed, lagrangian_cap=args.lagrangian_cap)
    params = {"n": args.n, "p": p, "count": args.count, "seed": args.seed}
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
    except (MemoryError, OverflowError):
        # an input whose size header, or a count argument, asks for more
        # memory than the host has or than a Python sequence can index
        _emit_error(fmt, "usage", "input too large to hold in memory")
        return USAGE_ERROR
    except RecursionError:
        # the clique searches and the clique walk recurse once per clique vertex
        _emit_error(fmt, "usage", "graph's cliques are too deep to search")
        return USAGE_ERROR


def run() -> int:
    """The process entry point, for ``python -m turanweights`` and the
    installed ``turanweights`` script: ``main()``, then ``gc.freeze()``.

    Frozen objects stay out of every later collection, the one the
    interpreter runs at exit included, which would otherwise scan every
    object still tracked only for the OS to free the memory anyway.
    ``main`` itself leaves the collector alone, since tests, the benchmark's
    tracer and library callers run it in their own process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
