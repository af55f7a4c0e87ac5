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
from importlib import import_module
from itertools import accumulate
from json.encoder import encode_basestring_ascii

from .graphs import (
    Graph,
    Graph6Error,
    _as_exact,
    complete_graph,
    cycle_graph,
    empty_graph,
    graph6_edges,
    parse_edge_list,
    parse_graph6,
    random_gnp,
    turan_graph,
    write_graph6,
)
from .weights import (
    DEFAULT_LAGRANGIAN_CAP,
    DEFAULT_SWEEP_CAP,
    DEFAULT_TIGHT_CAP,
    InvariantViolation,
    WeightReport,
    weight_report,
)

# the names cli reads from the modules that only some commands call, by module:
# a command that calls one binds its names with _load when it starts, before
# any fork, and looking one up on cli binds them too
_DEFERRED = {
    "lagrangian": ("SimplexPoint", "WeightScheme", "grid_oracle", "lagrangian_maximum",
                   "objective_value", "support_reduce"),
    "sweep": ("SweepStats", "fuzz_random", "sweep_all_graphs", "turan_bound_campaign"),
}


def _load(module: str) -> None:
    """Bind ``module``'s names in _DEFERRED here, keeping any already bound:
    a caller (the benchmark's tracer, a test) may have replaced one."""
    loaded = import_module(f".{module}", __package__)
    for name in _DEFERRED[module]:
        globals().setdefault(name, getattr(loaded, name))


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    # list() frees the values' texts before the join, so that a large value
    # is held in two copies at most, not three
    fields = (',' + inner).join(list(map(str.__add__, keys,
                                         _texts([v for _, v in items], inner))))
    return f"{{{inner}{fields}{nl}}}"


def _texts(values, inner: str) -> list[str]:
    """_json of each value, at indent ``inner``, with no call for an exact scalar."""
    return [_json(v, inner) if (scalar := _SCALARS.get(type(v))) is None else scalar(v)
            for v in values]


def _join(items) -> str:
    return ",".join(map(str, items))


def _tsv(*columns) -> str:
    return "\t".join(map(str, columns))


def _lines(args, records: list, human, tsv, start: int = 1) -> str:
    """Each record's human lines or TSV rows, as ``args.format`` asks,
    records numbered from ``start``."""
    render = tsv if args.format == "tsv" else human
    return "".join([f"{line}\n" for idx, record in enumerate(records, start)
                    for line in render(idx, record)])


# where each report starts in the JSON envelope's "reports" array
_REPORT_NL = "\n    "
# the reports' place in a per-graph command's JSON envelope: _write splices
# the reports' texts in at the NUL, which _json escapes in every string
_REPORTS = _Text("\0\n  ]")


def _write(args, envelope: dict, texts: list[str]) -> int:
    """Write the JSON envelope, or the human or TSV ``texts``, in one write:
    the one write to stdout of every command with ``--format``.

    Under JSON, ``texts`` go into the envelope where it holds _REPORTS, and
    an envelope without it ignores them.  The output is joined once from its
    pieces, and ``texts`` is emptied before the write, so that the output is
    held in one copy, not several, as it is written.

    The renderers read only the records, which is what the envelope carries,
    so all three formats print the same values.
    """
    if args.format == "json":
        head, nul, tail = _json(envelope).partition("\0")
        texts[:] = [head, *texts, tail, "\n"] if nul else [head, "\n"]
    out = "".join(texts)
    texts.clear()
    sys.stdout.write(out)
    return 0


def _per_graph(args, fields: dict, build, human, tsv) -> int:
    """Build one record per input graph with ``build(idx, g)`` and write them
    with _write, in an envelope of the command, ``fields`` and the reports.

    Each process renders the records of its range of graphs to text, and the
    JSON reports are spliced into the envelope as that text.  Nothing is
    printed until every record is built, so an error on any graph leaves
    stdout empty.
    """
    def render(start: int, graphs: list[Graph]) -> str:
        records = [build(idx, g) for idx, g in enumerate(graphs, start)]
        if args.format == "json":
            # each report with the "[" or the "," before it in the array
            return "".join([f"{',' if idx > 1 else '['}{_REPORT_NL}{_json(record, _REPORT_NL)}"
                            for idx, record in enumerate(records, start)])
        return _lines(args, records, human, tsv, start)

    text, fmt = _read_input(args.input, args.input_format)
    if fmt == "edgelist":
        parts = [render(1, [parse_edge_list(text)])]
    else:
        parts = _range_texts(render, text.splitlines())
    return _write(args, {"command": args.command, **fields, "reports": _REPORTS}, parts)


def _range_texts(render, lines: list[str]) -> list[str]:
    """``[render(1, graphs)]`` for the graphs of the non-blank graph6 ``lines``,
    on every CPU in this process's affinity mask, unless another thread runs
    in it.

    Every line is checked, and its edge count read, before any graph is
    built, so the first malformed line is raised, naming its line number,
    as the one-process run would raise it, and nothing is forked for it.
    The graphs are then split into contiguous ranges in input order, at most
    one per CPU, with about the same number of edges in each.  A forked
    worker renders each range after the first while this process does the
    first, and the texts are read in order.  A worker that fails sends
    nothing and exits 1, and this process renders its range again, which
    raises the worker's own exception: the first failure in input order is
    raised, and no later worker runs on.  A worker killed by a signal reads
    as MemoryError.  Every worker is killed and reaped before this returns
    or raises.
    """
    at = [i for i, line in enumerate(lines) if line.strip()]
    if not at:
        raise ValueError("no graphs found in input")
    weights = []
    for i in at:
        try:
            weights.append(max(1, graph6_edges(lines[i])))  # a graph counts at least one
        except Graph6Error as exc:
            raise Graph6Error(f"line {i + 1}: {exc}") from None
    jobs = 1
    threads = sys.modules.get("threading")  # a fork copies only the forking thread
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and (
            threads is None or threads.active_count() == 1):
        jobs = min(len(os.sched_getaffinity(0)), len(at))

    def text(start: int, span: list[int]) -> str:
        return render(start, [parse_graph6(lines[i]) for i in span])

    # a range takes the graphs whose middle edge falls in its share of the
    # edges; mids holds twice each middle
    starts = list(accumulate(weights, initial=0))
    mids = list(map(int.__add__, starts, starts[1:]))
    cuts = [bisect_left(mids, 2 * starts[-1] * k // jobs) for k in range(jobs)] + [len(at)]
    (_, first), *rest = [(lo + 1, at[lo:hi]) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]
    workers: list[tuple[int, int, int, list[int]]] = []
    try:
        for start, span in rest:
            workers.append((*_fork_worker(text, start, span), start, span))
        texts = [text(1, first)]
        while workers:
            pid, fd, start, span = workers[0]
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            status = _reap(pid, fd)
            del workers[0]  # only once reaped: until then the finally kills it
            if os.WIFSIGNALED(status):
                raise MemoryError
            # the build is deterministic: a range that failed in its worker
            # fails here with the same exception
            texts.append(text(start, span) if status else data.decode())
        return texts
    finally:
        if workers:
            import signal

            for pid, fd, _, _ in workers:
                os.kill(pid, signal.SIGKILL)
                _reap(pid, fd)


def _reap(pid: int, fd: int) -> int:
    """Close a worker's pipe and wait for it; return its wait status."""
    os.close(fd)
    return os.waitpid(pid, 0)[1]


def _fork_worker(text, start: int, span: list[int]) -> tuple[int, int]:
    """Fork a worker that writes ``text(start, span)`` into a pipe as UTF-8
    and exits 0, or, if that raises, exits 1 having written nothing.
    Return its pid and the pipe's read end."""
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
        data = text(start, span).encode()
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        # the worker never returns into the caller, nor flushes its stdout
        os._exit(code)


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
        args, {}, _weights_record,
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
        args, {}, lambda idx, g: _summary_record(weight_report(g)),
        lambda idx, rep: [f"graph {idx}: n={rep['n']} slack={rep['slack']} "
                          f"(total {rep['total']}, bound {rep['bound']}) OK"],
        lambda idx, rep: [_tsv("verify", idx, rep["n"], rep["total"], rep["bound"], rep["slack"])])


def _scheme_dict(scheme: WeightScheme) -> dict:
    out = {"mode": scheme.mode}
    if scheme.mode == "constant":
        out["constant"] = scheme.c
    return out


def _cmd_lagrangian(args) -> int:
    _load("lagrangian")
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"scheme": _scheme_dict(scheme)},
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
    _load("lagrangian")
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"scheme": _scheme_dict(scheme)},
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
    _load("lagrangian")
    scheme = _parse_mode(args.mode)
    return _per_graph(
        args, {"scheme": _scheme_dict(scheme), "resolution": args.grid},
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
    return _write(args, envelope, [_lines(
        args, [stats],
        lambda idx, rec: [header,
                          *(f"  {label:<17}{getattr(rec, key)}"
                            for key, label in _STATS_FIELDS.items()),
                          *(f"  tight example    {g6}" for g6 in rec.tight_examples)],
        lambda idx, rec: [_tsv("stats", rec.n, *(getattr(rec, key) for key in _STATS_FIELDS)),
                          *(_tsv("tight", g6) for g6 in rec.tight_examples)])])


def _cmd_sweep(args) -> int:
    _load("sweep")
    if args.jobs < 1:
        raise ValueError(f"job count must be >= 1, got {args.jobs}")
    stats = sweep_all_graphs(args.n, cap=args.cap, tight_cap=args.tight_cap)
    return _campaign(args, {"n": args.n}, stats, f": all {stats.graphs_checked} labeled graphs")


def _cmd_fuzz(args) -> int:
    _load("sweep")
    p = _as_exact(args.p)
    stats = fuzz_random(args.n, p, args.count, args.seed, lagrangian_cap=args.lagrangian_cap)
    params = {"n": args.n, "p": p, "count": args.count, "seed": args.seed}
    return _campaign(args, params, stats)


def _cmd_campaign(args) -> int:
    _load("sweep")
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


def _emit_error(as_json: bool, kind: str, error: Exception | str,
                command: str | None = None) -> None:
    """Report an error on stderr, with the shell-quoted command line when one is given."""
    if as_json:
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
        _emit_error(True, "usage", exc)
        return USAGE_ERROR
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

        _emit_error(json_errors, "invariant-violation", exc, shlex.join(["turanweights", *argv]))
        return VIOLATION_ERROR
    except (ValueError, OSError) as exc:
        _emit_error(json_errors, "usage", exc)
        return USAGE_ERROR
    except (MemoryError, OverflowError):
        # an input whose size header, or a count argument, asks for more
        # memory than the host has or than a Python sequence can index
        _emit_error(json_errors, "usage", "input too large to hold in memory")
        return USAGE_ERROR
    except RecursionError:
        # the clique searches and the clique walk recurse once per clique vertex
        _emit_error(json_errors, "usage", "graph's cliques are too deep to search")
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
