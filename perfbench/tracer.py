"""Per-layer tracing of one turanweights CLI call, run in a fresh interpreter.

Usage: python3 tracer.py TRACED RESULT_JSON STDOUT_FILE -- CLI_ARGS...

The child imports the package (from PYTHONPATH), replaces each public function under
the name its caller looks it up by (``turanweights.cli.weight_report``, not
``turanweights.weights.weight_report``) with a timing wrapper when TRACED is
1, runs ``turanweights.cli.main`` once with stdout sent to STDOUT_FILE, and
writes its wall time and layer records to RESULT_JSON.  With TRACED 0 it runs
the same call unwrapped, which gives the tracing overhead.

One call per interpreter: the package keeps lru_caches across calls within a
process, which a real CLI user never sees warm.
"""

from __future__ import annotations

import json
import sys
from math import comb
from time import perf_counter

# name -> (unit, better, the end-to-end metric and workload it should move)
_MIX = "graphs_per_s on verify-lagrangian-reduce"
_VERIFY = f"{_MIX}: verify call"
_VERIFY_REDUCE = f"{_MIX} and peak_rss_mb: verify and reduce calls"
_EDGE = f"{_VERIFY}; flat on sweep-n7"
_LAGRANGIAN = f"{_MIX}: lagrangian call"
_SOLVE = f"{_LAGRANGIAN}; flat on sweep-n7"
_ORACLE = f"{_MIX} and peak_rss_mb: oracle call"
_REDUCE = f"{_MIX}: reduce calls"
_SWEEP = "graphs_per_s on sweep-n7; flat on verify-lagrangian-reduce"
LAYERS = {
    "graphs.parse.calls": ("count", "lower", _VERIFY),
    "graphs.parse.self_s": ("s", "lower", _VERIFY),
    "graphs.parse.bytes": ("bytes", "lower", _VERIFY),
    "cli.self_s": ("s", "lower", _VERIFY_REDUCE),
    "cli.stdout_bytes": ("bytes", "lower", _VERIFY_REDUCE),
    "weights.report.calls": ("count", "lower", _VERIFY),
    "weights.report.self_s": ("s", "lower", _VERIFY),
    "weights.report.edges": ("count", "lower", _VERIFY),
    "cliques.edge.calls": ("count", "lower", _EDGE),
    "cliques.edge.self_s": ("s", "lower", _EDGE),
    "cliques.edge.us_p50": ("us", "lower", _EDGE),
    "cliques.edge.us_p99": ("us", "lower", _EDGE),
    "cliques.enumerated": ("count", "lower", _LAGRANGIAN),
    "linsolve.solve.calls": ("count", "lower", _SOLVE),
    "linsolve.solve.self_s": ("s", "lower", _SOLVE),
    "linsolve.solve.us_p50": ("us", "lower", _SOLVE),
    "linsolve.solve.us_p99": ("us", "lower", _SOLVE),
    "linsolve.singular_frac": ("ratio", "lower", _LAGRANGIAN),
    "lagrangian.maximum.calls": ("count", "lower", _LAGRANGIAN),
    "lagrangian.maximum.self_s": ("s", "lower", _LAGRANGIAN),
    "lagrangian.interior_frac": ("ratio", "higher", _LAGRANGIAN),
    "lagrangian.oracle.calls": ("count", "lower", _ORACLE),
    "lagrangian.oracle.self_s": ("s", "lower", _ORACLE),
    "lagrangian.oracle.points": ("count", "lower", _ORACLE),
    "lagrangian.objective.calls": ("count", "lower", _REDUCE),
    "lagrangian.objective.self_s": ("s", "lower", _REDUCE),
    "lagrangian.reduce.calls": ("count", "lower", _REDUCE),
    "lagrangian.reduce.self_s": ("s", "lower", _REDUCE),
    "lagrangian.reduce.steps": ("count", "lower", _REDUCE),
    "sweep.masks": ("count", "lower", _SWEEP),
    "sweep.self_s": ("s", "lower", _SWEEP),
    "sweep.masks_per_s": ("1/s", "higher", _SWEEP),
    "trace.overhead_frac": ("ratio", "lower", "none: traced wall over untraced wall, minus 1"),
}


class Layer:
    """Calls, self time, per-call durations and work counts of one layer."""

    def __init__(self, samples: bool) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.samples: list[float] | None = [] if samples else None
        self.counts: dict[str, int] = {}

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def record(self) -> dict:
        return {"calls": self.calls, "self_s": self.self_s,
                "samples": self.samples or [], "counts": self.counts}


class Tracer:
    """Nested spans; a span's self time is its duration minus its children's."""

    def __init__(self) -> None:
        self.layers: dict[str, Layer] = {}
        self._child_time: list[float] = []

    def wrap(self, module, attr: str, layer: str, samples: bool = False, count=None) -> None:
        fn = getattr(module, attr)
        stats = self.layers.setdefault(layer, Layer(samples))
        child_time = self._child_time

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += duration
                stats.calls += 1
                stats.self_s += duration - inner
                if stats.samples is not None:
                    stats.samples.append(duration)
            if count is not None:
                count(stats, args, result)
            return result

        setattr(module, attr, traced)


def _count_outcome(stats: Layer, args, outcome) -> None:
    stats.add("candidates", len(outcome.candidates))
    stats.add("interior", sum(c.status == "interior-solution" for c in outcome.candidates))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI crosses."""
    from turanweights import cli, lagrangian, weights

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(cli, "parse_graph6", "graphs.parse",
                count=lambda s, a, r: s.add("bytes", len(a[0])))
    tracer.wrap(cli, "weight_report", "weights.report",
                count=lambda s, a, r: s.add("edges", len(r.records)))
    for module in (weights, lagrangian):
        tracer.wrap(module, "edge_clique_number", "cliques.edge", samples=True)
    tracer.wrap(lagrangian, "solve_linear_system", "linsolve.solve", samples=True,
                count=lambda s, a, r: s.add("singular", r is None))
    tracer.wrap(cli, "lagrangian_maximum", "lagrangian.maximum", count=_count_outcome)
    tracer.wrap(cli, "grid_oracle", "lagrangian.oracle",
                count=lambda s, a, r: s.add("points", comb(a[2] + a[0].n - 1, a[0].n - 1)))
    for module in (cli, lagrangian):
        tracer.wrap(module, "objective_value", "lagrangian.objective")
    tracer.wrap(cli, "support_reduce", "lagrangian.reduce",
                count=lambda s, a, r: s.add("steps", len(r[1])))
    tracer.wrap(cli, "sweep_all_graphs", "sweep",
                count=lambda s, a, r: s.add("masks", r.graphs_checked))


def main(argv: list[str]) -> int:
    traced, result_path, stdout_path = argv[:3]
    if argv[3] != "--":
        raise SystemExit("usage: tracer.py TRACED RESULT_JSON STDOUT_FILE -- CLI_ARGS...")
    from turanweights import cli

    tracer = Tracer()
    if traced == "1":
        install(tracer)
    real_stdout = sys.stdout
    with open(stdout_path, "w", encoding="utf-8") as out:
        sys.stdout = out
        try:
            start = perf_counter()
            code = cli.main(argv[4:])
            wall = perf_counter() - start
        finally:
            sys.stdout = real_stdout
        if traced == "1":
            tracer.layers["cli"].add("stdout_bytes", out.tell())
    result = {"code": code, "wall_s": wall,
              "layers": {name: layer.record() for name, layer in tracer.layers.items()}}
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
