"""The benchmark's workloads: seeded inputs, the CLI calls made on them, and
independent checks of every output.

A workload is a list of CLI calls, run in order as one round; a run repeats
the round.  Inputs are written once per run, before any timing starts.  Each
check reads one round's stdout texts and returns the problems it finds per
call label, so that a broken output counts against the call that printed it.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gen

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)

# Sizes are fixed per workload and only the graphs vary with the seed, so
# that runs on different seeds do comparable work.  Apart from the sweep each
# call takes 2-4 s, so that a run holds several rounds.
MANY_NS = tuple(range(8, 17))
MANY_PS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
MANY_PER_CELL = 200
MANY_TURAN = tuple((n, r) for n in MANY_NS for r in range(2, n) if n % r == 0)
LAG_NS = (14, 15, 16, 17, 18, 14, 15, 16)
LAG_DRAWS = 5
LAG_CONSTANT_COUNT = 2
LAG_GRID = 5
REDUCE_NS = (40, 50, 60)
REDUCE_PER_CALL = 4
SWEEP_N = 7


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``turanweights <command> [input] <options>``."""

    label: str
    command: str
    options: tuple[str, ...]
    input: Path | None = None

    def argv(self) -> list[str]:
        head = [self.command] + ([str(self.input)] if self.input else [])
        return head + list(self.options)

    def key(self) -> str:
        """Digest of the call's arguments and input bytes, wherever the files live."""
        h = hashlib.sha256(json.dumps([self.command, *self.options]).encode())
        if self.input:
            h.update(self.input.read_bytes())
        return h.hexdigest()


Checker = Callable[[dict[str, str]], dict[str, list[str]]]


@dataclass(frozen=True)
class Plan:
    calls: tuple[Call, ...]
    items: int  # graphs (or reductions) finished by one round
    check: Checker
    # runs of reference.py whose median is taken between two calls: more
    # where the calls are long, so that a reference time is not one draw
    reference_runs: int = 1


def _write(path: Path, graphs: list[list[int]]) -> Path:
    path.write_text("".join(gen.graph6(adj) + "\n" for adj in graphs))
    return path


def _guard(check: Checker) -> Checker:
    """Turn an exception inside a check into a problem of the call it parsed."""

    def guarded(outputs: dict[str, str]) -> dict[str, list[str]]:
        try:
            return check(outputs)
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return {label: [f"unparseable output: {exc!r}"] for label in outputs}

    return guarded


def sweep_plan(workdir: Path, seed: int) -> Plan:
    del workdir, seed  # the sweep's input is fixed by n
    call = Call("sweep", "sweep", ("--n", str(SWEEP_N), "--jobs", "1", "--format", "json"))

    def check(outputs):
        stats = json.loads(outputs["sweep"])["stats"]
        problems = []
        pairs = SWEEP_N * (SWEEP_N - 1) // 2
        if stats["graphs_checked"] != 1 << pairs or stats["violations"] != 0:
            problems.append(f"checked {stats['graphs_checked']}, violations {stats['violations']}")
        # K_n is the heaviest graph: C(n,2) edges of weight n/(2(n-1)) give n^2/4
        if Fraction(stats["max_total_weight"]) != Fraction(SWEEP_N * SWEEP_N, 4):
            problems.append(f"max total {stats['max_total_weight']}")
        return {"sweep": problems}

    return Plan((call,), 1 << (SWEEP_N * (SWEEP_N - 1) // 2), _guard(check), reference_runs=5)


_HUMAN_VERIFY = re.compile(r"graph (\d+): n=(\d+) slack=(\S+) \(total (\S+), bound (\S+)\) OK")


def verify_many_plan(workdir: Path, seed: int) -> Plan:
    rng = gen.SplitMix64(seed)
    graphs = [gen.gnp(n, p, rng.fork())
              for _ in range(MANY_PER_CELL) for p in MANY_PS for n in MANY_NS]
    tight = set(range(len(graphs), len(graphs) + len(MANY_TURAN)))
    graphs += [gen.turan(n, r) for n, r in MANY_TURAN]
    call = Call("verify", "verify", (), _write(workdir / "many.g6", graphs))

    def check(outputs):
        lines = outputs["verify"].splitlines()
        if len(lines) != len(graphs):
            return {"verify": [f"{len(lines)} lines for {len(graphs)} graphs"]}
        problems = []
        for idx, (line, adj) in enumerate(zip(lines, graphs), 1):
            m = _HUMAN_VERIFY.fullmatch(line)
            if m is None or int(m[1]) != idx or int(m[2]) != len(adj):
                problems.append(f"unexpected line {line!r}")
                continue
            slack, total, bound = (Fraction(x) for x in m.group(3, 4, 5))
            if slack < 0 or slack != bound - total or bound != Fraction(len(adj) ** 2, 4):
                problems.append(f"graph {idx}: slack {slack}, total {total}, bound {bound}")
            elif idx - 1 in tight and slack != 0:
                problems.append(f"graph {idx}: Turan graph with slack {slack}, expected 0")
        return {"verify": problems}

    return Plan((call,), len(graphs), _guard(check))


def typical_gnm(n: int, rng: gen.SplitMix64) -> list[int]:
    """Of LAG_DRAWS graphs with exactly 3/4 of the pairs as edges, the one
    with the median clique count.

    The work of ``lagrangian`` grows with the number of cliques, which under
    G(n,3/4) varies several-fold between draws and under G(n,m) still by
    about a fifth over a round's graphs; the median draw keeps the work of
    a round nearly the same from seed to seed.
    """
    draws = [gen.gnm(n, 3 * n * (n - 1) // 8, rng.fork()) for _ in range(LAG_DRAWS)]
    return sorted(draws, key=gen.clique_count)[LAG_DRAWS // 2]


def lagrangian_plan(workdir: Path, seed: int) -> Plan:
    rng = gen.SplitMix64(seed)
    graphs = [typical_gnm(n, rng) for n in LAG_NS]
    subset = graphs[:LAG_CONSTANT_COUNT]
    main = _write(workdir / "lagrangian.g6", graphs)
    calls = (
        Call("clique", "lagrangian", ("--format", "json"), main),
        Call("constant", "lagrangian", ("--format", "json", "--mode", "constant:1"),
             _write(workdir / "constant.g6", subset)),
        Call("oracle", "oracle", ("--format", "json", "--grid", str(LAG_GRID)), main),
    )
    omegas: list[int] = []
    cliques: list[int] = []

    def check(outputs):
        if not omegas:
            # imported only now: networkx would swell the benchmark process,
            # whose size the CLI children's peak RSS readings start from
            import networkx as nx

            for adj in graphs:
                nxg = nx.from_graph6_bytes(gen.graph6(adj).encode())
                omegas.append(max(len(c) for c in nx.find_cliques(nxg)))
                cliques.append(sum(1 for _ in nx.enumerate_all_cliques(nxg)))
        problems = {"clique": [], "constant": [], "oracle": []}
        clique = json.loads(outputs["clique"])["reports"]
        maxima = [Fraction(r["maximum"]) for r in clique]
        if len(clique) != len(graphs):
            problems["clique"].append(f"{len(clique)} reports for {len(graphs)} graphs")
        for idx, (r, adj) in enumerate(zip(clique, graphs), 1):
            if not 0 < Fraction(r["maximum"]) <= QUARTER:
                problems["clique"].append(f"graph {idx}: maximum {r['maximum']} outside (0, 1/4]")
            if len(r["candidates"]) != cliques[idx - 1]:
                problems["clique"].append(f"graph {idx}: {len(r['candidates'])} candidates, "
                                          f"{cliques[idx - 1]} cliques")
            if not gen.is_clique(adj, r["support"]):
                problems["clique"].append(f"graph {idx}: support is not a clique")
        constant = json.loads(outputs["constant"])["reports"]
        if len(constant) != len(subset):
            problems["constant"].append(f"{len(constant)} reports for {len(subset)} graphs")
        for idx, (r, omega) in enumerate(zip(constant, omegas), 1):
            # Motzkin-Straus: the unweighted maximum is (1 - 1/omega)/2
            if Fraction(r["maximum"]) != (1 - Fraction(1, omega)) / 2:
                problems["constant"].append(f"graph {idx}: maximum {r['maximum']}, omega {omega}")
        oracle = json.loads(outputs["oracle"])["reports"]
        if len(oracle) != len(graphs):
            problems["oracle"].append(f"{len(oracle)} reports for {len(graphs)} graphs")
        for idx, (r, maximum) in enumerate(zip(oracle, maxima), 1):
            if not Fraction(r["value"]) <= maximum:
                problems["oracle"].append(f"graph {idx}: grid value {r['value']} above {maximum}")
        return problems

    return Plan(calls, len(graphs), _guard(check))


def reduce_plan(workdir: Path, seed: int) -> Plan:
    rng = gen.SplitMix64(seed)
    calls = []
    inputs = {}
    for n in REDUCE_NS:
        graphs = [gen.gnp(n, HALF, rng.fork()) for _ in range(REDUCE_PER_CALL)]
        start = gen.simplex_start(n, rng)
        label = f"reduce-n{n}"
        inputs[label] = (graphs, start)
        calls.append(Call(label, "reduce",
                          ("--format", "json", "--start", ",".join(map(str, start))),
                          _write(workdir / f"{label}.g6", graphs)))

    def check_one(text, graphs, start):
        problems = []
        reports = json.loads(text)["reports"]
        if len(reports) != len(graphs):
            return [f"{len(reports)} reports for {len(graphs)} graphs"]
        for idx, (r, adj) in enumerate(zip(reports, graphs), 1):
            if [Fraction(c) for c in r["start"]] != start:
                problems.append(f"graph {idx}: start point differs from --start")
            f = Fraction(r["objective_start"])
            for step in r["steps"]:
                before, after = Fraction(step["f_before"]), Fraction(step["f_after"])
                if before != f or after < before:
                    problems.append(f"graph {idx}: f goes {f} -> {before} -> {after}")
                f = after
            final = [Fraction(c) for c in r["final"]]
            if f != Fraction(r["objective_final"]) or sum(final) != 1:
                problems.append(f"graph {idx}: final point or objective inconsistent")
            if not gen.is_clique(adj, [v for v, c in enumerate(final) if c > 0]):
                problems.append(f"graph {idx}: final support is not a clique")
        return problems

    def check(outputs):
        return {label: check_one(outputs[label], *inputs[label]) for label in inputs}

    return Plan(tuple(calls), len(REDUCE_NS) * REDUCE_PER_CALL, _guard(check))


def combine(*plans: Plan) -> Plan:
    """One round of every plan's calls in turn; each check sees its own calls."""

    def check(outputs):
        problems = {}
        for plan in plans:
            problems.update(plan.check({c.label: outputs[c.label] for c in plan.calls}))
        return problems

    return Plan(tuple(c for plan in plans for c in plan.calls),
                sum(plan.items for plan in plans), check)


def commands_plan(workdir: Path, seed: int) -> Plan:
    return combine(verify_many_plan(workdir, seed), lagrangian_plan(workdir, seed),
                   reduce_plan(workdir, seed))


# name -> (plan builder, why); BENCHMARK.json repeats the names and reasons.
WORKLOADS = {
    "sweep-n7": (sweep_plan, "every labeled 7-vertex graph: the sweep's scaled-integer loop and "
                             "popcount search, no Fraction, codec or linsolve"),
    "verify-lagrangian-reduce": (
        commands_plan, "verify on 5416 small and Turan graphs, lagrangian and oracle on dense "
                       "14-18 vertex graphs, reduce from rational starts: every layer but sweep"),
}
