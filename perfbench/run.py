"""End-to-end benchmark of the turanweights CLI.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI is imported from ``src``.
One client drives the CLI in a closed loop: one child process at a time,
each started only after the previous one ended.  A run writes the
workload's inputs from the seed, times a CLI call that does no work
(``--help``) several times for ``setup_s``, then repeats the workload's round
of CLI calls for as long as another round, taking as long as the last one,
still ends within ``--seconds`` (at least once), and checks every output
after the timed loop.  A fixed program, reference.py, runs before the first
and after every timed call; each timing is reported in units of its wall
time (see ``Yardstick``).  With ``--trace 1`` each call runs instead in a fresh
interpreter twice, once plain and once with every layer boundary wrapped
(see tracer.py), and the run reports per-layer metrics.

Progress and a readable summary go to stderr.  The last line of stdout is
the result as one JSON object; the line before it is the machine
fingerprint.  ``--workload all`` runs every workload in turn, each in a
process of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from tracer import LAYERS
from workloads import WORKLOADS, Call, Plan

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"

SETUP_REPS = 9
# Timings are reported as if every run of reference.py around them took this
# long: about its wall time on the 2-vCPU x86_64 VM (Xeon, 2.1 GHz, Python
# 3.11) the benchmark was built on.  It only sets the scale.
REFERENCE_S = 0.25
RUN_LIMIT_S = 165.0  # any child still running this long into a run is killed


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], stdout: Path, deadline: float) -> tuple[float, float, int]:
    """Run one child to completion, killing it at ``deadline`` (a perf_counter
    value); return (wall s, peak RSS MB, exit code).

    os.wait4 gives this child's own peak RSS; RUSAGE_CHILDREN would report
    the largest of every child so far.  Linux starts a child's peak at the
    spawning process's resident size, so this process must stay smaller
    than the CLI while it spawns: it imports neither numpy nor networkx
    before the timed loop has ended.
    """
    with open(stdout, "wb") as out, open(stdout.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(0.0, deadline - start), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def cli_argv(call: Call) -> list[str]:
    return [sys.executable, "-m", "turanweights", *call.argv()]


def tracer_argv(call: Call, traced: bool, result: Path, stdout: Path) -> list[str]:
    return [sys.executable, str(HERE / "tracer.py"), "1" if traced else "0",
            str(result), str(stdout), "--", *call.argv()]


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


class Checker:
    """Counts CLI calls and failures: a non-zero exit, a stdout digest other
    than the one recorded for these inputs, or a failed invariant."""

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self.keys = {call.label: call.key() for call in plan.calls}
        self.recorded = load_digests()
        self.verdicts: dict[tuple[str, ...], dict[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def exit_code(self, what: str, code: int) -> None:
        self.attempted += 1
        if code != 0:
            self.failed += 1
            self.problems.append(f"{what}: exit code {code}")

    def round(self, outputs: dict[str, tuple[Path, int]]) -> None:
        """outputs: call label -> (stdout file, exit code) for one round."""
        digests = tuple(digest(path) for path, _ in outputs.values())
        if digests not in self.verdicts:
            texts = {label: path.read_text(errors="replace") for label, (path, _) in outputs.items()}
            self.verdicts[digests] = self.plan.check(texts)
        verdict = self.verdicts[digests]
        for (label, (_, code)), got in zip(outputs.items(), digests):
            problems = list(verdict.get(label, []))
            if code != 0:
                problems.append(f"exit code {code}")
            expected = self.recorded.get(self.keys[label])
            if expected is not None and got != expected:
                problems.append("stdout differs from the recorded reference")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.extend(f"{label}: {p}" for p in problems)

    def unrecorded(self) -> list[str]:
        return [label for label, key in self.keys.items() if key not in self.recorded]


class Yardstick:
    """Times CLI calls in units of reference.py's wall time.

    The host slowed and sped up every program on it together, for seconds to
    minutes at a time (see README.md).  reference.py runs, in a child like
    the CLI's, before the first call and after every call; a call's wall
    time is scaled by REFERENCE_S over the mean of the reference times just
    before and just after it.
    """

    def __init__(self, checker: Checker, workdir: Path, deadline: float, runs: int) -> None:
        self.checker, self.workdir, self.deadline, self.runs = checker, workdir, deadline, runs
        self.refs = [self.reference()]

    def reference(self) -> float:
        """Median wall time of ``runs`` runs of reference.py."""
        walls = []
        for _ in range(self.runs):
            wall, _, code = spawn([sys.executable, str(HERE / "reference.py")],
                                  self.workdir / "ref.out", self.deadline)
            self.checker.exit_code("reference.py", code)
            walls.append(wall)
        return statistics.median(walls)

    def scaled(self, wall: float) -> float:
        """``wall`` of the call that just ended, in reference units."""
        self.refs.append(self.reference())
        return wall * REFERENCE_S * 2 / (self.refs[-2] + self.refs[-1])


def measure_setup(checker: Checker, workdir: Path, deadline: float) -> float:
    """Median scaled wall time of a CLI call that only starts up and exits."""
    call = Call("setup", "--help", ())
    # the first call warms the page and bytecode caches
    checker.exit_code("--help", spawn(cli_argv(call), workdir / "setup.out", deadline)[2])
    yardstick = Yardstick(checker, workdir, deadline, 1)
    walls, scaled = [], []
    for _ in range(SETUP_REPS):
        wall, _, code = spawn(cli_argv(call), workdir / "setup.out", deadline)
        checker.exit_code("--help", code)
        walls.append(wall)
        scaled.append(yardstick.scaled(wall))
    print(f"  setup: median wall {statistics.median(walls):.4f} s, reference median "
          f"{statistics.median(yardstick.refs):.4f} s", file=sys.stderr)
    return statistics.median(scaled)


def run_plain(plan: Plan, checker: Checker, workdir: Path, seconds: float,
              deadline: float) -> dict:
    """graphs_per_s is a round's items over the sum of each call's median
    scaled wall time across the rounds."""
    walls: dict[str, list[float]] = {call.label: [] for call in plan.calls}
    scaled: dict[str, list[float]] = {call.label: [] for call in plan.calls}
    yardstick = Yardstick(checker, workdir, deadline, plan.reference_runs)
    peak = 0.0
    outputs = []
    start = perf_counter()
    last = 0.0
    while not outputs or perf_counter() - start + last <= seconds:
        round_start = perf_counter()
        index = len(outputs)
        produced = {}
        for call in plan.calls:
            out = workdir / f"r{index}-{call.label}.out"
            wall, rss, code = spawn(cli_argv(call), out, deadline)
            walls[call.label].append(wall)
            scaled[call.label].append(yardstick.scaled(wall))
            peak = max(peak, rss)
            produced[call.label] = (out, code)
        outputs.append(produced)
        last = perf_counter() - round_start
    for produced in outputs:
        checker.round(produced)
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    refs = yardstick.refs
    print(f"  {len(outputs)} rounds; reference median {statistics.median(refs):.4f} s "
          f"({min(refs):.4f}-{max(refs):.4f}); per call, median wall (min-max) and median "
          "scaled wall:", file=sys.stderr)
    round_s = 0.0
    for label, w in walls.items():
        call_s = statistics.median(scaled[label])
        round_s += call_s
        print(f"    {label:12} {statistics.median(w):.4f} s ({min(w):.4f}-{max(w):.4f})"
              f"  {call_s:.4f} s", file=sys.stderr)
    print(f"  benchmark process peak RSS {own_peak:.1f} MB while spawning"
          + (" (not below the CLI's: peak_rss_mb may be the benchmark's)"
             if own_peak >= peak else ""), file=sys.stderr)
    return {"graphs_per_s": (plan.items / round_s, "1/s"), "peak_rss_mb": (peak, "MB")}


def _quantile_us(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1e6 if samples else 0.0
    return statistics.quantiles(samples, n=100)[q - 1] * 1e6


def layer_metrics(rounds: list[dict], walls: list[tuple[float, float]]) -> dict:
    """Per-layer metrics from each traced round's merged layer records."""
    empty = {"calls": 0, "self_s": 0.0, "samples": [], "counts": {}}

    def first(layer: str) -> dict:
        return rounds[0].get(layer, empty)

    def self_s(layer: str) -> float:
        return statistics.median(r.get(layer, empty)["self_s"] for r in rounds)

    def count(layer: str, name: str) -> int:
        return first(layer)["counts"].get(name, 0)

    def pooled(layer: str) -> list[float]:
        return [s for r in rounds for s in r.get(layer, empty)["samples"]]

    def share(part: int, whole: int) -> float:
        return part / whole if whole else 0.0

    m = {}
    for layer in ("graphs.parse", "weights.report", "cliques.edge", "linsolve.solve",
                  "lagrangian.maximum", "lagrangian.oracle", "lagrangian.objective",
                  "lagrangian.reduce"):
        m[f"{layer}.calls"] = first(layer)["calls"]
        m[f"{layer}.self_s"] = self_s(layer)
    for layer in ("cliques.edge", "linsolve.solve"):
        samples = pooled(layer)
        m[f"{layer}.us_p50"] = _quantile_us(samples, 50)
        m[f"{layer}.us_p99"] = _quantile_us(samples, 99)
    m["graphs.parse.bytes"] = count("graphs.parse", "bytes")
    m["cli.self_s"] = self_s("cli")
    m["cli.stdout_bytes"] = count("cli", "stdout_bytes")
    m["weights.report.edges"] = count("weights.report", "edges")
    m["cliques.enumerated"] = count("lagrangian.maximum", "candidates")
    m["linsolve.singular_frac"] = share(count("linsolve.solve", "singular"),
                                        first("linsolve.solve")["calls"])
    m["lagrangian.interior_frac"] = share(count("lagrangian.maximum", "interior"),
                                          count("lagrangian.maximum", "candidates"))
    m["lagrangian.oracle.points"] = count("lagrangian.oracle", "points")
    m["lagrangian.reduce.steps"] = count("lagrangian.reduce", "steps")
    m["sweep.masks"] = count("sweep", "masks")
    m["sweep.self_s"] = self_s("sweep")
    m["sweep.masks_per_s"] = share(m["sweep.masks"], m["sweep.self_s"])
    plain = statistics.median(w for w, _ in walls)
    traced = statistics.median(t for _, t in walls)
    m["trace.overhead_frac"] = traced / plain - 1 if plain else 0.0
    return {name: (m[name], LAYERS[name][0]) for name in LAYERS}


def merge_layers(into: dict, layers: dict) -> None:
    for name, rec in layers.items():
        acc = into.setdefault(name, {"calls": 0, "self_s": 0.0, "samples": [], "counts": {}})
        acc["calls"] += rec["calls"]
        acc["self_s"] += rec["self_s"]
        acc["samples"].extend(rec["samples"])
        for key, value in rec["counts"].items():
            acc["counts"][key] = acc["counts"].get(key, 0) + value


def run_traced(plan: Plan, checker: Checker, workdir: Path, seconds: float,
               deadline: float) -> dict:
    rounds = []
    walls = []
    outputs = []
    start = perf_counter()
    last = 0.0
    while not rounds or perf_counter() - start + last <= seconds:
        round_start = perf_counter()
        index = len(rounds)
        merged: dict = {}
        wall = {"plain": 0.0, "traced": 0.0}
        produced: dict[str, dict] = {"plain": {}, "traced": {}}
        for call in plan.calls:
            # alternate which pass goes first, so drift favours neither
            for kind in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
                out, result = (workdir / f"r{index}-{call.label}-{kind}.{ext}"
                               for ext in ("out", "json"))
                _, _, code = spawn(tracer_argv(call, kind == "traced", result, out), out,
                                   deadline)
                if code == 0:
                    record = json.loads(result.read_text())
                    code = record["code"]
                    wall[kind] += record["wall_s"]
                    merge_layers(merged, record["layers"])
                produced[kind][call.label] = (out, code)
        rounds.append(merged)
        walls.append((wall["plain"], wall["traced"]))
        outputs.append(produced)
        last = perf_counter() - round_start
    for produced in outputs:
        checker.round(produced["plain"])
        checker.round(produced["traced"])
    self_total = statistics.median(sum(rec["self_s"] for rec in r.values()) for r in rounds)
    print(f"  {len(rounds)} rounds; layer self times sum to {self_total:.4f} s of "
          f"{statistics.median(t for _, t in walls):.4f} s traced wall", file=sys.stderr)
    return layer_metrics(rounds, walls)


def fingerprint(name: str, seed: int, trace: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "absent"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"workload": name, "seed": seed, "trace": trace, "nproc": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    workdir = WORK / f"{name}-{seed}-{trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    builder, _ = WORKLOADS[name]
    plan = builder(workdir, seed)
    checker = Checker(plan)
    print(json.dumps(fingerprint(name, seed, trace), sort_keys=True))
    print(f"{name} seed {seed}: {len(plan.calls)} calls per round, {plan.items} items",
          file=sys.stderr)
    for label in checker.unrecorded():
        print(f"  no recorded stdout digest for call {label!r} on seed {seed}; "
              "its invariants are still checked", file=sys.stderr)
    if trace:
        metrics = run_traced(plan, checker, workdir, seconds, deadline)
    else:
        metrics = {"setup_s": (measure_setup(checker, workdir, deadline), "s")}
        metrics.update(run_plain(plan, checker, workdir, seconds, deadline))
        metrics["ok_frac"] = ((checker.attempted - checker.failed) / checker.attempted, "ratio")
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}", file=sys.stderr)
    if not checker.problems:  # a failed run's files stay for inspection
        shutil.rmtree(workdir)
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:28} {value:<14.6g} {unit:6} {LAYERS.get(metric, ('', '', ''))[2]}",
              file=sys.stderr)
    print(f"  {'failed_frac':28} {checker.failed / checker.attempted:<14.6g} ratio  "
          f"({checker.failed} of {checker.attempted} child runs)", file=sys.stderr)
    return {"correct": checker.failed == 0, "attempted": checker.attempted,
            "failed": checker.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "turanweights" / "__init__.py").is_file():
        print(f"perfbench: no turanweights package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)))
        return 0
    # one process per workload, so that none inherits another's memory
    codes = [subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                             str(args.seed), "--seconds", str(args.seconds),
                             "--trace", str(args.trace)]).returncode for name in WORKLOADS]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
