"""The per-graph commands on forked workers: the same bytes, the same first
error, and no child left behind.

Each test sets the CPU count the CLI sees by patching ``os.sched_getaffinity``
and lowers ``MIN_GRAPHS_PER_JOB`` to 1, so a handful of graphs takes the
forked path in this process.  A forked worker inherits every patch, so a
failure injected through ``cli.weight_report`` fires in whichever process
builds that graph.
"""

import io
import os
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction

import pytest

import turanweights.cli as cli_mod
from turanweights import (
    TheoremViolation,
    cycle_graph,
    empty_graph,
    random_gnp,
    turan_graph,
    weight_report,
    write_graph6,
)

from test_cli import _CountingStdout, run_cli

MIXED = "".join(write_graph6(g) + "\n" for g in [
    *(random_gnp(n, p, 100 * n + p.numerator)
      for n in range(1, 9) for p in (Fraction(1, 2), Fraction(3, 4))),
    turan_graph(6, 3), cycle_graph(5)])
# nine graphs of equal weight for the split: three to a range on three CPUs,
# and the empty graph on n vertices is graph n
EMPTY = "".join(write_graph6(empty_graph(n)) + "\n" for n in range(1, 10))

COMMANDS = {
    "weights": ["weights"],
    "verify": ["verify"],
    "lagrangian": ["lagrangian", "--ledger"],
    "reduce": ["reduce"],
    "oracle": ["oracle", "--grid", "3"],
}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes the CLI see k CPUs and returns the list of pids it forks."""
    monkeypatch.setattr(cli_mod, "MIN_GRAPHS_PER_JOB", 1)
    real_fork = os.fork
    forks = []

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        forks.clear()
        return forks

    return set_cpus


@pytest.mark.parametrize("fmt", ["human", "tsv", "json"])
@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_output_is_byte_identical(cpus, command, fmt):
    argv = [*COMMANDS[command], "--format", fmt]
    cpus(1)
    expected = run_cli(argv, MIXED)
    assert expected[0] == 0 and expected[2] == ""
    for k in (2, 3):
        forks = cpus(k)
        assert run_cli(argv, MIXED) == expected
        assert len(forks) == k - 1


def _failing_report(kind, bad):
    """weight_report that raises ``kind`` on the empty graphs whose n is in ``bad``."""
    def report(g):
        if g.n in bad:
            if kind is TheoremViolation:
                raise TheoremViolation(f"total weight exceeds bound on graph {write_graph6(g)}")
            raise kind(f"graph on {g.n} vertices")
        return weight_report(g)

    return report


@pytest.mark.parametrize("fmt", ["human", "json"])
@pytest.mark.parametrize("bad", [{1}, {8}, {5, 8}, {2, 7}], ids=[
    "parent", "last-worker", "two-workers", "parent-and-worker"])
@pytest.mark.parametrize("kind,code", [(TheoremViolation, 2), (ValueError, 1),
                                       (RecursionError, 1)])
def test_first_failure_in_input_order_wins(cpus, monkeypatch, kind, code, bad, fmt):
    monkeypatch.setattr(cli_mod, "weight_report", _failing_report(kind, bad))
    argv = ["verify", "--format", fmt]
    cpus(1)
    expected = run_cli(argv, EMPTY)
    assert expected[:2] == (code, "") and expected[2]
    forks = cpus(3)
    assert run_cli(argv, EMPTY) == expected
    assert len(forks) == 2


def test_worker_killed_reads_as_memory_error(cpus, monkeypatch):
    parent = os.getpid()

    def report(g):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return weight_report(g)

    monkeypatch.setattr(cli_mod, "weight_report", report)
    forks = cpus(3)
    assert run_cli(["verify"], EMPTY) == (
        1, "", "turanweights: usage: input too large to hold in memory\n")
    assert len(forks) == 2


@pytest.mark.parametrize("bad", [{1}, {4}], ids=["parent", "first-worker"])
def test_later_workers_are_killed_at_the_first_failure(cpus, monkeypatch, bad):
    """No run waits on a graph the plain loop would not reach: a worker past
    the first failure would sleep for a minute."""
    parent = os.getpid()

    def report(g):
        if g.n in bad:
            raise ValueError(f"graph on {g.n} vertices")
        if os.getpid() != parent and g.n > max(bad):
            time.sleep(60)
        return weight_report(g)

    monkeypatch.setattr(cli_mod, "weight_report", report)
    cpus(3)
    start = time.perf_counter()
    code, out, err = run_cli(["verify"], EMPTY)
    assert time.perf_counter() - start < 30
    assert (code, out, err) == (1, "", f"turanweights: usage: graph on {min(bad)} vertices\n")


def test_one_cpu_runs_in_one_process(cpus):
    forks = cpus(1)
    assert run_cli(["verify"], EMPTY)[0] == 0
    assert forks == []


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_no_fork_or_affinity_runs_in_one_process(cpus, monkeypatch, name):
    forks = cpus(3)
    expected = run_cli(["verify"], EMPTY)
    forks.clear()
    monkeypatch.delattr(os, name)
    assert run_cli(["verify"], EMPTY) == expected
    assert forks == []


def test_another_thread_runs_in_one_process(cpus):
    forks = cpus(3)
    expected = run_cli(["verify"], MIXED)
    forks.clear()
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert run_cli(["verify"], MIXED) == expected
    finally:
        release.set()
        thread.join(timeout=10)
    assert forks == [] and not thread.is_alive()


@pytest.mark.parametrize("count,workers", [(511, 0), (512, 1)])
def test_two_ranges_worth_of_graphs_fork(cpus, monkeypatch, count, workers):
    monkeypatch.setattr(cli_mod, "MIN_GRAPHS_PER_JOB", 256)
    forks = cpus(2)
    code, out, _ = run_cli(["verify", "--format", "tsv"], "A_\n" * count)
    assert code == 0 and out.count("\n") == count
    assert len(forks) == workers


def test_help_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(["--help"])[0] == 0
    assert run_cli(["verify", "--help"])[0] == 0


@pytest.mark.parametrize("fmt", ["human", "tsv", "json"])
def test_parallel_verify_writes_stdout_once(cpus, monkeypatch, fmt):
    forks = cpus(3)
    out = _CountingStdout()
    monkeypatch.setattr(sys, "stdin", io.StringIO(EMPTY))
    monkeypatch.setattr(sys, "stdout", out)
    assert cli_mod.main(["verify", "--format", fmt]) == 0
    assert out.writes == 1 and len(forks) == 2


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_fork_path_warns_nothing(tmp_path, fmt):
    """Under -W error a warning would be an error: Python 3.12+ warns when a
    multi-threaded process forks."""
    path = tmp_path / "mixed.g6"
    path.write_text(MIXED)
    script = ("import os, sys\n"
              "from turanweights import cli\n"
              "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
              "cli.MIN_GRAPHS_PER_JOB = 1\n"
              "real_fork, forks = os.fork, []\n"
              "def fork():\n"
              "    pid = real_fork()\n"
              "    forks.extend([pid] if pid else [])\n"
              "    return pid\n"
              "os.fork = fork\n"
              "code = cli.main(sys.argv[1:])\n"
              "sys.stdout.flush()\n"
              "sys.stderr.write(f'forks {len(forks)}\\n')\n"
              "sys.exit(code)\n")
    result = subprocess.run([sys.executable, "-W", "error", "-c", script,
                             "verify", str(path), "--format", fmt],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "forks 2\n")
    assert result.stdout == run_cli(["verify", "--format", fmt], MIXED)[1]
