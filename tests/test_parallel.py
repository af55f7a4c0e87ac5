"""The per-graph commands on forked workers: the same bytes, the same first
error, and no child left behind.

Each test sets the CPU count the CLI sees by patching ``os.sched_getaffinity``;
any input of two or more graphs takes the forked path in this process.  A
forked worker inherits every patch, so a failure injected through
``cli.weight_report`` fires in whichever process builds that graph.
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
from hypothesis import given, settings
from hypothesis import strategies as st

import turanweights.cli as cli_mod
from turanweights import (
    TheoremViolation,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_edge_list,
    parse_graph6,
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
                                       (RecursionError, 1), (OSError, 1), (MemoryError, 1),
                                       (OverflowError, 1)])
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


# graphs of 68 and 79 edges: the second starts before the middle of the 147,
# but its own middle edge falls past it, so on two CPUs each is a range
UNEVEN = "".join(write_graph6(from_edge_list(14, list(complete_graph(14).edges())[:m])) + "\n"
                 for m in (68, 79))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("text", ["A_\n", "A_\nA_\n", UNEVEN], ids=["1", "2", "uneven"])
def test_two_graphs_fork_once(cpus, k, text):
    count = text.count("\n")
    cpus(1)
    expected = run_cli(["verify", "--format", "tsv"], text)
    assert expected[0] == 0 and expected[1].count("\n") == count
    if text.startswith("A_"):
        assert expected[1] == "".join(f"verify\t{i}\t2\t1\t1\t0\n" for i in range(1, count + 1))
    forks = cpus(k)
    assert run_cli(["verify", "--format", "tsv"], text) == expected
    assert len(forks) == min(k, count) - 1


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


# a child's start: it sees three CPUs and counts its forks
_CHILD_PRELUDE = ("import os, sys\n"
                  "from turanweights import cli\n"
                  "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
                  "real_fork, forks = os.fork, []\n"
                  "def fork():\n"
                  "    pid = real_fork()\n"
                  "    forks.extend([pid] if pid else [])\n"
                  "    return pid\n"
                  "os.fork = fork\n")


@pytest.mark.parametrize("fmt", ["human", "json"])
def test_fork_path_warns_nothing(tmp_path, fmt):
    """Under -W error a warning would be an error: Python 3.12+ warns when a
    multi-threaded process forks."""
    path = tmp_path / "mixed.g6"
    path.write_text(MIXED)
    script = (_CHILD_PRELUDE +
              "code = cli.main(sys.argv[1:])\n"
              "sys.stdout.flush()\n"
              "sys.stderr.write(f'forks {len(forks)}\\n')\n"
              "sys.exit(code)\n")
    result = subprocess.run([sys.executable, "-W", "error", "-c", script,
                             "verify", str(path), "--format", fmt],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "forks 2\n")
    assert result.stdout == run_cli(["verify", "--format", fmt], MIXED)[1]


class TwoPartError(ValueError):
    """Pickles, but does not load back: its one arg is not its two parameters."""

    def __init__(self, what, graph):
        super().__init__(f"{what} on graph {graph}")


def _local_error(what, graph):
    """An exception whose class is defined in a function, which pickle refuses."""
    class LocalError(ValueError):
        pass

    return LocalError(f"{what} on graph {graph}")


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("error", [_local_error, TwoPartError], ids=["local", "two-part"])
def test_unpicklable_exception_keeps_its_message(cpus, monkeypatch, error, k):
    """A worker sends an exception that does not pickle and load back as a
    ValueError with its message, which main reports as one process reports
    the original."""
    def report(g):
        if g.n == 9:  # in the last range on every CPU count
            raise error("local failure", write_graph6(g))
        return weight_report(g)

    monkeypatch.setattr(cli_mod, "weight_report", report)
    for fmt in ("human", "json"):
        argv = ["verify", "--format", fmt]
        cpus(1)
        expected = run_cli(argv, EMPTY)
        assert expected[:2] == (1, "") and "local failure on graph H??????" in expected[2]
        forks = cpus(k)
        assert run_cli(argv, EMPTY) == expected
        assert len(forks) == k - 1


@pytest.mark.parametrize("k", [1, 2, 3])
def test_malformed_line_beats_a_failing_first_graph(cpus, monkeypatch, k):
    """A malformed line in the last range wins over a TheoremViolation on graph 1,
    in the parent's range, and no run waits for a worker to build: every
    worker's build would sleep for a minute."""
    parent = os.getpid()

    def report(g):
        if os.getpid() != parent:
            time.sleep(60)
        if g.n == 1:
            raise TheoremViolation(f"total weight exceeds bound on graph {write_graph6(g)}")
        return weight_report(g)

    monkeypatch.setattr(cli_mod, "weight_report", report)
    text = EMPTY.replace(write_graph6(empty_graph(8)) + "\n", "G???\n")
    forks = cpus(k)
    start = time.perf_counter()
    result = run_cli(["verify"], text)
    assert time.perf_counter() - start < 30
    assert result == (1, "", "turanweights: usage: line 8: expected 5 data characters "
                             "for n=8, got 3\n")
    assert len(forks) == k - 1


# graph n - 1 on line 2n - 1, with a blank line after each graph
PREFIXED = "".join(f">>graph6<<{write_graph6(empty_graph(n))}\n\n" for n in range(1, 10))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("bad", [1, 5, 9])
def test_parse_errors_name_the_input_line(cpus, k, bad):
    lines = PREFIXED.split("\n")
    lines[2 * bad - 2] = ">>graph6<<A"
    forks = cpus(k)
    assert run_cli(["verify"], "\n".join(lines)) == (
        1, "", f"turanweights: usage: line {2 * bad - 1}: expected 1 data characters "
               "for n=2, got 0\n")
    assert len(forks) == k - 1


def _size_header(n: int, width: int) -> str:
    """n as a graph6 size header of 1, 4 or 8 characters; parse_graph6 reads
    the longer forms for any n."""
    digits = {1: 1, 4: 3, 8: 6}[width]
    return "~" * (width - digits) + "".join(chr(63 + (n >> s & 63))
                                            for s in range(6 * digits - 6, -1, -6))


@given(st.integers(0, 80), st.sampled_from([Fraction(1, 5), Fraction(1, 2), Fraction(7, 8)]),
       st.integers(0, 2**64 - 1), st.sampled_from([1, 4, 8]), st.booleans())
@settings(max_examples=150, deadline=None)
def test_text_edge_count_is_the_graphs(n, p, seed, width, prefixed):
    g = random_gnp(n, p, seed)
    line = write_graph6(g)
    if width > 1 or n > 62:
        width = max(width, 4)
        line = _size_header(n, width) + line[1 if n <= 62 else 4:]
    line = (">>graph6<<" if prefixed else "") + line + "\n"
    assert parse_graph6(line) == g
    assert cli_mod._graph6_edges(line) == g.edge_count()


def test_forked_success_imports_no_pickle(tmp_path):
    """Workers send their text, and pickle only an exception: an import of
    pickle in the parent or in any worker writes to stderr."""
    path = tmp_path / "mixed.g6"
    path.write_text(MIXED)
    script = (_CHILD_PRELUDE +
              "class Spy:\n"
              "    def find_spec(self, name, path=None, target=None):\n"
              "        if name == 'pickle':\n"
              "            os.write(2, f'pickle imported in {os.getpid()}\\n'.encode())\n"
              "assert 'pickle' not in sys.modules\n"
              "sys.meta_path.insert(0, Spy())\n"
              f"for argv in {list(COMMANDS.values())!r}:\n"
              "    for fmt in ('human', 'tsv', 'json'):\n"
              "        assert cli.main([*argv, sys.argv[1], '--format', fmt]) == 0\n"
              "sys.stdout.flush()\n"
              "sys.stderr.write(f'forks {len(forks)} pickle {\"pickle\" in sys.modules}\\n')\n")
    result = subprocess.run([sys.executable, "-W", "error", "-c", script, str(path)],
                            capture_output=True, text=True, timeout=120)
    forks = 2 * 3 * len(COMMANDS)  # two workers per call, three formats
    assert (result.returncode, result.stderr) == (0, f"forks {forks} pickle False\n")
    expected = "".join(run_cli([*argv, "--format", fmt], MIXED)[1]
                       for argv in COMMANDS.values() for fmt in ("human", "tsv", "json"))
    assert result.stdout == expected


def test_closed_stdout_leaves_no_child(tmp_path):
    """A reader that has gone: the forked run's one write fails, and the CLI
    returns with every worker reaped."""
    path = tmp_path / "empty.g6"
    path.write_text(EMPTY)
    script = (_CHILD_PRELUDE +
              "read_fd, write_fd = os.pipe()\n"
              "os.close(read_fd)\n"
              "os.dup2(write_fd, 1)\n"
              "code = cli.main(['verify', sys.argv[1]])\n"
              "try:\n"
              "    os.waitpid(-1, os.WNOHANG)\n"
              "    left = 'a child'\n"
              "except ChildProcessError:\n"
              "    left = 'no child'\n"
              "sys.stderr.write(f'exit {code} forks {len(forks)} {left}\\n')\n")
    result = subprocess.run([sys.executable, "-c", script, str(path)],
                            capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "exit 1 forks 2 no child\n")
