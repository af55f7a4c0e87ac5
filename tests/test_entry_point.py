"""The process entry point: ``python -m turanweights`` and the installed script
both run ``cli.run``, which freezes the collector after ``main`` returns and
changes nothing a user sees.

Each child's output is compared with ``cli.main`` run in this process.
"""

import gc
import os
import re
import runpy
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import turanweights.cli as cli_mod
from turanweights import TheoremViolation, write_graph6

from test_cli import run_cli

ROOT = Path(__file__).resolve().parents[1]


def _child(argv, stdin_text="", prelude=""):
    """(exit code, stdout, stderr) of ``python -m turanweights argv``, with
    ``prelude`` run first in the child's own process."""
    script = (prelude + "import runpy\n"
              "runpy.run_module('turanweights', run_name='__main__', alter_sys=True)\n")
    result = subprocess.run([sys.executable, "-c", script, *argv], input=stdin_text,
                            capture_output=True, text=True, timeout=60)
    return result.returncode, result.stdout, result.stderr


def test_collector_is_frozen_at_exit():
    """Python's last collections at exit skip what run froze: an atexit hook
    runs before them and sees the frozen objects."""
    prelude = ("import atexit, gc, os\n"
               "atexit.register(lambda: os.write(2, f'{gc.get_freeze_count()}\\n'.encode()))\n")
    code, out, err = _child(["sweep", "--n", "4"], prelude=prelude)
    assert code == 0 and out.startswith("sweep n=4: all 64 labeled graphs")
    assert int(err) > 0


@pytest.mark.parametrize("argv, stdin_text", [
    (["sweep", "--n", "4"], ""),
    (["sweep", "--n", "5", "--format", "json"], ""),
    (["gen", "gnp", "12", "1/2", "--seed", "3"], ""),
    (["verify", "--format", "tsv"], "A_\nA_\n"),
    (["--help"], ""),
    (["sweep", "--n", "x"], ""),
    (["sweep", "--n", "x", "--format", "json"], ""),
    (["verify"], "A\n"),
], ids=["sweep", "sweep-json", "gen", "two-graphs", "help", "usage", "usage-json", "malformed"])
def test_child_matches_main(monkeypatch, argv, stdin_text):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help and usage to the terminal width
    expected = run_cli(argv, stdin_text)
    assert expected[0] in (0, 1)
    assert _child(argv, stdin_text) == expected


def test_violation_exits_two(monkeypatch):
    def report(g):
        raise TheoremViolation(f"total weight exceeds bound on graph {write_graph6(g)}")

    monkeypatch.setattr(cli_mod, "weight_report", report)
    expected = run_cli(["verify"], "A_\n")
    assert expected[0] == 2
    prelude = ("import turanweights.cli as cli\n"
               "from turanweights import TheoremViolation, write_graph6\n"
               "def report(g):\n"
               "    raise TheoremViolation(\n"
               "        f'total weight exceeds bound on graph {write_graph6(g)}')\n"
               "cli.weight_report = report\n")
    assert _child(["verify"], "A_\n", prelude) == expected


@pytest.mark.parametrize("argv, expected", [
    (["sweep", "--n", "5"], 0),  # one short write, done before the reader leaves
    (["gen", "complete", "2000"], 1),  # 333 kB: the write outlives the reader
], ids=["short", "long"])
def test_reader_taking_one_byte(argv, expected):
    """``turanweights ... | head -c 1``: a reader that takes one byte and
    closes; a broken pipe exits 1 and says nothing."""
    proc = subprocess.Popen([sys.executable, "-m", "turanweights", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.read(1)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == (expected, run_cli(argv)[1][:1].encode(), b"")


def test_script_runs_what_python_m_runs(monkeypatch):
    """The [project.scripts] target is the function __main__ calls."""
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    module, name = re.match(r'turanweights = "([\w.]+):(\w+)"\n', scripts).groups()
    monkeypatch.setattr(import_module(module), name, lambda: 7)
    with pytest.raises(SystemExit) as info:
        runpy.run_module("turanweights", run_name="__main__")
    assert info.value.code == 7


def test_main_leaves_the_collector_alone(monkeypatch):
    """Only the entry point freezes: a forking call of main in this process
    leaves nothing frozen."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    before = gc.get_freeze_count()
    assert run_cli(["verify"], "A_\nA_\n")[0] == 0
    assert gc.get_freeze_count() == before
