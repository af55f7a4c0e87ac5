"""The benchmark's tracer still finds every name it wraps or reads.

``perfbench/tracer.py`` replaces package functions by name and reads fields
of their results; a rename in the package, or a name that a command binds
only when it starts, would break it only when the benchmark runs.  This runs
each traced command once traced and once plain on a small file.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from turanweights import complete_graph, cycle_graph, turan_graph, write_graph6

ROOT = Path(__file__).resolve().parents[1]
GRAPHS = [complete_graph(4), cycle_graph(5), turan_graph(6, 3)]


def _trace(tmp_path, traced, argv):
    result, out = tmp_path / f"result{traced}.json", tmp_path / f"out{traced}.txt"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # on one CPU: the per-graph commands fork workers for a multi-graph
    # input, and the tracer sees only the spans of the process it runs in
    one_cpu = None
    if hasattr(os, "sched_setaffinity"):
        def one_cpu():
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), traced, str(result), str(out),
         "--", *argv],
        env=env, capture_output=True, text=True, preexec_fn=one_cpu)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text()), out.read_text()


@pytest.fixture
def graphs_file(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in GRAPHS))
    return path


def test_traced_and_plain_verify_agree(tmp_path, graphs_file):
    traced, traced_out = _trace(tmp_path, "1", ["verify", str(graphs_file)])
    plain, plain_out = _trace(tmp_path, "0", ["verify", str(graphs_file)])
    assert traced["code"] == plain["code"] == 0
    assert traced_out == plain_out and traced_out.count("OK") == len(GRAPHS)
    edges = sum(g.edge_count() for g in GRAPHS)
    assert traced["layers"]["weights.report"]["counts"]["edges"] == edges


# each command the benchmark traces, past verify, and the layers it must reach
LAYERS_REACHED = {
    "lagrangian": (["lagrangian"], ["lagrangian.maximum", "linsolve.solve"]),
    "reduce": (["reduce"], ["lagrangian.reduce", "lagrangian.objective"]),
    "oracle": (["oracle", "--grid", "2"], ["lagrangian.oracle"]),
    "sweep": (["sweep", "--n", "4"], ["sweep"]),
}


@pytest.mark.parametrize("command", sorted(LAYERS_REACHED))
def test_traced_command_reaches_its_layers(tmp_path, graphs_file, command):
    argv, layers = LAYERS_REACHED[command]
    if command != "sweep":
        argv = [*argv, str(graphs_file)]
    traced, traced_out = _trace(tmp_path, "1", argv)
    plain, plain_out = _trace(tmp_path, "0", argv)
    assert traced["code"] == plain["code"] == 0
    assert traced_out == plain_out != ""
    calls = {layer: traced["layers"].get(layer, {"calls": 0})["calls"] for layer in layers}
    assert all(calls.values()), calls
