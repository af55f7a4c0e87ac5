"""Tests of the benchmark's own code: input generation and output checks.

Run with: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def as_networkx(adj: list[int]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(len(adj)))
    g.add_edges_from((u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
                     if adj[u] >> v & 1)
    return g


def test_splitmix64_reference_value():
    assert gen.SplitMix64(0).next64() == 0xE220A8397B1DCDAF


@pytest.mark.parametrize("n", [0, 1, 2, 7, 62, 63, 130])
def test_graph6_round_trips_through_networkx(n):
    rng = gen.SplitMix64(n)
    for adj in (gen.gnp(n, Fraction(1, 2), rng.fork()),
                gen.gnm(n, n * (n - 1) // 4, rng.fork())):
        theirs = nx.from_graph6_bytes(gen.graph6(adj).encode())
        assert theirs.number_of_nodes() == n
        assert nx.utils.edges_equal(theirs.edges(), as_networkx(adj).edges())


def test_generators():
    rng = gen.SplitMix64(3)
    assert as_networkx(gen.gnm(20, 57, rng)).number_of_edges() == 57
    t = gen.turan(12, 4)
    assert nx.is_isomorphic(as_networkx(t), nx.turan_graph(12, 4))
    start = gen.simplex_start(9, rng)
    assert sum(start) == 1 and all(c > 0 for c in start)


def test_clique_count_matches_networkx():
    rng = gen.SplitMix64(11)
    for n in (0, 1, 5, 12, 16):
        adj = gen.gnm(n, 3 * n * (n - 1) // 8, rng.fork())
        g = nx.from_graph6_bytes(gen.graph6(adj).encode())
        assert gen.clique_count(adj) == sum(1 for _ in nx.enumerate_all_cliques(g))


def test_typical_gnm_is_the_median_draw():
    rng = gen.SplitMix64(7)
    draws = [gen.gnm(15, 78, rng.fork()) for _ in range(workloads.LAG_DRAWS)]
    counts = sorted(gen.clique_count(adj) for adj in draws)
    chosen = workloads.typical_gnm(15, gen.SplitMix64(7))
    assert gen.clique_count(chosen) == counts[len(counts) // 2]
    assert chosen in draws


def test_inputs_depend_only_on_seed(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    keys = [[c.key() for c in workloads.reduce_plan(d, 5).calls] for d in (a, b)]
    assert keys[0] == keys[1]
    assert keys[0] != [c.key() for c in workloads.reduce_plan(a, 6).calls]


def cli_outputs(plan) -> dict[str, str]:
    from turanweights import cli

    outputs = {}
    for call in plan.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(call.argv()) == 0
        outputs[call.label] = buf.getvalue()
    return outputs


def test_reduce_check_accepts_real_output_and_rejects_corruption(tmp_path):
    plan = workloads.reduce_plan(tmp_path, 0)
    outputs = cli_outputs(plan)
    assert not any(plan.check(outputs).values())

    label = plan.calls[0].label
    doc = json.loads(outputs[label])
    step = doc["reports"][0]["steps"][0]
    step["f_after"] = str(Fraction(step["f_before"]) - 1)
    bad = plan.check({**outputs, label: json.dumps(doc)})
    assert bad[label] and not any(bad[c.label] for c in plan.calls[1:])
    assert plan.check({**outputs, label: outputs[label][:-100]})[label]


def test_combined_check_blames_the_call_that_printed_the_output(tmp_path):
    parts = [workloads.sweep_plan(tmp_path, 0), workloads.reduce_plan(tmp_path, 0)]
    plan = workloads.combine(*parts)
    assert plan.items == sum(p.items for p in parts)
    assert [c.label for c in plan.calls] == [c.label for p in parts for c in p.calls]
    outputs = {c.label: "not json" for c in plan.calls}
    assert all(plan.check(outputs)[c.label] for c in plan.calls)


def test_sweep_check():
    plan = workloads.sweep_plan(Path("."), 0)
    good = {"stats": {"graphs_checked": 1 << 21, "violations": 0, "max_total_weight": "49/4"}}
    assert plan.check({"sweep": json.dumps(good)}) == {"sweep": []}
    good["stats"]["max_total_weight"] = "12"
    assert plan.check({"sweep": json.dumps(good)})["sweep"]
    assert plan.check({"sweep": "not json"})["sweep"]


def test_checker_counts_a_digest_mismatch_as_a_failure(tmp_path):
    plan = workloads.sweep_plan(tmp_path, 0)
    out = tmp_path / "sweep.out"
    out.write_text(json.dumps(
        {"stats": {"graphs_checked": 1 << 21, "violations": 0, "max_total_weight": "49/4"}}))
    checker = run.Checker(plan)
    checker.recorded = {plan.calls[0].key(): "0" * 64}
    checker.round({"sweep": (out, 0)})
    checker.round({"sweep": (out, 1)})
    assert (checker.attempted, checker.failed) == (2, 2)
    checker.recorded = {}
    checker.round({"sweep": (out, 0)})
    assert (checker.attempted, checker.failed) == (3, 2)


def test_yardstick_divides_each_wall_by_the_reference_runs_around_it(monkeypatch):
    ref = run.REFERENCE_S
    times = iter([ref, ref, 3 * ref])
    monkeypatch.setattr(run.Yardstick, "reference", lambda self: next(times))
    yardstick = run.Yardstick(None, Path("."), 0.0, 1)
    assert yardstick.scaled(1.0) == pytest.approx(1.0)
    assert yardstick.scaled(3.0) == pytest.approx(1.5)


def test_benchmark_json_lists_the_traced_layers_and_workloads():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == \
        [(name, why) for name, (_, why) in workloads.WORKLOADS.items()]
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {name: (unit, better) for name, (unit, better, _) in tracer.LAYERS.items()}


def test_tracer_self_time_excludes_children():
    import types

    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    t = tracer.Tracer()
    t.wrap(mod, "inner", "inner")
    t.wrap(mod, "outer", "outer")
    mod.outer()
    inner, outer = t.layers["inner"], t.layers["outer"]
    assert (inner.calls, outer.calls) == (2, 1)
    assert 0 < outer.self_s < inner.self_s
