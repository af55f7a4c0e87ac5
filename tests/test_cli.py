import contextlib
import io
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import turanweights
from turanweights import (
    CliqueCandidate,
    CliqueSet,
    EdgeWeightRecord,
    LagrangianOutcome,
    ReductionStep,
    SimplexPoint,
    SweepStats,
    TheoremViolation,
    WeightScheme,
    complete_graph,
    from_edge_list,
    graph_from_mask,
    sweep_all_graphs,
    turan_graph,
    weight_report,
    write_graph6,
)
from turanweights.cli import _json, main

from conftest import reference_plain


def run_cli(argv, stdin_text=""):
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def run_cli_measured(tmp_path, argv, stdin_text):
    """Run ``turanweights argv...`` in a child process on stdin_text; return
    (exit code, stdout, stderr, peak RSS in kB).

    A small launcher starts the CLI and reads its peak RSS with wait4,
    because a child spawned straight from this process would count this
    process's peak as its own.
    """
    paths = [tmp_path / name for name in ("in.txt", "out.txt", "err.txt")]
    paths[0].write_text(stdin_text)
    launcher = (
        "import os, subprocess, sys\n"
        "with open(sys.argv[1]) as src, open(sys.argv[2], 'w') as out, "
        "open(sys.argv[3], 'w') as err:\n"
        "    child = subprocess.Popen([sys.executable, '-m', 'turanweights', *sys.argv[4:]],\n"
        "                             stdin=src, stdout=out, stderr=err)\n"
        "    _, status, usage = os.wait4(child.pid, 0)\n"
        "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n")
    result = subprocess.run([sys.executable, "-c", launcher, *map(str, paths), *argv],
                            capture_output=True, text=True, timeout=60, check=True)
    code, peak_kb = map(int, result.stdout.split())  # ru_maxrss is in kB on Linux
    return code, paths[1].read_text(), paths[2].read_text(), peak_kb


K4E_EDGELIST = "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"


def c5_graph6():
    from turanweights import cycle_graph

    return write_graph6(cycle_graph(5))


class TestGen:
    def test_turan(self):
        code, out, _ = run_cli(["gen", "turan", "6", "3"])
        assert code == 0
        assert out.strip() == write_graph6(turan_graph(6, 3))

    def test_complete(self):
        code, out, _ = run_cli(["gen", "complete", "4"])
        assert code == 0 and out.strip() == "C~"

    def test_gnp_deterministic(self):
        runs = [run_cli(["gen", "gnp", "10", "1/2", "--seed", "42"]) for _ in range(2)]
        assert runs[0] == runs[1] and runs[0][0] == 0

    def test_invalid_params_exit_1(self):
        code, _, err = run_cli(["gen", "cycle", "2"])
        assert code == 1 and "cycle" in err

    def test_bad_probability_exit_1(self):
        code, _, err = run_cli(["gen", "gnp", "5", "x/y"])
        assert code == 1 and "rational" in err

    def test_negative_vertex_count_exit_1(self):
        for kind in ("complete", "empty"):
            code, out, err = run_cli(["gen", kind, "-1"])
            assert (code, out) == (1, "")
            assert err == "turanweights: usage: vertex count must be nonnegative, got -1\n"


class TestWeights:
    def test_k4_minus_edge_human(self):
        code, out, _ = run_cli(["weights"], stdin_text=K4E_EDGELIST)
        assert code == 0
        rows = [line for line in out.splitlines() if line.startswith("  ") and "3/4" in line]
        assert len(rows) == 5
        assert "slack 1/4" in out

    def test_empty_graph(self):
        code, out, _ = run_cli(["weights"], stdin_text="?\n")
        assert code == 0 and "slack 0" in out

    def test_json_matches_library(self):
        code, out, _ = run_cli(["weights", "--format", "json"], stdin_text=K4E_EDGELIST)
        assert code == 0
        payload = json.loads(out)
        rep = payload["reports"][0]
        assert rep["total"] == "15/4" and rep["slack"] == "1/4" and rep["bound"] == "4"
        assert all(rec["r"] == 3 and rec["w"] == "3/4" for rec in rep["records"])

    def test_tsv(self):
        code, out, _ = run_cli(["weights", "--format", "tsv"], stdin_text=K4E_EDGELIST)
        lines = out.splitlines()
        assert code == 0
        assert sum(1 for line in lines if line.startswith("edge\t")) == 5
        assert lines[-1].startswith("summary\t1\t4\t5\t15/4\t4\t1/4")

    def test_multiple_graphs_in_order(self):
        text = "A_\n" + c5_graph6() + "\n"
        code, out, _ = run_cli(["weights", "--format", "json"], stdin_text=text)
        payload = json.loads(out)
        assert [r["n"] for r in payload["reports"]] == [2, 5]


class TestVerify:
    def test_ok(self):
        code, out, _ = run_cli(["verify"], stdin_text=c5_graph6())
        assert code == 0 and "slack=5/4" in out and "OK" in out

    def test_violation_exit_2(self, monkeypatch):
        import turanweights.cli as cli_mod

        def bomb(g):
            raise TheoremViolation("synthetic violation")

        monkeypatch.setattr(cli_mod, "weight_report", bomb)
        code, _, err = run_cli(["verify"], stdin_text="A_\n")
        assert code == 2 and "synthetic violation" in err


@pytest.fixture
def doubled_weights(monkeypatch):
    """Double every edge weight, so the n^2/4 bound fails on most graphs."""
    import turanweights.weights as weights_mod

    real = weights_mod.edge_weight
    monkeypatch.setattr(weights_mod, "edge_weight", lambda r: 2 * real(r))


@pytest.fixture
def inflated_stationary(monkeypatch):
    """Every clique's stationary value reads 1/3, so K_4's maximum exceeds 1/4."""
    import turanweights.lagrangian as lagrangian_mod

    monkeypatch.setattr(lagrangian_mod, "_clique_stationary", lambda scale, mat, clique: (
        lagrangian_mod.STATUS_INTERIOR, Fraction(1, 3), [Fraction(1, len(clique))] * len(clique)))


def violation_message(argv, stdin_text=""):
    """Run a command that must exit 2; return its JSON error message."""
    code, out, err = run_cli([*argv, "--format", "json"], stdin_text=stdin_text)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["kind"] == "invariant-violation"
    return error["message"]


class TestViolations:
    """Every proven invariant is an exit-2 check whose message names the graph."""

    K3 = write_graph6(complete_graph(3))

    @pytest.mark.parametrize("command", ["weights", "verify"])
    def test_weight_bound_per_graph(self, doubled_weights, command):
        # the edgeless first graph passes; the message names the second
        message = violation_message([command], stdin_text="B?\n" + self.K3 + "\n")
        assert message == f"total weight 9/2 exceeds bound 9/4 on graph {self.K3}"

    def test_weight_bound_fuzz(self, doubled_weights):
        message = violation_message(["fuzz", "--n", "4", "--p", "1", "--count", "2",
                                     "--seed", "0"])
        assert message == "total weight 8 exceeds bound 4 on graph C~"

    def test_weight_bound_sweep(self, doubled_weights):
        # mask 3 (edges 01 and 02) is the first 3-vertex graph over the bound
        g6 = write_graph6(graph_from_mask(3, 3))
        message = violation_message(["sweep", "--n", "3"])
        assert message == f"total weight 4 exceeds bound 9/4 on graph {g6}"

    def test_sweep_disagrees_with_weight_report(self, monkeypatch):
        import turanweights.sweep as sweep_mod

        real = sweep_mod.scaled_weights

        def inflated(rs):
            scale, table = real(rs)
            return scale, [2 * a for a in table]

        monkeypatch.setattr(sweep_mod, "scaled_weights", inflated)
        g6 = write_graph6(graph_from_mask(3, 3))
        message = violation_message(["sweep", "--n", "3"])
        assert message == f"sweep total disagrees with weight_report on graph {g6}"

    CHAIN = "simplex-maximum chain broken on C~: 1/4 <= 1/3 <= 1/4 fails"

    def test_fuzz_chain(self, inflated_stationary):
        message = violation_message(["fuzz", "--n", "4", "--p", "1", "--count", "1",
                                     "--seed", "0"])
        assert message == self.CHAIN

    def test_lagrangian_chain(self, inflated_stationary):
        code, out, err = run_cli(["lagrangian"], stdin_text="C~\n")
        assert (code, out) == (2, "")
        assert err == (f"turanweights: invariant-violation: {self.CHAIN}\n"
                       f"  command: turanweights lagrangian\n")
        code, out, err = run_cli(["lagrangian", "--format", "json"], stdin_text="C~\n")
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": {
            "kind": "invariant-violation", "message": self.CHAIN,
            "command": "turanweights lagrangian --format json"}}

    def test_campaign_edge_bound(self, monkeypatch):
        import turanweights.sweep as sweep_mod

        monkeypatch.setattr(sweep_mod, "turan_bound_check", lambda g, r: False)
        message = violation_message(["campaign", "--n", "4", "--r", "2", "--count", "1",
                                     "--seed", "0"])
        assert message.startswith("edge bound violated on subgraph ")
        assert message.endswith(" of T(4,2)")

    def test_reduce_decreasing_step(self, monkeypatch):
        import turanweights.lagrangian as lagrangian_mod

        real = lagrangian_mod._side
        monkeypatch.setattr(lagrangian_mod, "_side", lambda mat, xs, i: -real(mat, xs, i))
        # edge 01 plus isolated vertex 2: the first pair (0, 2) has s_0 = 1/3 > s_2 = 0,
        # so the negated sums move the mass of 0 onto 2 and f drops from 1/9 to 0
        g6 = write_graph6(from_edge_list(3, [(0, 1)]))
        message = violation_message(["reduce"], stdin_text=g6 + "\n")
        assert message == f"support reduction step 1 (0->2) decreased f on graph {g6}"

    def test_human_error_names_the_command(self, monkeypatch, tmp_path):
        import turanweights.lagrangian as lagrangian_mod

        real = lagrangian_mod._side
        monkeypatch.setattr(lagrangian_mod, "_side", lambda mat, xs, i: -real(mat, xs, i))
        g6 = write_graph6(from_edge_list(3, [(0, 1)]))
        path = tmp_path / "one edge.g6"
        path.write_text(g6 + "\n")
        code, out, err = run_cli(["reduce", "--mode", "constant:1", str(path)])
        assert (code, out) == (2, "")
        assert err == (f"turanweights: invariant-violation: support reduction step 1 (0->2) "
                       f"decreased f on graph {g6}\n"
                       f"  command: turanweights reduce --mode constant:1 '{path}'\n")


class TestLagrangian:
    def test_c5_constant_mode(self):
        code, out, _ = run_cli(
            ["lagrangian", "--mode", "constant:1", "--format", "json"],
            stdin_text=c5_graph6())
        payload = json.loads(out)
        assert payload["reports"][0]["maximum"] == "1/4"
        assert payload["scheme"] == {"mode": "constant", "constant": "1"}

    def test_clique_mode_default(self):
        code, out, _ = run_cli(["lagrangian", "--format", "json"], stdin_text="A_\n")
        payload = json.loads(out)
        assert payload["scheme"] == {"mode": "clique"}
        assert payload["reports"][0]["maximum"] == "1/4"
        assert payload["reports"][0]["witness"] == ["1/2", "1/2"]

    def test_ledger_flag(self):
        code, out, _ = run_cli(["lagrangian", "--ledger"], stdin_text="A_\n")
        assert code == 0 and "interior-solution" in out

    def test_bad_mode(self):
        code, _, err = run_cli(["lagrangian", "--mode", "nonsense"], stdin_text="A_\n")
        assert code == 1 and "mode" in err

    def test_candidate_cap_exit_1(self, monkeypatch):
        import turanweights.lagrangian

        monkeypatch.setattr(turanweights.lagrangian, "DEFAULT_CANDIDATE_CAP", 30)
        k5 = write_graph6(complete_graph(5)) + "\n"  # 31 cliques
        code, out, err = run_cli(["lagrangian", "--format", "json"], stdin_text=k5)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage",
                                             "message": "candidate cliques exceed the cap of 30"}}
        monkeypatch.setattr(turanweights.lagrangian, "DEFAULT_CANDIDATE_CAP", 31)
        assert run_cli(["lagrangian", "--format", "json"], stdin_text=k5)[0] == 0

    def test_k22_refused_by_default_cap(self):
        # about 4.2 million cliques; the default cap stops the enumeration
        k22 = write_graph6(complete_graph(22)) + "\n"
        code, out, err = run_cli(["lagrangian"], stdin_text=k22)
        assert (code, out) == (1, "")
        assert err == "turanweights: usage: candidate cliques exceed the cap of 250000\n"


class TestReduce:
    def test_path_uniform(self):
        code, out, _ = run_cli(["reduce", "--start", "uniform"],
                               stdin_text="3 2\n0 1\n1 2\n")
        assert code == 0
        assert "steps 1" in out
        assert "final 2/3,1/3,0" in out

    def test_explicit_start(self):
        code, out, _ = run_cli(
            ["reduce", "--start", "1/4,1/4,1/2", "--format", "json"],
            stdin_text="3 2\n0 1\n1 2\n")
        payload = json.loads(out)
        assert payload["reports"][0]["start"] == ["1/4", "1/4", "1/2"]
        assert sum(len(s) for s in payload["reports"][0]["final"]) > 0

    def test_dimension_mismatch_exit_1(self):
        code, _, err = run_cli(["reduce", "--start", "1/2,1/2"],
                               stdin_text="3 2\n0 1\n1 2\n")
        assert code == 1


class TestOracle:
    def test_path_grid4(self):
        code, out, _ = run_cli(["oracle", "--grid", "4", "--format", "json"],
                               stdin_text="3 2\n0 1\n1 2\n")
        payload = json.loads(out)
        assert payload["reports"][0]["value"] == "1/4"
        assert payload["resolution"] == 4

    def test_constant_mode(self):
        code, out, _ = run_cli(
            ["oracle", "--grid", "2", "--mode", "constant:1"], stdin_text="A_\n")
        assert code == 0 and "1/4" in out


class TestSweepCommand:
    def test_matches_library(self):
        code, out, _ = run_cli(["sweep", "--n", "4", "--format", "json"])
        payload = json.loads(out)
        stats = sweep_all_graphs(4)
        assert payload["stats"]["graphs_checked"] == stats.graphs_checked
        assert payload["stats"]["tight_count"] == stats.tight_count
        assert payload["stats"]["min_slack"] == str(stats.min_slack)
        assert payload["stats"]["tight_examples"] == list(stats.tight_examples)

    def test_cap_exit_1(self):
        code, _, err = run_cli(["sweep", "--n", "9"])
        assert code == 1

    def test_past_max_n_exit_1(self):
        message = ("n=10 exceeds 9, the largest n the labeled sweep runs: its orbit table "
                   "would hold 2^36 labels; larger n needs a sweep over isomorphism classes")
        code, out, err = run_cli(["sweep", "--n", "10", "--cap", "10"])
        assert (code, out, err) == (1, "", f"turanweights: usage: {message}\n")
        code, out, err = run_cli(["sweep", "--n", "10", "--cap", "10", "--format", "json"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage", "message": message}}

    def test_negative_tight_cap_exit_1(self):
        code, out, err = run_cli(["sweep", "--n", "3", "--tight-cap", "-1", "--format", "json"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "kind": "usage", "message": "tight-example cap must be nonnegative, got -1"}}

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_tight_cap_past_sys_maxsize(self, fmt):
        # any cap at or above the tight count prints what a cap of 1000 prints
        expected = run_cli(["sweep", "--n", "3", "--tight-cap", "1000", "--format", fmt])
        assert expected[0] == 0
        huge = run_cli(["sweep", "--n", "3", "--tight-cap", "99999999999999999999",
                        "--format", fmt])
        assert huge == expected

    @pytest.mark.parametrize("jobs", ["0", "-5"])
    def test_nonpositive_jobs_exit_1(self, jobs):
        message = f"job count must be >= 1, got {jobs}"
        code, out, err = run_cli(["sweep", "--n", "3", "--jobs", jobs])
        assert (code, out, err) == (1, "", f"turanweights: usage: {message}\n")
        code, out, err = run_cli(["sweep", "--n", "3", "--jobs", jobs, "--format", "json"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage", "message": message}}


class TestFuzzCommand:
    def test_empty_draws(self):
        code, out, _ = run_cli(
            ["fuzz", "--n", "10", "--p", "0", "--count", "2", "--seed", "1",
             "--format", "json"])
        payload = json.loads(out)
        assert payload["stats"]["min_slack"] == "25"
        assert payload["stats"]["graphs_checked"] == 2


class TestCampaignCommand:
    def test_basic(self):
        code, out, _ = run_cli(
            ["campaign", "--n", "6", "--r", "3", "--count", "5", "--seed", "1",
             "--format", "json"])
        payload = json.loads(out)
        assert code == 0 and payload["stats"]["violations"] == 0


class TestInputHandling:
    def test_autodetect_edge_list(self):
        code, out, _ = run_cli(["verify"], stdin_text="3 2\n0 1\n1 2\n")
        assert code == 0 and "n=3" in out

    def test_autodetect_graph6(self):
        code, out, _ = run_cli(["verify"], stdin_text="A_\n")
        assert code == 0 and "n=2" in out

    def test_format_override(self):
        # force graph6 parsing of something that looks like an edge list
        code, _, err = run_cli(["verify", "--input-format", "graph6"],
                               stdin_text="3 2\n0 1\n1 2\n")
        assert code == 1

    def test_parse_error_carries_line_number(self):
        code, _, err = run_cli(["verify"], stdin_text="A_\n\x21bad\n")
        assert code == 1 and "line 2" in err

    def test_file_input(self, tmp_path):
        path = tmp_path / "g.el"
        path.write_text(K4E_EDGELIST)
        code, out, _ = run_cli(["weights", str(path)])
        assert code == 0 and "slack 1/4" in out

    def test_missing_file(self):
        code, _, err = run_cli(["weights", "/nonexistent/graph.g6"])
        assert code == 1

    def test_empty_input(self):
        code, _, err = run_cli(["verify"], stdin_text="")
        assert code == 1 and "no graphs" in err

    def test_sparse_lagrangian_builds_no_square_matrix(self, tmp_path):
        # 4000 vertices with one edge: a zero row per isolated vertex would
        # hold 16 million list slots, about 128 MB
        code, out, _, peak_kb = run_cli_measured(tmp_path, ["lagrangian"], "4000 1\n0 1\n")
        lines = out.splitlines()
        assert code == 0
        assert lines[:2] == ["graph 1: maximum 1/4", "  support 0,1"]
        assert lines[3] == "  candidates 4001"
        assert peak_kb < 40 * 1024

    def test_edge_list_header_refused_before_allocating(self, tmp_path):
        # one vertex over the limit; accepting it would cost about 94 MB
        code, out, err, peak_kb = run_cli_measured(tmp_path, ["verify"], "5000001 0\n")
        assert (code, out) == (1, "")
        assert err == "turanweights: usage: input too large to hold in memory\n"
        assert peak_kb < 40 * 1024

    def test_million_vertex_edge_list_verifies(self):
        # the per-row range check must not build an n-bit mask for each of n rows
        result = subprocess.run([sys.executable, "-m", "turanweights", "verify"],
                                input="1000000 0\n", capture_output=True, text=True,
                                timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert "n=1000000 slack=250000000000" in result.stdout

    def test_million_vertex_edgeless_lagrangian_refused_in_seconds(self):
        # the enumeration's top level loops over the vertices: peeling them one
        # bit at a time off the set of all 10^6 took about 24 s to reach the cap
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "turanweights", "lagrangian"],
                                input="1000000 0\n", capture_output=True, text=True,
                                timeout=60)
        wall = time.perf_counter() - start
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "turanweights: usage: candidate cliques exceed the cap of 250000\n"
        assert wall < 5

    @pytest.mark.parametrize("n, step, bound", [(4000, 1001, 5), (5000000, 1, 20)])
    def test_sparse_reduce_refused_at_the_trace_cap(self, n, step, bound):
        # one edge, uniform start: about n steps, each holding an n-coordinate
        # point.  At 4000 vertices that took 1.3 s and 141 MB (14 s and 1.5 GB
        # as JSON); at 5,000,000 the support mask alone, ORed one bit at a
        # time, took about 160 s before the first step
        start = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "turanweights", "reduce"],
                                input=f"{n} 1\n0 1\n", capture_output=True, text=True,
                                timeout=60)
        wall = time.perf_counter() - start
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (f"turanweights: usage: support reduction on {n} vertices "
                                 f"exceeds the cap of 4000000 point coordinates at step {step}\n")
        assert wall < bound

    def test_sparse_reduce_under_the_trace_cap_runs(self):
        # 1,998 steps on 2,000 vertices: 3,996,000 coordinates, under the cap
        result = subprocess.run([sys.executable, "-m", "turanweights", "reduce"],
                                input="2000 1\n0 1\n", capture_output=True, text=True,
                                timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout.startswith("graph 1: steps 1998\n")

    def test_json_output_held_in_two_copies(self, tmp_path):
        # 1000 vertices and one edge: 998 reduction steps, each with its
        # 1000-coordinate point, about 19.6 MB of JSON.  Beyond human output's
        # peak, the output is held as its joined text and, as it is written,
        # its encoded bytes; holding the reports' texts, the spliced array and
        # the envelope's text at once took 4 copies or more
        text = "1000 1\n0 1\n"
        code, out, _, json_kb = run_cli_measured(tmp_path, ["reduce", "--format", "json"], text)
        assert code == 0 and len(json.loads(out)["reports"][0]["steps"]) == 998
        code, _, _, human_kb = run_cli_measured(tmp_path, ["reduce"], text)
        assert code == 0
        assert (json_kb - human_kb) * 1024 < 2.5 * len(out)

    def test_oversized_edge_list_header(self):
        code, out, err = run_cli(["verify"], stdin_text="1000000000000000 0\n")
        assert (code, out) == (1, "")
        assert err == "turanweights: usage: input too large to hold in memory\n"

    @pytest.mark.parametrize("stdin_text", ["3 -1\n", "3 -1\n0 1\n", "0 -5\n"],
                             ids=["no-pairs", "one-pair", "null-graph"])
    def test_negative_edge_count_named(self, stdin_text):
        # the count is refused by name, not as a mismatch with the tokens read
        m = stdin_text.split()[1]
        assert run_cli(["verify"], stdin_text=stdin_text) == (
            1, "", f"turanweights: usage: edge count must be nonnegative, got {m}\n")
        code, out, err = run_cli(["verify", "--format", "json"], stdin_text=stdin_text)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "kind": "usage", "message": f"edge count must be nonnegative, got {m}"}}

    def test_oversized_edge_list_header_json(self):
        code, out, err = run_cli(["verify", "--format", "json"],
                                 stdin_text="1000000000000000 0\n")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage",
                                             "message": "input too large to hold in memory"}}


BIG = "100000000000000000000"  # 10^20: no sequence of that length can be indexed
TOO_LARGE = "turanweights: usage: input too large to hold in memory\n"
TOO_DEEP = "turanweights: usage: graph's cliques are too deep to search\n"


def run_cli_child(argv, stdin_text=""):
    """(exit code, stdout, stderr) of ``turanweights argv`` in a child process,
    which a hang fails by its timeout instead of stalling the suite."""
    result = subprocess.run([sys.executable, "-m", "turanweights", *argv], input=stdin_text,
                            capture_output=True, text=True, timeout=20)
    return result.returncode, result.stdout, result.stderr


class TestExponentRefused:
    """Fraction reads 1eN as 10**N and computes it before anything can check N."""

    @pytest.mark.parametrize("argv, stdin_text, rational", [
        (["gen", "gnp", "3", "1e-99999999"], "", "1e-99999999"),
        (["gen", "gnp", "3", "1e-3000000"], "", "1e-3000000"),
        (["lagrangian", "--mode", "constant:1e99999999"], "A_\n", "1e99999999"),
        (["oracle", "--grid", "2", "--mode", "constant:1E99999999"], "A_\n", "1E99999999"),
        (["fuzz", "--n", "3", "--p", "1e-99999999", "--count", "1", "--seed", "1"], "",
         "1e-99999999"),
        (["reduce", "--start", "1e-99999999,1"], "A_\n", "1e-99999999"),
    ], ids=["gen-gnp", "gen-gnp-3000000", "lagrangian-mode", "oracle-mode", "fuzz-p",
            "reduce-start"])
    def test_exits_1_at_once(self, argv, stdin_text, rational):
        assert run_cli_child(argv, stdin_text) == (
            1, "", f"turanweights: usage: invalid rational {rational!r}; expected p or p/q\n")

    def test_json_error(self):
        code, out, err = run_cli(["fuzz", "--n", "3", "--p", "1E2", "--count", "1",
                                  "--seed", "1", "--format", "json"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {
            "kind": "usage", "message": "invalid rational '1E2'; expected p or p/q"}}

    def test_p_q_and_decimals_still_parse(self):
        code, out, _ = run_cli(["fuzz", "--n", "4", "--p", "0.5", "--count", "1",
                                "--seed", "1", "--format", "json"])
        assert code == 0 and json.loads(out)["params"]["p"] == "1/2"
        assert run_cli(["gen", "gnp", "6", "0.25", "--seed", "3"]) == \
            run_cli(["gen", "gnp", "6", "1/4", "--seed", "3"])
        code, out, _ = run_cli(["reduce", "--start", "0.75,1/4"], stdin_text="A_\n")
        assert code == 0 and "final 3/4,1/4" in out


class TestOversizedArguments:
    @pytest.mark.parametrize("argv", [
        ["gen", "empty", BIG],
        ["gen", "complete", BIG],
        ["gen", "cycle", BIG],
        ["gen", "turan", "5", BIG],
        ["gen", "turan", BIG, "2"],
        ["campaign", "--n", "5", "--r", BIG, "--count", "1", "--seed", "1"],
    ], ids=["empty", "complete", "cycle", "turan-r", "turan-n", "campaign-r"])
    def test_overflow_is_too_large(self, argv):
        assert run_cli(argv) == (1, "", TOO_LARGE)

    def test_overflow_json(self):
        code, out, err = run_cli(["fuzz", "--n", BIG, "--p", "1/2", "--count", "1",
                                  "--seed", "1", "--format", "json"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage",
                                             "message": "input too large to hold in memory"}}

    def test_deep_cliques_json(self):
        # K_1000: the search for an edge's clique number recurses past the limit
        code, out, err = run_cli(["verify", "--format", "json"],
                                 stdin_text=write_graph6(complete_graph(1000)) + "\n")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage",
                                             "message": "graph's cliques are too deep to search"}}

    def test_grid_over_cap_refused_at_once(self):
        # C(4000000, 1000000) has about 560,000 digits: the count stops past the cap
        assert run_cli_child(["oracle", "--grid", "1000000"], "3000001 0\n") == (
            1, "", "turanweights: usage: grid points at resolution 1000000 on 3000001 vertices "
            "exceed the cap of 5000000\n")

    def test_grid_over_cap_json(self):
        code, out, err = run_cli_child(["oracle", "--grid", "300000", "--format", "json"],
                                       "1001 0\n")
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": {"kind": "usage", "message": (
            "grid points at resolution 300000 on 1001 vertices exceed the cap of 5000000")}}

    @pytest.mark.parametrize("argv", [["lagrangian"], ["reduce"], ["oracle", "--grid", "2"]],
                             ids=["lagrangian", "reduce", "oracle"])
    def test_deep_cliques(self, argv):
        assert run_cli(argv, write_graph6(complete_graph(1100)) + "\n") == (1, "", TOO_DEEP)


class TestImport:
    def test_cli_import_leaves_numpy_unloaded(self):
        # numpy is most of the import time and only the grid oracle needs it
        code = "import sys, turanweights.cli; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True)
        assert result.stdout == "False\n"

    def test_cli_import_skips_slow_stdlib_modules(self):
        # each costs start-up time on every call; -S keeps site's .pth files,
        # which may load typing themselves, out of the child
        src = str(Path(turanweights.__file__).resolve().parents[1])
        code = (f"import sys; sys.path.insert(0, {src!r}); import turanweights.cli; "
                "print(sorted({'dataclasses', 'inspect', 'pathlib', 'typing'} & set(sys.modules)))")
        result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                                text=True, check=True)
        assert result.stdout == "[]\n"

    def test_cli_import_adds_no_dataclasses_or_inspect(self):
        # with site: whatever site loaded is not counted, only what the import adds
        code = ("import sys; before = set(sys.modules); import turanweights.cli; "
                "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True)
        assert result.stdout == "[]\n"

    def test_grid_oracle_leaves_numpy_unloaded(self):
        code = ("import sys; from turanweights.cli import main; "
                "sys.exit(main(['oracle', '--grid', '3']) or 'numpy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], input="4 3\n0 1\n1 2\n2 3\n",
                                capture_output=True, text=True, timeout=60)
        assert (result.returncode, result.stderr) == (0, "")
        assert result.stdout == "graph 1: grid maximum 2/9 (resolution 3)\n"


# strings that json escapes: backslash and quote (graph6 lines may hold a
# backslash), control characters, DEL, and characters outside ASCII
SPECIAL_TEXT = st.text(alphabet=st.sampled_from('\\"\x00\x08\t\n\x1f\x7f~ \u00e9\u2028\U0001f600aZ'))
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), st.fractions(), st.text(),
                   SPECIAL_TEXT)
SIMPLEX_POINTS = st.lists(st.integers(0, 9), max_size=5).filter(lambda xs: not xs or sum(xs)).map(
    lambda xs: SimplexPoint([Fraction(x, sum(xs)) for x in xs]))


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=4),
        st.dictionaries(st.one_of(st.text(), SPECIAL_TEXT), children, max_size=4),
        st.builds(EdgeWeightRecord, children, children, children, children),
        st.builds(CliqueCandidate, children, children, children),
        st.builds(LagrangianOutcome, children, children, children, children),
        st.builds(ReductionStep, *[children] * 7),
        st.builds(SweepStats, *[children] * 7),
    )


LIBRARY_VALUES = st.recursive(
    st.one_of(LEAVES, SIMPLEX_POINTS,
              st.sets(st.integers(0, 40), max_size=6).map(lambda vs: CliqueSet(sorted(vs))),
              st.fractions().filter(lambda c: c > 0).map(WeightScheme.constant)),
    _containers, max_leaves=30)


class TestJsonWriter:
    @given(LIBRARY_VALUES)
    @example(Fraction(0))
    @example(Fraction(-7, 3))
    @example(CliqueSet(()))
    @example(SimplexPoint(()))
    @example(((), [], {}, None, True, False))
    @example({"b": CliqueCandidate(CliqueSet((0,)), "interior-solution", Fraction(0)),
              "a": [CliqueCandidate(CliqueSet((0, 1)), "singular-skipped", None)]})
    @example("a\\b\"c\x01\u00e9")
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps_of_the_plain_form(self, value):
        assert _json(value) == json.dumps(reference_plain(value), sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [1.5, {1, 2}, b"C~", object(), (Fraction(1), 0.5),
                                       {"k": [frozenset()]}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            _json(value)


class _CountingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# every command that takes --format; the per-graph ones read three graphs
FORMAT_COMMANDS = {
    "weights": ["weights"],
    "verify": ["verify"],
    "lagrangian": ["lagrangian", "--ledger"],
    "reduce": ["reduce"],
    "oracle": ["oracle", "--grid", "3"],
    "sweep": ["sweep", "--n", "4"],
    "fuzz": ["fuzz", "--n", "5", "--p", "1/2", "--count", "3", "--seed", "1"],
    "campaign": ["campaign", "--n", "6", "--r", "3", "--count", "3", "--seed", "1"],
}


class TestOneWrite:
    @pytest.mark.parametrize("fmt", ["human", "tsv", "json"])
    @pytest.mark.parametrize("command", sorted(FORMAT_COMMANDS))
    def test_writes_stdout_once(self, monkeypatch, command, fmt):
        out = _CountingStdout()
        monkeypatch.setattr(sys, "stdin", io.StringIO("A_\nDzC\n" + c5_graph6() + "\n"))
        monkeypatch.setattr(sys, "stdout", out)
        assert main([*FORMAT_COMMANDS[command], "--format", fmt]) == 0
        assert out.writes == 1 and out.getvalue()
        if fmt == "json":
            assert json.loads(out.getvalue())["command"] == command


class TestErrorsAndHelp:
    def test_error_json(self):
        # a malformed line is a runtime error, not a usage error: it is JSON
        # exactly when argv asks for --format json, however that is spelled
        message = "line 1: character out of graph6 range (63..126)"
        for spelling in (["--format", "json"], ["--format=json"], ["--form", "json"],
                         ["--f", "json"]):
            code, out, err = run_cli(["verify", *spelling], stdin_text="\x21bad\n")
            assert (code, out) == (1, "")
            assert json.loads(err) == {"error": {"kind": "usage", "message": message}}
        assert run_cli(["verify"], stdin_text="\x21bad\n") == (
            1, "", f"turanweights: usage: {message}\n")

    def test_help_exits_zero(self):
        code, out, _ = run_cli(["--help"])
        assert code == 0

    def test_unknown_command_exits_one(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_no_command_exits_one(self):
        code, _, _ = run_cli([])
        assert code == 1

    def test_human_usage_error_keeps_argparse_text(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
        code, out, err = run_cli(["sweep", "--n", "x"])
        assert (code, out) == (1, "")
        assert err == (
            "usage: turanweights sweep [-h] --n N [--jobs JOBS] [--cap CAP]\n"
            "                          [--tight-cap TIGHT_CAP] [--format {human,tsv,json}]\n"
            "turanweights sweep: error: argument --n: invalid int value: 'x'\n")

    def test_reader_closing_early_is_silent(self):
        # `turanweights lagrangian --format json | head -2`, with a reader that
        # closes before anything is written, so every write hits a broken pipe
        proc = subprocess.Popen(
            [sys.executable, "-m", "turanweights", "lagrangian", "--format", "json"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        _, err = proc.communicate(write_graph6(turan_graph(8, 3)).encode() + b"\n")
        assert (proc.returncode, err) == (1, b"")
