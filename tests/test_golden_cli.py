"""Every subcommand's stdout, stderr and exit code, pinned byte for byte.

The expected outputs live in ``golden_cli.json`` beside this file.  After a
deliberate output change, rewrite them with ``python tests/test_golden_cli.py``
and review the diff of the data file.
"""

import json
import sys
from pathlib import Path

import pytest

import turanweights.weights as weights_mod
from test_cli import run_cli

GOLDEN = Path(__file__).with_name("golden_cli.json")

# graph6 lines for n = 0, 1, 2, 5 (two triangles sharing an edge, plus a
# pendant edge) and 6 (the tight Turan graph T(6,3))
MULTI = "?\n@\nA_\nDzC\nE]~o\n"
MULTI_NONEMPTY = "@\nA_\nDzC\nE]~o\n"
K4E = "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"
FORMATS = ("human", "tsv", "json")


def _each_format(argv, stdin=""):
    return [(argv + ["--format", fmt], stdin) for fmt in FORMATS]


CASES = [
    (["gen", "turan", "6", "3"], ""),
    (["gen", "complete", "4"], ""),
    (["gen", "empty", "3"], ""),
    (["gen", "cycle", "5"], ""),
    (["gen", "gnp", "8", "1/2", "--seed", "3"], ""),
    (["gen", "cycle", "2"], ""),
    *_each_format(["weights"], MULTI),
    *_each_format(["weights"], K4E),
    *_each_format(["verify"], MULTI),
    *_each_format(["verify"], K4E),
    *_each_format(["lagrangian"], MULTI),
    *_each_format(["lagrangian", "--ledger"], MULTI),
    *_each_format(["lagrangian", "--mode", "constant:3/2"], K4E),
    *_each_format(["reduce"], MULTI_NONEMPTY),
    *_each_format(["reduce", "--start", "1/2,1/4,1/8,1/8"], K4E),
    *_each_format(["reduce", "--start", "1/2,1/2"], K4E),
    *_each_format(["reduce"], MULTI),
    *_each_format(["reduce"], "A_\n?\n"),
    *_each_format(["oracle", "--grid", "4"], MULTI),
    *_each_format(["oracle", "--grid", "3", "--mode", "constant:1"], K4E),
    *_each_format(["sweep", "--n", "5", "--tight-cap", "3"]),
    *_each_format(["fuzz", "--n", "5", "--p", "1", "--count", "3", "--seed", "7"]),
    *_each_format(["fuzz", "--n", "6", "--p", "1/2", "--count", "4", "--seed", "2"]),
    *_each_format(["campaign", "--n", "6", "--r", "3", "--count", "5", "--seed", "1"]),
    *_each_format(["campaign", "--n", "2", "--r", "2", "--count", "4", "--seed", "1"]),
    *_each_format(["verify"], "A_\n\x21bad\n"),
    *_each_format(["lagrangian", "--mode", "nonsense"], K4E),
]


def _case_id(argv, stdin):
    source = {MULTI: "multi", MULTI_NONEMPTY: "multi-nonempty", K4E: "k4e", "": "none"}
    return " ".join(argv) + " < " + source.get(stdin, repr(stdin))


def _run(argv, stdin):
    code, out, err = run_cli(argv, stdin_text=stdin)
    return {"code": code, "stdout": out, "stderr": err}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("argv,stdin", CASES, ids=[_case_id(*c) for c in CASES])
def test_output_matches_recording(golden, argv, stdin):
    assert _run(argv, stdin) == golden[_case_id(argv, stdin)]


# commands that read only a report's totals: none may build a per-edge record
TOTALS_ONLY = [
    *_each_format(["verify"], MULTI),
    *_each_format(["fuzz", "--n", "6", "--p", "1/2", "--count", "4", "--seed", "2"]),
    *_each_format(["sweep", "--n", "5", "--tight-cap", "3"]),
]


def _no_records(*args):
    raise AssertionError("per-edge record built")


@pytest.mark.parametrize("argv,stdin", TOTALS_ONLY, ids=[_case_id(*c) for c in TOTALS_ONLY])
def test_totals_only_commands_build_no_records(golden, monkeypatch, argv, stdin):
    monkeypatch.setattr(weights_mod, "EdgeWeightRecord", _no_records)
    with pytest.raises(AssertionError, match="per-edge record built"):
        _run(["weights"], MULTI)
    expected = golden[_case_id(argv, stdin)]
    assert expected["code"] == 0
    assert _run(argv, stdin) == expected


def test_recording_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(_case_id(*c) for c in CASES)


if __name__ == "__main__":
    recorded = {_case_id(*c): _run(*c) for c in CASES}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {GOLDEN}", file=sys.stderr)
