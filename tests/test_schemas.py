"""Every JSON output of the CLI validates against its shipped schema."""

import json
from importlib import resources

import jsonschema
import pytest

from test_cli import run_cli

EDGELIST = "4 5\n0 1\n0 2\n0 3\n1 2\n1 3\n"


def load_schema(name):
    text = resources.files("turanweights").joinpath(f"schemas/{name}.schema.json").read_text()
    schema = json.loads(text)
    jsonschema.Draft202012Validator.check_schema(schema)
    return schema


CASES = [
    ("weights", ["weights", "--format", "json"], EDGELIST),
    ("verify", ["verify", "--format", "json"], EDGELIST),
    ("lagrangian", ["lagrangian", "--format", "json"], EDGELIST),
    ("lagrangian", ["lagrangian", "--mode", "constant:3/2", "--format", "json"], EDGELIST),
    ("reduce", ["reduce", "--start", "uniform", "--format", "json"], EDGELIST),
    ("oracle", ["oracle", "--grid", "5", "--format", "json"], EDGELIST),
    ("campaign", ["sweep", "--n", "3", "--format", "json"], ""),
    ("campaign", ["fuzz", "--n", "6", "--p", "1/2", "--count", "3", "--seed", "2",
                  "--format", "json"], ""),
    ("campaign", ["campaign", "--n", "6", "--r", "2", "--count", "3", "--seed", "2",
                  "--format", "json"], ""),
]


@pytest.mark.parametrize("schema_name,argv,stdin_text", CASES)
def test_output_validates(schema_name, argv, stdin_text):
    code, out, _ = run_cli(argv, stdin_text=stdin_text)
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, load_schema(schema_name))


@pytest.mark.parametrize("schema_name,argv,stdin_text", CASES)
def test_output_is_stable_key_ordered(schema_name, argv, stdin_text):
    code, out, _ = run_cli(argv, stdin_text=stdin_text)
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def test_error_payload_validates():
    code, _, err = run_cli(["verify", "--format", "json"], stdin_text="\x21bad\n")
    assert code == 1
    jsonschema.validate(json.loads(err), load_schema("error"))


@pytest.mark.parametrize("argv,message", [
    (["sweep", "--format", "json"], "the following arguments are required: --n"),
    (["sweep", "--n", "x", "--format", "json"], "argument --n: invalid int value: 'x'"),
    (["lagrangian", "--format", "json", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_argparse_error_payload_validates(argv, message):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    payload = json.loads(err)
    jsonschema.validate(payload, load_schema("error"))
    assert payload == {"error": {"kind": "usage", "message": message}}


def test_violation_payload_names_the_command(monkeypatch):
    import turanweights.lagrangian as lagrangian_mod

    real = lagrangian_mod._side
    monkeypatch.setattr(lagrangian_mod, "_side", lambda mat, xs, i: -real(mat, xs, i))
    argv = ["reduce", "--start", "1/3,1/3,1/3", "--format", "json"]
    code, out, err = run_cli(argv, stdin_text="3 1\n0 1\n")
    assert (code, out) == (2, "")
    payload = json.loads(err)
    jsonschema.validate(payload, load_schema("error"))
    assert payload["error"]["kind"] == "invariant-violation"
    assert payload["error"]["command"] == "turanweights reduce --start 1/3,1/3,1/3 --format json"


def test_all_shipped_schemas_are_valid():
    names = ["weights", "verify", "lagrangian", "reduce", "campaign", "oracle", "error"]
    for name in names:
        load_schema(name)
