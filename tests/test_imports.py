"""Every module of the package uses each name it imports, and each command
loads only the modules it calls.

An import that nothing uses still runs at every command's start-up.  Exempt:
``from __future__ import annotations``, the names ``__init__`` exports in
``__all__``, and imports marked ``# noqa: F401`` (kept for code outside the
package that looks the name up on the module).  The names that ``__init__``
and ``cli`` bind on first use are held to the same rules through their
tables.
"""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import turanweights
from turanweights import cli

PACKAGE = Path(turanweights.__file__).parent


def unused_imports(source: str, exempt=frozenset()) -> list[str]:
    """Names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used and name not in exempt]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_import(path):
    exempt = frozenset(turanweights.__all__) if path.name == "__init__.py" else frozenset()
    assert unused_imports(path.read_text(), exempt) == []


def test_the_check_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "from math import comb, lcm\n"
        "from .cliques import edge_clique_number  # noqa: F401 -- looked up by name\n"
        "from .graphs import (\n"
        "    Graph,  # noqa: F401\n"
        ")\n"
        "def f(x: Fraction) -> int:\n"
        "    from fractions import Fraction\n"
        "    import shlex\n"
        "    return lcm(x, 2)\n"
    )
    assert unused_imports(source) == ["os", "osp", "comb", "shlex"]
    assert unused_imports(source, exempt=frozenset({"os", "comb"})) == ["osp", "shlex"]


# each command's argv and stdin, and the modules of the package it loads:
# every command loads cli and the per-graph core, and only the commands
# that call lagrangian (with linsolve) or sweep load those
CORE = ["cli", "cliques", "graphs", "weights"]
LAGRANGIAN = sorted([*CORE, "lagrangian", "linsolve"])
SWEEP = sorted([*CORE, "sweep"])
LOADED = {
    "help": (["--help"], "", CORE),
    "gen": (["gen", "complete", "3"], "", CORE),
    "verify": (["verify"], "A_\nBw\n", CORE),
    "weights": (["weights"], "A_\n", CORE),
    "lagrangian": (["lagrangian"], "A_\nBw\n", LAGRANGIAN),
    "reduce": (["reduce"], "A_\n", LAGRANGIAN),
    "oracle": (["oracle", "--grid", "2"], "A_\n", LAGRANGIAN),
    "sweep": (["sweep", "--n", "4"], "", SWEEP),
    "campaign": (["campaign", "--n", "4", "--r", "2", "--count", "2", "--seed", "0"], "", SWEEP),
    "fuzz-above-lagrangian-cap": (
        ["fuzz", "--n", "20", "--p", "1/2", "--count", "1", "--seed", "0"], "", SWEEP),
    "fuzz-chain": (["fuzz", "--n", "5", "--p", "1/2", "--count", "2", "--seed", "0"], "",
                   sorted([*SWEEP, "lagrangian", "linsolve"])),
}


def _loaded_modules(code, *argv, stdin_text=""):
    """The package's modules that ``code`` loads in a fresh interpreter, as
    it prints them on its last stderr line."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code, *argv], input=stdin_text, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stderr.splitlines()[-1])


REPORT = ("print(json.dumps(sorted(m.split('.')[1] for m in sys.modules "
          "if m.startswith('turanweights.'))), file=sys.stderr)")


def test_package_import_loads_no_module():
    assert _loaded_modules(f"import json, sys, turanweights\n{REPORT}") == []


@pytest.mark.parametrize("command", sorted(LOADED))
def test_each_command_loads_only_the_modules_it_calls(command):
    argv, stdin_text, modules = LOADED[command]
    code = (f"import json, sys\nfrom turanweights import cli\n"
            f"assert cli.main(sys.argv[1:]) == 0\n{REPORT}")
    assert _loaded_modules(code, *argv, stdin_text=stdin_text) == modules


def test_lazy_tables_name_names_their_modules_define():
    tables = {"__init__": turanweights._LAZY.items(),
              "cli": [(name, module) for module, names in cli._DEFERRED.items()
                      for name in names]}
    missing = [(table, name, module) for table, pairs in tables.items()
               for name, module in pairs
               if not hasattr(import_module(f"turanweights.{module}"), name)]
    assert missing == []
    assert sorted(turanweights.__all__) == sorted(turanweights._LAZY)


def test_every_export_is_its_modules_own_object():
    # in a fresh interpreter, so that no test's patch of a module is what
    # the package bound on first use
    code = (
        "import importlib, turanweights\n"
        "wrong = [name for name in turanweights.__all__\n"
        "         if getattr(turanweights, name) is not getattr(importlib.import_module(\n"
        "             'turanweights.' + turanweights._LAZY[name]), name)\n"
        "         or name not in dir(turanweights)]\n"
        "print(wrong)\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    assert result.stdout == "[]\n"


def test_every_deferred_cli_name_is_read():
    # the rule test_no_unused_import holds the import statements to
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for names in cli._DEFERRED.values() for name in names
            if name not in used] == []
