"""Every module of the package uses each name it imports.

An import that nothing uses still runs at every command's start-up.  Exempt:
``from __future__ import annotations``, the names ``__init__`` exports in
``__all__``, and imports marked ``# noqa: F401`` (kept for code outside the
package that looks the name up on the module).
"""

import ast
from pathlib import Path

import pytest

import turanweights

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
