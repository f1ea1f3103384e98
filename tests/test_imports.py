"""Every name a package module imports is used in that module.

No linter ships with the toolchain, so this stdlib-``ast`` check keeps
removals from leaving orphan imports behind.  ``__init__.py`` imports
to re-export and ``__future__`` imports are compiler directives, so
both are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "schubcalc"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert {p.name for p in modules} >= {"chow.py", "cli.py", "core.py", "search.py"}
    unused = {p.name: unused_imports(p.read_text()) for p in modules}
    assert unused == {p.name: [] for p in modules}


def test_an_orphan_import_is_caught():
    source = "from __future__ import annotations\nimport os\nfrom math import comb, gcd\ngcd(4, 6)\n"
    assert unused_imports(source) == ["comb (line 3)", "os (line 2)"]
