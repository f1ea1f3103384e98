"""Import hygiene: no orphan imports, and no heavy module on the import path.

No linter ships with the toolchain, so a stdlib-``ast`` check keeps
removals from leaving orphan imports behind.  ``__init__.py`` imports
to re-export and ``__future__`` imports are compiler directives, so
both are exempt.

Every CLI call pays for ``import schubcalc``, so a fresh interpreter
checks which modules the import loads beyond those of start-up.
"""

import ast
import subprocess
import sys
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


def modules_loaded_by(statement: str) -> set[str]:
    """Modules a fresh interpreter loads running ``statement``, beyond those of start-up."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); before = set(sys.modules)\n"
        f"{statement}\nprint(*sorted(set(sys.modules) - before))"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(run.stdout.split())


def test_cli_import_skips_dataclasses_and_inspect():
    loaded = modules_loaded_by("import schubcalc.cli")
    assert "schubcalc.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_package_import_loads_every_module():
    loaded = modules_loaded_by("import schubcalc")
    modules = {"core", "chow", "search", "schur", "morphisms"}
    assert {f"schubcalc.{m}" for m in modules} <= loaded
