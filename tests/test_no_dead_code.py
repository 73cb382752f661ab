"""Every top-level function and class of the package has a caller.

A definition counts as called when its name appears as a word somewhere in
the package outside its own definition, or anywhere in scripts/ or
benchmark/. Tests do not count: code that only tests reach is dead.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "selfverify"
CALLERS = (ROOT / "scripts", ROOT / "benchmark")


def uncalled_definitions(package: Path = PACKAGE, callers: tuple[Path, ...] = CALLERS) -> list[str]:
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    outside = "\n".join(path.read_text(encoding="utf-8")
                        for folder in callers for path in sorted(folder.rglob("*.py")))
    dead = []
    for path, source in sources.items():
        lines = source.splitlines(keepends=True)
        rest = "".join(text for other, text in sources.items() if other != path) + outside
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)]) - 1
            elsewhere = "".join(lines[:first] + lines[node.end_lineno:]) + rest
            if not re.search(rf"\b{re.escape(node.name)}\b", elsewhere):
                dead.append(f"{path.name}: {node.name}")
    return dead


def test_every_definition_has_a_caller():
    assert uncalled_definitions() == []


def test_scan_names_what_only_its_own_definition_mentions(tmp_path):
    package, scripts = tmp_path / "pkg", tmp_path / "scripts"
    package.mkdir()
    scripts.mkdir()
    (package / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n\n"
        "@functools.cache\ndef decorated():\n    pass\n\n\n"
        "class Orphan:\n    pass\n\n\n"
        "def scripted():\n    pass\n",
        encoding="utf-8",
    )
    (package / "b.py").write_text("from a import used\n\nused()\n", encoding="utf-8")
    (scripts / "run.py").write_text("from pkg.a import scripted\n", encoding="utf-8")
    assert uncalled_definitions(package, (scripts,)) == ["a.py: recursive", "a.py: decorated", "a.py: Orphan"]
