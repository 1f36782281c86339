"""No module of the package, the tests or the demos imports a name it never reads.

A stdlib ``ast`` check, so it runs wherever the tests do.  An import line
marked ``noqa`` is exempt (one that is kept for another module to patch).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for p in (ROOT / "src" / "irs_ssm").glob("*.py") if p.name != "__init__.py")
FILES += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, as 'line: name'."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [(a, a.asname or a.name) for a in node.names]
        else:
            continue
        for alias, bound in names:
            if "noqa" not in lines[alias.lineno - 1]:
                imported.setdefault(bound, alias.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport sys  # noqa\nfrom math import pi, tau\nfrom a.b import c as d\nprint(tau)\n"
    assert unused_imports(source) == ["1: os", "3: pi", "4: d"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
