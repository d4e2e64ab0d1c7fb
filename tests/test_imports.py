"""Every top-level import of the package and of the tests is used in its file."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/absorb/*.py")) + sorted(ROOT.glob("tests/*.py"))
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def top_level_imports(tree):
    """(bound name, line) of each import outside every function and class,
    in if, try and with blocks too; `from __future__` binds nothing."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif not isinstance(node, SCOPES):
            for field in ("body", "orelse", "finalbody", "handlers"):
                stack.extend(getattr(node, field, ()))


def used_names(tree):
    """The names the file reads, plus every word of its strings other than
    docstrings: annotations kept as strings and the lazy export table name
    what they use only there."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module,) + SCOPES) and ast.get_docstring(node, clean=False) is not None
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            names.update(re.findall(r"\w+", node.value))
    return names


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [(line, name) for name, line in top_level_imports(tree) if name not in used]
    assert not unused, "unused imports (line, name): %s" % sorted(unused)


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        '"""Docs name os."""\nimport os\nimport os.path as p\nfrom x import (y, z)\n'
        'if True:\n    import json\n\ndef f():\n    import re\n    return y, "z"\n'
    )
    used = used_names(tree)
    assert sorted(name for name, _ in top_level_imports(tree) if name not in used) == ["json", "os", "p"]
