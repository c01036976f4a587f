"""hhalg modules reach each other only through public names."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hhalg"


def private_imports(tree):
    """(line, module, name) for each `_`-prefixed name imported from hhalg."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("hhalg"):
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append((node.lineno, node.module or ".", alias.name))
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    assert private_imports(ast.parse(path.read_text())) == []


def test_private_import_detector_flags_offenders():
    code = ("from .resolve import AModule, _Span\n"
            "from hhalg.base import _slice_keys\n"
            "from __future__ import annotations\n"
            "def f():\n"
            "    from . import _cache\n")
    found = [name for _, _, name in private_imports(ast.parse(code))]
    assert found == ["_Span", "_slice_keys", "_cache"]
