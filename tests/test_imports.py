"""hhalg modules reach each other only through public names, and only linalg
knows how a matrix is stored."""

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


def matrix_storage_uses(tree):
    """Sorted (line, use) for each `.data` read and each `.transpose()` call."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "data":
            out.append((node.lineno, ".data"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "transpose"):
            out.append((node.lineno, ".transpose()"))
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_only_linalg_knows_how_a_matrix_is_stored(path):
    assert matrix_storage_uses(ast.parse(path.read_text())) == []


def test_matrix_storage_detector_flags_offenders():
    code = ("rows = M.data\n"
            "col = M.transpose().data[0]\n"
            "data = M.columns\n"
            "f(data, M.transpose)\n")
    assert matrix_storage_uses(ast.parse(code)) == [
        (1, ".data"), (2, ".data"), (2, ".transpose()")]
