"""hhalg modules reach each other only through public names, only linalg
knows how a matrix is stored, every definition and import in hhalg is used,
every definition is reached from the command line or the benchmark or is a
named cross-check, only the output and cache writers serialize JSON
and write, and no module imports dataclasses."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hhalg"


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


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definition_nodes(tree):
    """{dotted name: node} for every function and class a module defines."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFINITIONS):
                out[prefix + child.name] = child
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def definitions(tree):
    """Dotted names of the non-dunder functions and classes a module defines."""
    return [name for name in definition_nodes(tree) if not is_dunder(name.rsplit(".", 1)[-1])]


def name_of(node):
    """The name a Name, Attribute, import alias or identifier string refers to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and node.value.isidentifier()):
        return node.value
    return None


def referenced_names(tree):
    """Every Name, Attribute, import alias and identifier string in a module."""
    return {name for name in map(name_of, ast.walk(tree)) if name is not None}


def unreferenced(defined, used):
    """The dotted definitions whose last name part is never used."""
    return [name for name in defined if name.rsplit(".", 1)[-1] not in used]


def test_every_definition_is_referenced():
    readers = [p for d in (SRC, ROOT / "tests", ROOT / "perfbench") for p in sorted(d.rglob("*.py"))]
    used = set().union(*(referenced_names(ast.parse(p.read_text())) for p in readers))
    defined = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
               for name in definitions(ast.parse(p.read_text()))]
    assert unreferenced(defined, used) == []


def test_dead_definition_detector_flags_offenders():
    code = ("class Ring:\n"
            "    def __init__(self): self.used()\n"
            "    def used(self): pass\n"
            "    def div(self, a, b):\n"
            "        def helper(): pass\n"
            "        return a\n"
            "def patched(): pass\n"
            "def dead(): pass\n"
            "from x import imported\n"
            "setattr(Ring, 'patched', None)\n"
            "Ring()\n")
    tree = ast.parse(code)
    assert definitions(tree) == ["Ring", "Ring.used", "Ring.div", "Ring.div.helper",
                                 "patched", "dead"]
    assert "imported" in referenced_names(tree)
    assert unreferenced(definitions(tree), referenced_names(tree)) == [
        "Ring.div", "Ring.div.helper", "dead"]


def own_names(node):
    """The names a module's or a definition's own code references.

    A nested function or class is a definition of its own: only its
    decorators, bases and default values run with the enclosing code.  An
    import references nothing by itself (every import is read, above).
    """
    out = set()

    def visit(parent):
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(child, DEFINITIONS):
                heads = list(child.decorator_list) + list(getattr(child, "bases", ()))
                if not isinstance(child, ast.ClassDef):
                    heads += child.args.defaults + [d for d in child.args.kw_defaults if d]
                for head in heads:
                    out.update(referenced_names(head))
                continue
            name = name_of(child)
            if name is not None:
                out.add(name)
            visit(child)

    visit(node)
    return out


def unreached(modules, roots, used):
    """Dotted definitions of `modules` ({name: tree}) that nothing reaches.

    Reaching goes by name, so it over-approximates what runs.  Module-level
    code and the names in `used`, read from outside the package, reach every
    definition of a name they reference; the dotted `roots` are reached; a
    reached definition reaches the names its own code references, and a
    reached class its dunder methods, which Python calls implicitly.
    """
    nodes = {f"{stem}.{name}": node for stem, tree in modules.items()
             for name, node in definition_nodes(tree).items()}
    names = set(used).union(*map(own_names, modules.values()))
    reached = set()
    grew = True
    while grew:
        grew = False
        for dotted, node in nodes.items():
            owner, name = dotted.rsplit(".", 1)
            if dotted not in reached and (dotted in roots or name in names
                                          or (is_dunder(name) and owner in reached)):
                reached.add(dotted)
                names |= own_names(node)
                grew = True
    return [dotted for dotted in nodes if dotted not in reached]


# What `hhalg` does not reach from cli.main, and the benchmark does not name,
# stays only as a cross-check that a test or an acceptance criterion runs.
CROSS_CHECKS = {
    "algebra.algebra_isomorphic",  # acceptance criterion 8; test_algebra.py test_iso_*
    "resolve.ext_base_change",  # acceptance criterion 4; test_resolve.py test_ext_base_change_*
    "resolve.yoneda_square",  # acceptance criterion 3; test_resolve.py
    "hochschild.check_enveloping_against_bar",  # criterion 9; test_hochschild.py test_enveloping_*
    "azumaya.endo_smash_invariant",  # test_azumaya.py test_endo_smash_*
    "morita.adjunction_triangles",  # test_morita.py test_adjunction_triangles_on_corpus
    "morita.endo_algebra",  # test_morita.py test_endo_algebra_*, test_smith.py
    "algebra.center",  # test_algebra.py test_center_*, test_hochschild.py HH^0 = center
    "algebra.semisimple_quotient",  # test_algebra.py test_semisimplification_idempotent
    "hochschild.bimodule",  # test_hochschild.py test_hh_trivial_coefficients and its rejection
    "linalg.SmithForm.transforms_built",  # test_smith.py test_*_transforms
}


def benchmark_names():
    """Every name the perfbench harness or BENCHMARK.json uses."""
    bench = [referenced_names(ast.parse(p.read_text()))
             for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return set(re.findall(r"[A-Za-z_]\w*", (ROOT / "BENCHMARK.json").read_text())).union(*bench)


def test_every_definition_is_reached_from_the_cli_or_the_benchmark():
    modules = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(CROSS_CHECKS) <= 12
    assert unreached(modules, {"cli.main"} | CROSS_CHECKS, benchmark_names()) == []
    # every cross-check earns its entry: nothing else reaches it
    assert CROSS_CHECKS <= set(unreached(modules, {"cli.main"}, benchmark_names()))


def test_unreached_definition_detector_flags_offenders():
    cli = ("from .lib import gone\n"
           "def main():\n"
           "    return run(helper)\n"
           "def run(f): return f()\n"
           "def helper(): pass\n"
           "def dead(): pass\n")
    lib = ("TABLE = {'k': tabled}\n"
           "class Report:\n"
           "    def __init__(self): pass\n"
           "    def __bool__(self): return True\n"
           "    def read(self): pass\n"
           "    def unread(self): pass\n"
           "def tabled(): return Report().read()\n"
           "def oracle(): return oracle_helper()\n"
           "def oracle_helper(): pass\n"
           "def timed(): pass\n"
           "def gone():\n"
           "    def inner(): pass\n"
           "    return inner\n")
    modules = {"cli": ast.parse(cli), "lib": ast.parse(lib)}
    assert unreached(modules, {"cli.main", "lib.oracle"}, {"timed"}) == [
        "cli.dead", "lib.Report.unread", "lib.gone", "lib.gone.inner"]
    assert unreached(modules, {"cli.main"}, set()) == [
        "cli.dead", "lib.Report.unread", "lib.oracle", "lib.oracle_helper", "lib.timed",
        "lib.gone", "lib.gone.inner"]


def unread_imports(tree):
    """Sorted (line, name) for each name a module imports but never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    out.append((node.lineno, name))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(ast.parse(path.read_text())) == []


def test_unread_import_detector_flags_offenders():
    code = ("from __future__ import annotations\n"
            "import os, json as j\n"
            "import os.path\n"
            "from .base import HomogeneousMap, hom_maps as hm, tensor_maps\n"
            "def f(x: HomogeneousMap):\n"
            "    return os.path.join(x)\n"
            "tensor_maps = None\n")
    assert unread_imports(ast.parse(code)) == [(2, "j"), (4, "hm"), (4, "tensor_maps")]


FACTORIZATION_INTERNALS = ("smith_normal_form", "SmithForm")


def factorization_internals_used(tree):
    """Sorted (line, name) for each reference to the Smith form by name.

    Outside linalg a factorization comes from `factor`,
    `HomogeneousMap.factored` or the one-shot helpers (`rank`,
    `kernel_basis`, `solve`), never from the routine or the
    class behind them.
    """
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in FACTORIZATION_INTERNALS:
            out.add((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in FACTORIZATION_INTERNALS:
            out.add((node.lineno, node.attr))
        elif isinstance(node, ast.alias) and node.name.rsplit(".", 1)[-1] in FACTORIZATION_INTERNALS:
            out.add((node.lineno, node.name.rsplit(".", 1)[-1]))
        elif isinstance(node, ast.Constant) and node.value in FACTORIZATION_INTERNALS:
            out.add((node.lineno, node.value))  # a quoted annotation
    return sorted(out)


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "linalg.py"],
                         ids=lambda p: p.name)
def test_factorizations_come_from_factor_outside_linalg(path):
    assert factorization_internals_used(ast.parse(path.read_text())) == []


def test_factorization_internals_detector_flags_offenders():
    code = ("from .linalg import factor, smith_normal_form\n"
            "from . import linalg\n"
            "sf = linalg.smith_normal_form(M)\n"
            "def f(x: SmithForm) -> int:\n"
            "    return factor(x.matrix).rank\n"
            "def g(M) -> 'SmithForm':\n"
            "    return factor(M)\n")
    assert factorization_internals_used(ast.parse(code)) == [
        (1, "smith_normal_form"), (3, "smith_normal_form"), (4, "SmithForm"), (6, "SmithForm")]


def uses_outside(tree, names, home):
    """Sorted (line, enclosing function, name) for each reference to one of
    `names` outside the function `home`."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            name = (child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute) else None)
            if name in names and func != home:
                out.append((child.lineno, func, name))
            visit(child, func)

    visit(tree, "<module>")
    return sorted(out)


# A resolution builder differs from another only in its generator chooser; a
# stage kernel built anywhere but `_resolve`, the one resolution loop, is a
# second loop.
STAGE_HELPERS = ("_flat_kernel",)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_stage_helpers_are_called_only_from_the_loop(path):
    assert uses_outside(ast.parse(path.read_text()), STAGE_HELPERS, "_resolve") == []


# The one derived Hom: a free resolution is read by ext_with_coefficients
# only inside resolve.derived_hom, which G, S, the completion, the enveloping
# route and the base-change cross-check all call.
DERIVED_HOM_PARTS = ("free_resolution", "ext_with_coefficients")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_free_resolutions_are_read_only_in_derived_hom(path):
    assert uses_outside(ast.parse(path.read_text()), DERIVED_HOM_PARTS, "derived_hom") == []


def test_stage_helper_detector_flags_offenders():
    code = ("def _resolve(A):\n"
            "    choose = lambda F, f: _flat_kernel(f, w)\n"
            "    return choose(F, f)\n"
            "def minimal_resolution(A):\n"
            "    kernel = _flat_kernel(f, w)\n"
            "    return resolve._flat_kernel(F, kernel)\n"
            "step = _flat_kernel\n")
    assert uses_outside(ast.parse(code), STAGE_HELPERS, "_resolve") == [
        (5, "minimal_resolution", "_flat_kernel"), (6, "minimal_resolution", "_flat_kernel"),
        (7, "<module>", "_flat_kernel")]


# Every Azumaya flavor takes its mu condition from `_mu_condition`; a mu test
# anywhere else in azumaya is a second path to the same verdict.
MU_TESTS = ("mu_is_iso", "is_quasi_iso")


def test_mu_is_tested_only_in_the_mu_condition():
    tree = ast.parse((SRC / "azumaya.py").read_text())
    assert uses_outside(tree, MU_TESTS, "_mu_condition") == []


def test_mu_test_detector_flags_offenders():
    code = ("from .hochschild import mu_is_iso\n"
            "def _mu_condition(name, A, window):\n"
            "    return mu_is_iso(A) or dg.is_quasi_iso(action_map_mu(A), window)\n"
            "def check_weak_azumaya(A, window):\n"
            "    return Condition('mu', mu_is_iso(A))\n"
            "iso = dg.is_quasi_iso\n")
    assert uses_outside(ast.parse(code), MU_TESTS, "_mu_condition") == [
        (5, "check_weak_azumaya", "mu_is_iso"), (6, "<module>", "is_quasi_iso")]


def object_new_uses(tree):
    """Sorted lines of each `object.__new__` reference, which builds an
    instance without running its class's checks."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "__new__"
                  and isinstance(node.value, ast.Name) and node.value.id == "object")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_instance_bypasses_its_constructor(path):
    assert object_new_uses(ast.parse(path.read_text())) == []


def test_object_new_detector_flags_offenders():
    code = ("ctx = object.__new__(MoritaContext)\n"
            "class Ring:\n"
            "    def __new__(cls):\n"
            "        return super().__new__(cls)\n"
            "new = object.__new__\n"
            "other.__new__(Ring)\n")
    assert object_new_uses(ast.parse(code)) == [1, 5]


# Output leaves hhalg in two places: stdout through cli._emit, with errors
# printed by cli.main, and cache entries through cache.store.
WRITERS = {"cli.py": {"write": "_emit", "print": "main"}, "cache.py": {"write": "store"}}


def writes_outside(tree, homes):
    """Sorted (line, enclosing function, name) for each `write` or `print`
    reference outside the function that `homes` names for it."""
    return sorted(use for name in ("write", "print")
                  for use in uses_outside(tree, (name,), homes.get(name)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_the_writers_write_output(path):
    assert writes_outside(ast.parse(path.read_text()), WRITERS.get(path.name, {})) == []


def test_writer_detector_flags_offenders():
    code = ("def _emit(out, doc):\n"
            "    out.write(doc)\n"
            "def main():\n"
            "    print('error', file=sys.stderr)\n"
            "def cmd(out):\n"
            "    out.write('# name')\n"
            "    print(out)\n"
            "say = sys.stdout.write\n")
    assert writes_outside(ast.parse(code), WRITERS["cli.py"]) == [
        (6, "cmd", "write"), (7, "cmd", "print"), (8, "<module>", "write")]
    assert writes_outside(ast.parse(code), {}) == [
        (2, "_emit", "write"), (4, "main", "print"), (6, "cmd", "write"), (7, "cmd", "print"),
        (8, "<module>", "write")]


def json_dumps_uses(tree):
    """Sorted lines that reference json.dumps, as an attribute or an import."""
    out = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                and isinstance(node.value, ast.Name) and node.value.id == "json"):
            out.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "json"
              and any(alias.name == "dumps" for alias in node.names)):
            out.append(node.lineno)
    return sorted(out)


# Only the modules that write output and cache payloads serialize JSON; a
# dumps anywhere else renders text that nothing reads.
JSON_WRITERS = ("cli.py", "cache.py")


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name not in JSON_WRITERS],
                         ids=lambda p: p.name)
def test_only_the_writers_serialize_json(path):
    assert json_dumps_uses(ast.parse(path.read_text())) == []


def test_json_dumps_detector_flags_offenders():
    code = ("import json\n"
            "from json import dumps, loads\n"
            "text = json.dumps(doc, sort_keys=True)\n"
            "doc = json.loads(text)\n"
            "other.dumps(doc)\n"
            "render = json.dumps\n")
    assert json_dumps_uses(ast.parse(code)) == [2, 3, 6]


def module_imports(tree, module):
    """Sorted lines that import `module` or a name from it."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Import) and any(
                      alias.name.split(".")[0] == module for alias in node.names)
                  or isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == module)


# Values and records derive from ground.Record; the dataclasses module costs
# every CLI child its import and the exec of each generated method.
@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    assert module_imports(ast.parse(path.read_text()), "dataclasses") == []


def test_module_import_detector_flags_offenders():
    code = ("import dataclasses\n"
            "from dataclasses import dataclass, field\n"
            "import os, dataclasses as dc\n"
            "from .dataclasses import x\n"
            "def f():\n"
            "    import dataclasses.x\n"
            "dataclass = None\n")
    assert module_imports(ast.parse(code), "dataclasses") == [1, 2, 3, 6]


def load_time_imports(tree):
    """Sorted (line, module) for each import that runs when the module loads:
    outside function bodies and outside `except` handlers, which import a
    fallback only when the import before them failed."""
    out = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                  ast.ExceptHandler)):
                continue
            if isinstance(child, ast.Import):
                out.extend((child.lineno, alias.name) for alias in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module:
                out.append((child.lineno, "." * child.level + child.module))
            elif isinstance(child, ast.ImportFrom):  # from . import name
                out.extend((child.lineno, "." * child.level + alias.name)
                           for alias in child.names)
            visit(child)

    visit(tree)
    return sorted(out)


# A warm cache hit loads only these modules of hhalg; an engine module or
# hashlib (which loads OpenSSL) imported when one of them loads would put
# that cost back on every hit.
HIT_PATH = ("cli.py", "cache.py", "tables.py", "defs.py")
NOT_ON_THE_HIT_PATH = ("algebra", "base", "linalg", "resolve", "dg", "hochschild", "azumaya",
                       "morita", "hashlib")


def hit_path_offenders(tree):
    """The load-time imports of a module or package named in NOT_ON_THE_HIT_PATH,
    relative or as hhalg.<name>."""
    return [(line, module) for line, module in load_time_imports(tree)
            if module.lstrip(".").removeprefix("hhalg.").split(".")[0] in NOT_ON_THE_HIT_PATH]


@pytest.mark.parametrize("name", HIT_PATH)
def test_the_hit_path_loads_no_engine_module(name):
    assert hit_path_offenders(ast.parse((SRC / name).read_text())) == []


def test_hit_path_detector_flags_offenders():
    code = ("import json, hashlib\n"
            "from .algebra import GradedAlgebra\n"
            "from hhalg.resolve import AModule\n"
            "from .ground import Record\n"
            "try:\n"
            "    from . import dg\n"
            "except ImportError:\n"
            "    from hashlib import sha256\n"
            "if True:\n"
            "    import hhalg.morita\n"
            "class Lazy:\n"
            "    from .linalg import factor\n"
            "    def build(self):\n"
            "        from .algebra import realize\n")
    assert hit_path_offenders(ast.parse(code)) == [
        (1, "hashlib"), (2, ".algebra"), (3, "hhalg.resolve"), (6, ".dg"), (10, "hhalg.morita"),
        (12, ".linalg")]


def test_importing_the_engine_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; before = set(sys.modules)\n"
            "import hhalg.cli, hhalg.hochschild, hhalg.azumaya, hhalg.morita, hhalg.cache\n"
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"
