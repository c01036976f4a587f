import ast
import copy
import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import time
from math import comb

import pytest

from hhalg import cache, hochschild
from hhalg.cache import cache_key
from hhalg.cli import COMMANDS, build_parser, main
from hhalg.defs import (
    DefinitionError,
    build_algebra,
    build_module,
    parse_definition,
    parse_relation,
)
from hhalg.base import GradedFreeModule, HomogeneousMap
from hhalg.ground import InvariantError
from hhalg.resolve import AModule, AModuleMap

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "hhalg", "data")
REFERENCES = os.path.join(os.path.dirname(__file__), "..", "perfbench", "references.json")


def defpath(name):
    return os.path.join(DATA, name)


def run(capsys, argv, cache_dir):
    code = main(argv + ["--cache-dir", str(cache_dir)])
    out = capsys.readouterr()
    return code, out.out, out.err


# -- relation grammar ---------------------------------------------------------------

def test_parse_relation_basic():
    terms = parse_relation("t0^2 - v", {"t0": 1}, "v")
    assert terms == ((-1, (), 1), (1, ("t0", "t0"), 0))


def test_parse_relation_parentheses_and_coefficients():
    terms = parse_relation("2*(x + y)*x", {"x": 0, "y": 0}, None)
    assert terms == ((2, ("x", "x"), 0), (2, ("y", "x"), 0))


def test_parse_relation_negative_laurent_power():
    terms = parse_relation("v^-2*x", {"x": 4}, "v")
    assert terms == ((1, ("x",), -2),)


def test_parse_relation_unknown_symbol():
    with pytest.raises(DefinitionError, match="unknown symbol 'z'"):
        parse_relation("x*z", {"x": 0}, None)


def test_parse_relation_syntax_error_reports_column():
    with pytest.raises(DefinitionError, match="column 4"):
        parse_relation("x + *", {"x": 0}, None)


def test_negative_power_of_generator_rejected():
    with pytest.raises(DefinitionError, match="Laurent"):
        parse_relation("x^-1", {"x": 0}, None)


def test_an_exponent_past_the_monomial_cap_is_refused_at_its_column():
    assert parse_relation("x^4096", {"x": 1}, None) == ((1, ("x",) * 4096, 0),)
    with pytest.raises(DefinitionError, match="^column 8: exponent 4097 exceeds 4096$"):
        parse_relation("y*x^2*x^4097", {"x": 1, "y": 1}, None)


# -- definition documents -------------------------------------------------------------

def test_homogeneity_error_names_both_degrees():
    doc = {"base": {"ground": "F3"},
           "algebras": {"bad": {"generators": [["t0", 1], ["t1", 2]],
                                "relations": ["t0^2 - t0*t1"]}}}
    with pytest.raises(DefinitionError, match="degree 2 vs term of degree 3"):
        parse_definition(json.dumps(doc))


def test_json_error_reports_line_and_column():
    with pytest.raises(DefinitionError, match="line 2"):
        parse_definition('{\n "base": }')


def test_free_algebra_requires_truncation():
    doc = {"base": {"ground": "F3"},
           "algebras": {"free": {"generators": [["y", 1]], "relations": []}}}
    with pytest.raises(DefinitionError, match="truncation"):
        parse_definition(json.dumps(doc))
    doc["algebras"]["free"]["truncation"] = 4
    df = parse_definition(json.dumps(doc))
    A = build_algebra(df, "free")
    assert A.rank == 5  # words of internal degree <= 4: 1, y, .., y^4


def test_build_module_composes_generator_actions():
    with open(defpath("etale.def")) as fh:
        df = parse_definition(fh.read())
    built = {n: build_algebra(df, n) for n, _ in df.algebras}
    E = build_module(df, "E_R", built)
    assert E.module.rank == 1 and E.algebra is built["R"]


def build_module_by_names_oracle(df, name, built):
    """The former build_module, kept as a cross-check: it reads realize's
    monomial names ("1", "x1*x2") and composes each monomial's action along
    its word, right to left."""
    spec = dict(df.modules)[name]
    A = built[spec["over"]]
    M = GradedFreeModule(A.base, spec["generators"])
    degree = dict(A.monomials)
    gen_maps = {g: HomogeneousMap(M, M, degree[g], {(i, j): c for i, j, c in rows})
                for g, rows in spec["action"]}
    action = {}
    for idx, (mname, mdeg) in enumerate(A.monomials):
        word = [] if mname == "1" else mname.split("*")
        if any(w not in gen_maps for w in word):
            continue
        hm = HomogeneousMap.identity(M)
        for w in reversed(word):
            hm = gen_maps[w].compose(hm)
        if not hm.is_zero():
            action[idx] = HomogeneousMap(M, M, mdeg, hm.entries)
    return AModule(A, M, action, check=False)


def regular_module_doc(file, algebra):
    """file's definition with one module, M: the regular module of
    `algebra`, given by the left multiplications by its generators."""
    with open(defpath(file)) as fh:
        doc = json.load(fh)
    A = build_algebra(parse_definition(json.dumps(doc)), algebra)
    action = {A.monomials[s][0]: [[i, j, c] for (i, j), c in sorted(A.left_mult(s).entries.items())]
              for s in A.generating_monomials}
    doc.pop("tasks", None)
    doc["modules"] = {"M": {"over": algebra, "action": action,
                            "generators": [list(g) for g in A.monomials]}}
    return doc


LAM_X_MODULE = {"base": {"ground": "F3"},
                "algebras": {"lam_x": {"generators": [["x", -1]], "relations": ["x^2"]}},
                "modules": {"M": {"over": "lam_x", "generators": [["a", 0], ["b", -1]],
                                  "action": {"x": [[1, 0, 1]]}}}}
AB_MODULE = {"base": {"ground": "F3"},
             "algebras": {"lam": {"generators": [["ab", -1]], "relations": ["ab^2"]}},
             "modules": {"M": {"over": "lam", "generators": [["a", 0], ["b", -1]],
                               "action": {"ab": [[1, 0, 1]]}}}}
# every graded algebra of the corpus, its regular module
REGULAR_MODULES = [(file, algebra)
                   for file, algebras in (
                       ("etale.def", ("R", "A")), ("exterior1.def", ("lam_x",)),
                       ("exterior_n.def", ("lam_2", "lam_3")),
                       ("k1k1_trunc.def", ("sigma_1", "k1k1op_1", "sigma_2", "k1k1op_2")),
                       ("ku2.def", ("B2", "lam_tau")), ("matrix.def", ("M2_F3", "M2_F5")),
                       ("polytrunc.def", ("poly20",)))
                   for algebra in algebras]


def corpus_doc(file):
    with open(defpath(file)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("make", [
    lambda: corpus_doc("etale.def"), lambda: LAM_X_MODULE, lambda: AB_MODULE,
    *[lambda case=case: regular_module_doc(*case) for case in REGULAR_MODULES],
], ids=["etale", "lam_x", "ab"] + [f"{algebra}-regular" for _, algebra in REGULAR_MODULES])
def test_build_module_matches_the_name_walk_oracle(make):
    df = parse_definition(json.dumps(make()))
    built = {n: build_algebra(df, n) for n, _ in df.algebras}
    for name, _ in df.modules:
        E, want = build_module(df, name, built), build_module_by_names_oracle(df, name, built)
        ranks = range(E.algebra.rank)
        assert [E.act_map(m) for m in ranks] == [want.act_map(m) for m in ranks]


def test_generation_steps_reach_a_product_with_a_sign():
    # x2 x1 = -x1 x2 in the exterior algebra on x1, x2: the search reaches
    # x1*x2 from x1 by x2, with c = -1, so the action of x1*x2 is -rho(x2) rho(x1)
    A = build_algebra(parse_definition(json.dumps(corpus_doc("exterior_n.def"))), "lam_2")
    index = {n: i for i, (n, _) in enumerate(A.monomials)}
    assert (index["x1*x2"], index["x2"], index["x1"], 2) in A.generation_steps()
    assert all(c == 1 for m, s, k, c in A.generation_steps() if m != index["x1*x2"])


def test_build_module_raises_nothing_of_its_own(monkeypatch):
    # what parse_definition accepted, build_module builds; an action that is
    # not one fails in AModule's check, nowhere else
    import hhalg.resolve as resolve

    doc = corpus_doc("etale.def")
    doc["modules"]["E_R"]["action"]["t"] = [[0, 0, 2]]  # t^2 = t fails: 4 != 2
    df = parse_definition(json.dumps(doc))
    built = {n: build_algebra(df, n) for n, _ in df.algebras}
    with pytest.raises(ValueError, match=r"^left action fails on pair \(1,1\)$"):
        build_module(df, "E_R", built)

    def refused(*_):
        raise LookupError("the action check")

    monkeypatch.setattr(resolve, "check_action", refused)
    with pytest.raises(LookupError, match="the action check"):
        build_module(df, "E_R", built)
    source = inspect.getsource(build_module)
    assert "DefinitionError" not in source and source.count("raise ") == 1


def test_an_action_that_is_not_one_fails_on_the_first_pair_off_the_search(capsys, tmp_path):
    # x1 and x2 commute on M instead of anticommuting; x1*x2 acts by
    # -rho(x2) rho(x1), as the search reaches it, so the check fails at
    # (x1, x2), where the name walk's rho(x1) rho(x2) failed later, at (x2, x1)
    doc = corpus_doc("exterior_n.def")
    doc["modules"] = {
        "M": {"over": "lam_2", "generators": [["a", 0], ["b", -1], ["c", -1], ["d", -2]],
              "action": {"x1": [[1, 0, 1], [3, 2, 1]], "x2": [[2, 0, 1], [3, 1, 1]]}},
        "N": {"over": "lam_3", "generators": [["a", 0], ["b", -1], ["c", -1], ["d", -2]]}}
    doc["tasks"] = [{"command": "morita", "R": "lam_2", "A": "lam_3", "E_R": "M", "E_A": "N"}]
    path = tmp_path / "commuting.def"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["morita", "--file", str(path)], tmp_path)
    assert (code, out, err) == (1, "", "error: left action fails on pair (1,2)\n")


def rewritten_generator_doc(y_rows):
    """y = x and x^2 = x in B, so y keeps no monomial; x acts by 1 on M."""
    action = {"x": [[0, 0, 1]]}
    if y_rows is not None:
        action["y"] = y_rows
    return {"base": {"ground": "F3"},
            "algebras": {"B": {"generators": [["x", 0], ["y", 0]],
                               "relations": ["y - x", "x^2 - x"]}},
            "modules": {"M": {"over": "B", "generators": [["a", 0]], "action": action}},
            "tasks": [{"command": "morita", "R": "B", "A": "B", "E_R": "M", "E_A": "M"}]}


def test_realize_records_the_normal_form_of_a_rewritten_generator():
    B = build_algebra(parse_definition(json.dumps(rewritten_generator_doc(None))), "B")
    assert [n for n, _ in B.monomials] == ["1", "x"]
    assert B.rewritten == {"y": {1: 1}}


def test_an_action_on_a_rewritten_generator_is_kept_when_it_is_its_normal_form(capsys,
                                                                                tmp_path):
    # y acts as x does: the same module as with y left out, and morita runs on it
    path = tmp_path / "rewrite.def"
    outputs = []
    for y_rows in ([[0, 0, 1]], None):
        path.write_text(json.dumps(rewritten_generator_doc(y_rows)))
        outputs.append(run(capsys, ["morita", "--file", str(path), "--check", "roundtrip"],
                           tmp_path))
    assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][2] == ""
    df = parse_definition(json.dumps(rewritten_generator_doc([[0, 0, 1]])))
    E = build_module(df, "M", {"B": build_algebra(df, "B")})
    assert E.act_map(1).entries == {(0, 0): 1}


@pytest.mark.parametrize("y_rows", [[[0, 0, 2]], []], ids=["other-matrix", "zero"])
def test_an_action_on_a_rewritten_generator_other_than_its_normal_form_exits_one(
        capsys, tmp_path, y_rows):
    path = tmp_path / "rewrite.def"
    path.write_text(json.dumps(rewritten_generator_doc(y_rows)))
    code, out, err = run(capsys, ["morita", "--file", str(path)], tmp_path)
    assert (code, out, err) == (1, "", "error: module 'M': the action of 'y' differs from that "
                                       "of what the relations of 'B' rewrite it to\n")


def test_a_right_module_exits_one_at_parse(capsys, tmp_path):
    # the corpus files name "side": "left", which still parses; a right
    # S-module is written as a left module over the opposite of S
    doc = corpus_doc("etale.def")
    assert {m["side"] for m in doc["modules"].values()} == {"left"}
    parse_definition(json.dumps(doc))
    doc["modules"]["E_R"]["side"] = "right"
    path = tmp_path / "right.def"
    path.write_text(json.dumps(doc))
    for command in ("morita", "ext"):
        code, out, err = run(capsys, [command, "--file", str(path)], tmp_path)
        assert (code, out) == (1, "")
        assert err == ("error: module 'E_R': side must be 'left'; a right module over S is "
                       "a left module over the opposite of S\n")


def test_unknown_reference_rejected():
    doc = {"base": {"ground": "F3"}, "algebras": {},
           "modules": {"M": {"over": "nope", "generators": []}}}
    with pytest.raises(DefinitionError, match="unknown algebra"):
        parse_definition(json.dumps(doc))


# -- cache -----------------------------------------------------------------------------

def test_cache_key_depends_on_bounds():
    assert cache_key("ext", "x", 6) != cache_key("ext", "x", 7)


def test_cache_key_is_stable_and_follows_the_sources(monkeypatch):
    key = cache_key("ext", "x", 6)
    assert cache_key("ext", "x", 6) == key
    names = [name for name, _ in cache._sources()]
    assert "cache.py" in names and "resolve.py" in names and names == sorted(names)
    edited = [(name, data + b"\n# edited\n" if name == "resolve.py" else data)
              for name, data in cache._sources()]
    monkeypatch.setattr(cache, "_sources", lambda: edited)
    cache.engine_version.cache_clear()
    try:
        assert cache_key("ext", "x", 6) != key
    finally:
        monkeypatch.undo()
        cache.engine_version.cache_clear()
    assert cache_key("ext", "x", 6) == key


def test_engine_version_is_computed_on_first_use_only():
    code = ("from hhalg import cache, cli; n = cache.engine_version.cache_info;"
            " before = n().currsize; cache.cache_key('x'); cache.cache_key('y');"
            " print(before, n().currsize, n().misses)")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["0", "1", "1"]


def test_importing_the_cli_loads_no_engine_module_a_command_imports_itself():
    code = ("import sys, hhalg.cli; print(sorted(m for m in ('cache', 'hochschild', 'azumaya',"
            " 'morita') if 'hhalg.' + m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "[]"


def test_cache_cold_and_warm_outputs_identical(capsys, tmp_path):
    argv = ["ext", "--file", defpath("exterior1.def"), "--smax", "6"]
    code1, cold, _ = run(capsys, argv, tmp_path)
    assert code1 == 0
    assert os.listdir(tmp_path)  # something was cached
    code2, warm, _ = run(capsys, argv, tmp_path)
    assert code2 == 0 and warm == cold


def _corrupt_and_rerun(capsys, tmp_path, corrupt):
    """Cache one ext table, replace its entry by corrupt(entry, key), rerun;
    return (fresh, rerun)."""
    argv = ["ext", "--file", defpath("exterior1.def"), "--smax", "6"]
    _, fresh, _ = run(capsys, argv, tmp_path / "fresh")
    run(capsys, argv, tmp_path / "c")
    (name,) = os.listdir(tmp_path / "c")
    entry = tmp_path / "c" / name
    good = entry.read_text()
    entry.write_text(corrupt(good, name.removesuffix(".run")))
    code, out, err = run(capsys, argv, tmp_path / "c")
    assert code == 0 and err == ""
    assert entry.read_text() == good  # the entry was overwritten
    return fresh, out


def test_cache_truncated_entry_is_a_miss(capsys, tmp_path):
    fresh, out = _corrupt_and_rerun(capsys, tmp_path, lambda text, _: text[: len(text) // 2])
    assert out == fresh


def test_cache_edited_entry_is_a_miss(capsys, tmp_path):
    def edit(text, _):
        # the first row's free rank becomes 7; the rest of the entry is kept
        edited = re.sub(r"^(-?\d+\t-?\d+\t)\d+", r"\g<1>7", text, count=1, flags=re.M)
        assert edited != text
        return edited

    fresh, out = _corrupt_and_rerun(capsys, tmp_path, edit)
    assert out == fresh


def test_cache_malformed_entry_with_valid_digest_is_a_miss(capsys, tmp_path):
    payload = json.dumps({"rows": 1})

    def malformed(_, key):
        # the digest line is the sha256 of the key and the payload together
        return hashlib.sha256(f"{key}\n{payload}".encode()).hexdigest() + "\n" + payload

    fresh, out = _corrupt_and_rerun(capsys, tmp_path, malformed)
    assert out == fresh


def test_cache_entry_moved_onto_another_key_is_a_miss(capsys, tmp_path):
    # an entry copied onto another key's path keeps a digest that matches
    # its payload, but not the key it now sits under
    cache_dir = tmp_path / "c"
    ext = ["ext", "--smax", "3", "--file"]
    run(capsys, ext + [defpath("exterior1.def")], cache_dir)
    (lam_name,) = os.listdir(cache_dir)
    code, fresh, _ = run(capsys, ext + [defpath("polytrunc.def")], cache_dir)
    assert code == 0
    (poly_name,) = set(os.listdir(cache_dir)) - {lam_name}
    poly_entry = (cache_dir / poly_name).read_text()
    (cache_dir / poly_name).write_text((cache_dir / lam_name).read_text())
    code, out, err = run(capsys, ext + [defpath("polytrunc.def")], cache_dir)
    assert (code, out, err) == (0, fresh, "")
    assert (cache_dir / poly_name).read_text() == poly_entry  # recomputed and overwritten


CANONICAL_DEFS = (
    # two spellings of one definition: whitespace, key order, algebra order
    # and relation term order differ
    {"base": {"ground": "F3"},
     "algebras": {"ext2": {"generators": [["x", 1], ["y", 1]],
                           "relations": ["x^2", "y^2", "x*y + y*x"]},
                  "dual": {"generators": [["e", 0]], "relations": ["e^2"]}}},
    {"algebras": {"dual": {"relations": ["e ^ 2"], "generators": [["e", 0]]},
                  "ext2": {"relations": ["x^2", "y^2", "y*x + x*y"],
                           "generators": [["x", 1], ["y", 1]]}},
     "base": {"ground": "F3"}},
)


def test_cache_key_hashes_the_file_bytes(capsys, tmp_path):
    # two spellings of one definition print the same, each from its own entry
    paths = []
    for i, (doc, indent) in enumerate(zip(CANONICAL_DEFS, (None, 4))):
        paths.append(tmp_path / f"spelling{i}.def")
        paths[-1].write_text(json.dumps(doc, indent=indent))
    cache_dir = tmp_path / "cache"
    outs = []
    for n, path in enumerate(paths, 1):
        code, out, _ = run(capsys, ["ext", "--file", str(path), "--smax", "3"], cache_dir)
        assert code == 0
        outs.append(out)
        assert len(os.listdir(cache_dir)) == n  # one entry per run
    assert outs[0] == outs[1]
    # a file edited between the cold and the warm run is recomputed
    changed = copy.deepcopy(CANONICAL_DEFS[0])
    changed["algebras"]["dual"]["generators"] = [["e", 2]]
    paths[0].write_text(json.dumps(changed))
    argv = ["ext", "--file", str(paths[0]), "--smax", "3"]
    fresh = run(capsys, argv, tmp_path / "fresh")
    assert fresh[1] != outs[0]
    assert run(capsys, argv, cache_dir) == fresh
    assert len(os.listdir(cache_dir)) == 3


def test_a_spelling_the_scan_misreads_runs_uncached(capsys, tmp_path):
    # argparse takes the last --file and --cache-dir, and abbreviations of
    # both; the scan reads only the full names, so where the two disagree
    # the run prints what a fresh run prints and leaves no entry
    lam, poly = defpath("exterior1.def"), defpath("polytrunc.def")
    fresh = {path: run(capsys, ["ext", "--smax", "3", "--file", path], tmp_path / "fresh")
             for path in (lam, poly)}
    d = tmp_path / "d"
    spellings = [  # (argv tail, cache directories, entries left in each)
        (["--file=" + lam, "--cache-dir", str(d / "eq")], [d / "eq"], [1]),
        (["--file", poly, "--file", lam, "--cache-dir", str(d / "repeated")],
         [d / "repeated"], [1]),
        (["--file", lam, "--cache-dir=" + str(d / "cd_eq")], [d / "cd_eq"], [1]),
        (["--fi", lam, "--cache-dir", str(d / "fi")], [d / "fi"], [0]),
        (["--file", poly, "--fi", lam, "--cache-dir", str(d / "last")], [d / "last"], [0]),
        (["--file", lam, "--cache-dir", str(d / "one"), "--cache", str(d / "two")],
         [d / "one", d / "two"], [0, 0]),
    ]
    for tail, dirs, entries in spellings:
        for _ in ("cold", "warm"):
            code = main(["ext", "--smax", "3"] + tail)
            out = capsys.readouterr()
            assert (code, out.out, out.err) == fresh[lam], tail
        assert [len(os.listdir(x)) if x.exists() else 0 for x in dirs] == entries, tail


# the modules a warm run must not import: the engine, the definition format
# beneath it, OpenSSL, and what only parsing argv or a definition needs
OFF_THE_HIT_PATH = tuple("hhalg." + m for m in (
    "algebra", "base", "linalg", "resolve", "dg", "hochschild", "azumaya", "morita", "defs",
    "ground", "tables")) + ("hashlib", "_hashlib", "argparse", "json", "fractions")

# one cheap run of each subcommand
SUBCOMMAND_RUNS = (
    ["ext", "--file", defpath("exterior1.def"), "--smax", "3"],
    ["hochschild", "--file", defpath("exterior1.def"), "--nmax", "1"],
    ["homology", "--file", defpath("azumaya_dg.def")],
    ["mu-image", "--file", defpath("azumaya_dg.def")],
    ["azumaya", "--file", defpath("matrix.def")],
    ["morita", "--file", defpath("etale.def"), "--check", "roundtrip"],
)


def test_a_warm_run_imports_no_engine_module_and_no_openssl(capsys, tmp_path):
    assert sorted(argv[0] for argv in SUBCOMMAND_RUNS) == sorted(COMMANDS)
    cold = [run(capsys, argv, tmp_path) for argv in SUBCOMMAND_RUNS]
    assert all(code == 0 for code, _, _ in cold)
    assert len(os.listdir(tmp_path)) == len(SUBCOMMAND_RUNS)
    # argv travels as a repr, and the result comes back as one: the child
    # itself loads no json
    code = ("import ast, contextlib, io, sys\n"
            "from hhalg.cli import main\n"
            "outs = []\n"
            "for argv in ast.literal_eval(sys.argv[1]):\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        outs.append([main(argv), out.getvalue(), err.getvalue()])\n"
            "print(repr([outs, sorted(m for m in %r if m in sys.modules)]))\n"
            % (OFF_THE_HIT_PATH,))
    runs = [argv + ["--cache-dir", str(tmp_path)] for argv in SUBCOMMAND_RUNS]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    proc = subprocess.run([sys.executable, "-c", code, repr(runs)], capture_output=True,
                          text=True, env=env, check=True)
    warm, loaded = ast.literal_eval(proc.stdout)
    assert warm == [list(c) for c in cold]
    assert loaded == []


# the exterior algebras on two and three letters are neither monomial nor
# separable, so the bar runs and a budget of 60 stops it after n = 1 and n = 0
BUDGET_STOP = ["hochschild", "--file", defpath("exterior_n.def"), "--nmax", "3",
               "--budget", "60"]
BUDGET_NOTES = ("# lam_2\ns\tt\tfree_rank\ttorsion\n"
                "# note: budget exceeded: completed through n = 1\n",
                "# lam_3\ns\tt\tfree_rank\ttorsion\n"
                "# note: budget exceeded: completed through n = 0\n")


def test_a_budget_stop_replays_its_note_and_exit_code(capsys, tmp_path):
    cold = run(capsys, BUDGET_STOP, tmp_path)
    assert cold[0] == 2
    assert all(cold[1].count(note) == 1 for note in BUDGET_NOTES)
    assert run(capsys, BUDGET_STOP, tmp_path) == cold
    assert len(os.listdir(tmp_path)) == 1


def test_quiet_is_in_the_key(capsys, tmp_path):
    # azumaya leaves its witnesses out under --quiet, so each spelling has its own entry
    argv = ["azumaya", "--file", defpath("ku2.def"), "--flavor", "weak"]
    fresh = [run(capsys, argv + quiet, tmp_path / f"fresh{len(quiet)}")
             for quiet in ([], ["--quiet"])]
    assert fresh[0] != fresh[1]
    for _ in range(2):
        for quiet, want in zip(([], ["--quiet"]), fresh):
            assert run(capsys, argv + quiet, tmp_path / "shared") == want
    assert len(os.listdir(tmp_path / "shared")) == 2


def test_format_is_in_the_key(capsys, tmp_path):
    # the key holds the argv as given, so TSV and JSON are two entries
    argv = ["ext", "--file", defpath("exterior_n.def"), "--smax", "3"]
    outs = [run(capsys, argv + ["--format", fmt], tmp_path / fmt) for fmt in ("tsv", "json")]
    for _ in ("cold", "warm"):
        for fmt, want in zip(("tsv", "json"), outs):
            assert run(capsys, argv + ["--format", fmt], tmp_path / "shared") == want
    assert len(os.listdir(tmp_path / "shared")) == 2


# exit 1 on a definition error and on a refused window, 2 on a raised budget error
FAILING_RUNS = [
    (1, ["ext", "--file", defpath("ku2.def")]),
    (1, ["morita", "--file", defpath("etale.def"), "--check", "roundtrip", "--window=2:1"]),
    (2, ["hochschild", "--file", defpath("matrix.def"), "--budget", "1"]),
    (2, ["azumaya", "--file", defpath("azumaya_dg.def"), "--window=0:0"]),
]


@pytest.mark.parametrize("want,argv", FAILING_RUNS, ids=lambda x: x if isinstance(x, int)
                         else " ".join(os.path.basename(a) for a in x))
def test_a_failed_run_replays_its_stderr_and_exit_code(capsys, tmp_path, monkeypatch, want,
                                                       argv):
    cold = run(capsys, argv, tmp_path)
    assert cold[:2] == (want, "") and cold[2].startswith("error: ")
    assert len(os.listdir(tmp_path)) == 1

    def refuse(*_):
        raise AssertionError("a warm run computed")

    monkeypatch.setattr("hhalg.cli._execute", refuse)
    assert run(capsys, argv, tmp_path) == cold


def test_an_invariant_failure_or_a_usage_error_stores_nothing(capsys, tmp_path, monkeypatch):
    cache_dir = tmp_path / "c"
    with pytest.raises(SystemExit) as exc:
        run(capsys, ["ext", "--file", defpath("exterior1.def"), "--smax", "x"], cache_dir)
    assert exc.value.code == 2 and "invalid int value" in capsys.readouterr().err

    def broken(*args, **kwargs):
        raise InvariantError("broken on purpose")

    monkeypatch.setattr(hochschild, "hochschild_cohomology", broken)
    argv = ["hochschild", "--file", defpath("exterior1.def"), "--nmax", "1"]
    for _ in ("cold", "warm"):
        assert run(capsys, argv, cache_dir) == (3, "", "error: broken on purpose\n")
    assert not os.path.exists(cache_dir)


# a child that runs the CLI as __main__ with hochschild_cohomology broken
BROKEN_INVARIANT = ("import runpy, sys\n"
                    "import hhalg.hochschild\n"
                    "from hhalg.ground import InvariantError\n"
                    "def broken(*args, **kwargs):\n"
                    "    raise InvariantError('broken on purpose')\n"
                    "hhalg.hochschild.hochschild_cohomology = broken\n"
                    "runpy.run_module('hhalg.cli', run_name='__main__')\n")

# (exit code, entries stored, argv): a run of each exit class
EXIT_CLASSES = [
    (0, 1, ["ext", "--file", defpath("exterior1.def"), "--smax", "3"]),
    (1, 1, ["ext", "--file", defpath("ku2.def")]),
    (2, 1, ["hochschild", "--file", defpath("matrix.def"), "--budget", "1"]),
    (2, 1, BUDGET_STOP),
    (2, 0, ["ext", "--file", defpath("exterior1.def"), "--smax", "x"]),
    (3, 0, ["hochschild", "--file", defpath("exterior1.def"), "--nmax", "1"]),
]


@pytest.mark.parametrize("want,stored,argv", EXIT_CLASSES,
                         ids=["computed", "input error", "budget error", "budget stop",
                              "usage error", "invariant"])
def test_each_exit_class_cold_and_warm_in_a_child(tmp_path, want, stored, argv):
    # the hit path runs as __main__ here; a warm run that hit rewrites no entry
    head = ["-c", BROKEN_INVARIANT] if want == 3 else ["-m", "hhalg.cli"]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    runs, entries = [], []
    for _ in ("cold", "warm"):
        proc = subprocess.run([sys.executable, *head, *argv, "--cache-dir", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
        entries.append([(e.name, e.stat().st_ino, e.stat().st_mtime_ns)
                        for e in os.scandir(tmp_path)])
    assert runs[0][0] == want and runs[1] == runs[0]
    assert "Traceback" not in runs[0][2]
    assert len(entries[0]) == stored and entries[1] == entries[0]


def test_an_unwritable_cache_directory_costs_no_output(capsys, tmp_path):
    argv = ["ext", "--file", defpath("exterior1.def"), "--smax", "3"]
    want = run(capsys, argv, tmp_path / "c")
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert run(capsys, argv, blocker / "cache") == want


def test_determinism_across_runs(capsys, tmp_path):
    argv = ["azumaya", "--file", defpath("ku2.def"), "--flavor", "weak"]
    _, out1, _ = run(capsys, argv, tmp_path / "c1")
    _, out2, _ = run(capsys, argv, tmp_path / "c2")
    assert out1 == out2


def test_cache_dir_flag_overrides_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HHALG_CACHE_DIR", str(tmp_path / "envdir"))
    run(capsys, ["ext", "--file", defpath("exterior1.def")], tmp_path / "flagdir")
    assert os.path.isdir(tmp_path / "flagdir")
    assert not os.path.exists(tmp_path / "envdir")


# -- subcommands and exit codes ---------------------------------------------------------

def test_ext_tsv_shape(capsys, tmp_path):
    code, out, _ = run(capsys, ["ext", "--file", defpath("exterior1.def"),
                                "--smax", "6", "--quiet"], tmp_path)
    assert code == 0
    rows = [line.split("\t") for line in out.strip().splitlines()]
    assert len(rows) == 7
    assert all(len(r) == 4 and r[2] == "1" and r[3] == "-" for r in rows)


def test_ext_json_mirror(capsys, tmp_path):
    code, out, _ = run(capsys, ["ext", "--file", defpath("polytrunc.def"),
                                "--smax", "5", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert [r[:3] for r in doc["poly20"]["rows"]] == [[0, 0, 1], [1, 1, 1]]


def ext_tsv(sections):
    """The default ext output of (algebra name, [(s, t, free rank)]) sections."""
    return "".join(f"# {name}\ns\tt\tfree_rank\ttorsion\n"
                   + "".join(f"{s}\t{t}\t{n}\t-\n" for s, t, n in rows)
                   for name, rows in sections)


def exterior_ext(n, window):
    """Ext^{s,-s} of an exterior algebra on n degree-(-1) generators is
    C(n + s - 1, s), for s <= 8 (the default --smax), inside the window."""
    lo, hi = window
    return [(s, -s, comb(n + s - 1, s)) for s in range(9) if lo <= -s <= hi]


# a window only selects rows of the whole resolution; poly20's stages sit in
# degrees 0, 1, 20, 21, 40, ..., so (2, 9) and (-16, -2) hold none of them
@pytest.mark.parametrize("file, window, sections", [
    ("exterior_n.def", "-16:-2", [("lam_2", exterior_ext(2, (-16, -2))),
                                  ("lam_3", exterior_ext(3, (-16, -2)))]),
    ("exterior1.def", "-16:-2", [("lam_x", exterior_ext(1, (-16, -2)))]),
    ("polytrunc.def", "2:9", [("poly20", [])]),
    ("polytrunc.def", "-16:-2", [("poly20", [])]),
    ("exterior1.def", "2:9", [("lam_x", [])]),
    ("exterior_n.def", "2:9", [("lam_2", []), ("lam_3", [])]),
])
def test_ext_in_a_window_reports_the_rows_of_the_whole_resolution(capsys, tmp_path, file,
                                                                  window, sections):
    assert run(capsys, ["ext", "--file", defpath(file), f"--window={window}"], tmp_path) \
        == (0, ext_tsv(sections), "")


def test_azumaya_weak_verdicts(capsys, tmp_path):
    code, out, _ = run(capsys, ["azumaya", "--file", defpath("ku2.def"),
                                "--flavor", "weak", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["B2"]["overall"] == "pass"
    assert doc["lam_tau"]["overall"] == "fail"


def test_azumaya_generalized_verdicts(capsys, tmp_path):
    code, out, _ = run(capsys, ["azumaya", "--file", defpath("azumaya_dg.def"),
                                "--flavor", "generalized", "--window=-6:6",
                                "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["A3v"]["overall"] == "pass" and doc["A5v"]["overall"] == "pass"
    assert doc["A2v"]["overall"] == "fail" and doc["A3_0"]["overall"] == "fail"


def test_mu_image_output(capsys, tmp_path):
    code, out, _ = run(capsys, ["mu-image", "--file", defpath("azumaya_dg.def"),
                                "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["A3v"]["is_unit"] == "true"
    assert doc["A3_0"]["coefficient"] == 0


def test_homology_z_mod_p_pattern(capsys, tmp_path):
    code, out, _ = run(capsys, ["homology", "--file", defpath("azumaya_dg.def"),
                                "--window=0:0", "--format", "json"], tmp_path)
    assert code == 0
    doc = json.loads(out)
    assert doc["A3v"]["rows"] == [[0, 0, 0, "3"]]


def test_morita_roundtrip_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, ["morita", "--file", defpath("etale.def"),
                                "--check", "roundtrip"], tmp_path)
    assert code == 0
    assert out.count("pass (corpus-verified)") == 3


def test_morita_torsion_subcommand(capsys, tmp_path):
    code, out, _ = run(capsys, ["morita", "--file", defpath("etale.def"),
                                "--check", "torsion"], tmp_path)
    assert code == 0 and "pass (corpus-verified)" in out


# E_R = F3{e0, e1} in degrees 0 and 2 over R = F3<a, b>/(a^2, b^2, ab + ba - 1),
# |a| = 2 and |b| = -2: the completion of R sits in degrees -2, 0, 2, so
# its class at (0, t) is compared with R's degree -t
GRADED_CLIFFORD = os.path.join(os.path.dirname(__file__), "data", "graded_clifford.def")


@pytest.mark.parametrize("window", ["-1:5", "-5:1", "-16:16"])
def test_morita_completion_compares_each_class_in_its_own_degree(capsys, tmp_path, window):
    code, out, _ = run(capsys, ["morita", "--file", GRADED_CLIFFORD, "--check", "completion",
                                f"--window={window}"], tmp_path)
    assert code == 0 and "in-window equivalence\tpass (corpus-verified)" in out


@pytest.mark.parametrize("window", ["-1:5", "-5:1", "-16:16"])
def test_morita_torsion_passes_on_an_asymmetric_window(capsys, tmp_path, window):
    code, out, _ = run(capsys, ["morita", "--file", GRADED_CLIFFORD, "--check", "torsion",
                                f"--window={window}"], tmp_path)
    assert code == 0 and "pass (corpus-verified)" in out


def test_morita_torsion_and_completion_agree_on_a_window_of_positive_degrees(capsys,
                                                                            tmp_path):
    # 5:9 holds no class of etale.def: both verdicts would compare empty
    # ranges, completion over degrees -9..-5 and torsion over 0..-5
    for check, span in (("completion", "-9..-5"), ("torsion", "0..-5")):
        code, out, err = run(capsys, ["morita", "--file", defpath("etale.def"), "--check", check,
                                      "--window=5:9"], tmp_path)
        assert (code, out) == (2, ""), check
        assert err == f"error: no degree of the module or its table lies in {span}\n"


def test_morita_roundtrip_refuses_a_window_with_no_degree(capsys, tmp_path):
    # neither F(G(Y)) nor Y has a degree in 5..9, on either module of etale.def:
    # the two rank dicts would both be empty
    code, out, err = run(capsys, ["morita", "--file", defpath("etale.def"), "--check",
                                  "roundtrip", "--window=5:9"], tmp_path)
    assert (code, out, err) == (2, "", "error: no degree of Y or F(G(Y)) lies in 5..9\n")
    code, out, _ = run(capsys, ["morita", "--file", defpath("etale.def"), "--check",
                                "roundtrip", "--window=0:9"], tmp_path)
    assert code == 0 and out.count("roundtrip F.G on ") == 2
    assert "fail" not in out


@pytest.mark.parametrize("check", ["completion", "roundtrip", "torsion"])
def test_morita_emits_one_document_for_two_tasks(capsys, tmp_path, check):
    # a second task on a copy of E_R: JSON is one document holding both
    # contexts, and TSV is the two contexts' single-task outputs in task order
    with open(defpath("etale.def")) as fh:
        doc = json.load(fh)
    doc["modules"]["E_R2"] = doc["modules"]["E_R"]
    doc["tasks"].append({**doc["tasks"][0], "E_R": "E_R2"})
    two = tmp_path / "two.def"
    two.write_text(json.dumps(doc))
    argv = ["morita", "--file", str(two), "--check", check]
    code, out, err = run(capsys, argv + ["--format", "json"], tmp_path / "a")
    _, single, _ = run(capsys, ["morita", "--file", defpath("etale.def"), "--check", check,
                                "--format", "json"], tmp_path / "b")
    one = json.loads(single)["R|A|E_R"]
    assert (code, err) == (0, "")
    assert json.loads(out) == {"R|A|E_R": one, "R|A|E_R2": one}
    code, out, _ = run(capsys, argv, tmp_path / "c")
    _, single, _ = run(capsys, ["morita", "--file", defpath("etale.def"), "--check", check],
                       tmp_path / "d")
    assert code == 0 and out == single + single.replace("R|A|E_R", "R|A|E_R2")


def test_morita_tasks_differing_only_in_E_A_are_two_contexts(capsys, tmp_path, monkeypatch):
    # two tasks sharing R, A and E_R: each context is named and cached with
    # its E_A, so neither is served the other's completion table
    import hhalg.morita as morita

    with open(defpath("etale.def")) as fh:
        doc = json.load(fh)
    doc["modules"]["E_A2"] = doc["modules"]["E_A"]
    doc["tasks"].append({**doc["tasks"][0], "E_A": "E_A2"})
    two = tmp_path / "two.def"
    two.write_text(json.dumps(doc))
    calls = []
    real = morita.functor_G

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(morita, "functor_G", counting)
    argv = ["morita", "--file", str(two), "--format", "json"]
    cold = run(capsys, argv, tmp_path / "c")
    assert cold[0] == 0 and len(calls) == 2
    _, single, _ = run(capsys, ["morita", "--file", defpath("etale.def"), "--format", "json"],
                       tmp_path / "d")
    one = json.loads(single)["R|A|E_R"]
    assert json.loads(cold[1]) == {"R|A|E_R|E_A": one, "R|A|E_R|E_A2": one}
    assert run(capsys, argv, tmp_path / "c") == cold
    code, out, _ = run(capsys, argv[:-2], tmp_path / "c")
    assert code == 0 and out.count("# R|A|E_R|E_A\n") == out.count("# R|A|E_R|E_A2\n") == 2


@pytest.mark.parametrize("check", ["completion", "torsion"])
def test_morita_derived_checks_exit_two_without_a_resolution_stage(capsys, tmp_path, check):
    # with --smax 0 the derived Hom would report no degree at all, an empty
    # table that reads as G(F(M)) = 0
    code, out, err = run(capsys, ["morita", "--file", defpath("etale.def"), "--check", check,
                                  "--smax", "0"], tmp_path)
    assert (code, out) == (2, "")
    assert err == "error: derived Hom needs s_max >= 1 to report degree 0, got 0\n"


def test_morita_checks_each_module_once(capsys, tmp_path, monkeypatch):
    import hhalg.resolve as resolve

    checked = []
    real = resolve.check_action

    def counting(algebra, module, maps):
        checked.append((algebra.monomials, module.generators))
        return real(algebra, module, maps)

    monkeypatch.setattr(resolve, "check_action", counting)
    code, _, _ = run(capsys, ["morita", "--file", defpath("etale.def")], tmp_path)
    assert code == 0
    # E_R over R = F3[t]/(t^2 - t) and E_A over the scalars, one check each
    on_e = sorted(m for m, gens in checked if gens == (("e", 0),))
    assert on_e == [(("1", 0),), (("1", 0), ("t", 0))]


def test_morita_warm_completion_builds_no_functor(capsys, tmp_path, monkeypatch):
    import hhalg.morita as morita

    argv = ["morita", "--file", defpath("etale.def")]
    cold = run(capsys, argv, tmp_path)
    calls = []
    real = morita.functor_G

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(morita, "functor_G", counting)
    warm = run(capsys, argv, tmp_path)
    assert cold[0] == 0 and warm == cold
    # the cached table is judged as it stands: G is not built again
    assert len(calls) == 0


def test_morita_module_failing_its_axioms(capsys, tmp_path):
    with open(defpath("etale.def")) as fh:
        doc = json.load(fh)
    doc["modules"]["E_R"]["action"]["t"] = [[0, 0, 2]]  # t^2 = t fails: 4 != 2
    bad = tmp_path / "bad.def"
    bad.write_text(json.dumps(doc))
    for check in ("completion", "roundtrip"):
        code, out, err = run(capsys, ["morita", "--file", str(bad), "--check", check],
                             tmp_path)
        assert (code, out, err) == (1, "", "error: left action fails on pair (1,1)\n")
    doc["modules"]["E_R"].update({"over": "A", "action": {}})
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["morita", "--file", str(bad)], tmp_path)
    assert (code, err) == (1, "error: E_R and E_A must be modules over R and A\n")


@pytest.mark.parametrize("key", ["algebras", "modules"])
def test_exit_one_when_algebras_or_modules_is_not_an_object(capsys, tmp_path, key):
    doc = {"base": {"ground": "F3"}, "algebras": {}, key: []}
    bad = tmp_path / "bad.def"
    bad.write_text(json.dumps(doc))
    for command in COMMANDS:
        code, out, err = run(capsys, [command, "--file", str(bad)], tmp_path)
        assert (code, out, err) == (1, "", f"error: '{key}' must be a JSON object\n")


# parse_definition checks every module entry and task, so each subcommand
# refuses these, not only morita, which builds the modules
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["modules"]["E_R"]["action"].update(t=[[5, 0, 1]]),
     "module 'E_R': action entry [5, 0, 1] of 't' indexes outside 0..0"),
    (lambda doc: doc["modules"]["E_R"]["action"].update(z=[[0, 0, 1]]),
     "module 'E_R': action key 'z' is not a generator of 'R'"),
    (lambda doc: doc["algebras"].update(R={"dg": {"x": 3, "w": 0}}),
     "module 'E_R': modules over dg entries are not supported"),
    (lambda doc: doc["tasks"][0].pop("E_A"), "morita task missing 'E_A'"),
    (lambda doc: doc["tasks"][0].update(R="A"), "E_R and E_A must be modules over R and A"),
    (lambda doc: doc["tasks"].append({"command": "ext", "algebra": "R"}),
     "task 1: unknown command 'ext'"),
    (lambda doc: doc["tasks"][0].update(algebra="R"), "task 0: unknown keys ['algebra']"),
    (lambda doc: doc["tasks"][0].update(module="E_R"), "task 0: unknown keys ['module']"),
    (lambda doc: doc["tasks"][0].update(smax=3), "task 0: unknown keys ['smax']"),
], ids=["index", "unknown-key", "over-dg", "missing-E_A", "over-R-and-A", "ext-task",
        "algebra-key", "module-key", "smax-key"])
def test_every_subcommand_refuses_a_bad_module_or_task(capsys, tmp_path, edit, message):
    doc = corpus_doc("etale.def")
    edit(doc)
    bad = tmp_path / "bad.def"
    bad.write_text(json.dumps(doc))
    for command in COMMANDS:
        code, out, err = run(capsys, [command, "--file", str(bad)], tmp_path)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_exit_one_on_an_action_of_a_product_monomial(capsys, tmp_path):
    # over the exterior algebra on x, y an action given on x*y used to be
    # dropped: 1 and 2 built the same module, and morita ran on it
    doc = {"base": {"ground": "F3"},
           "algebras": {"lam": {"generators": [["x", -1], ["y", -1]],
                                "relations": ["x^2", "y^2", "x*y + y*x"]}},
           "modules": {"M": {"over": "lam", "generators": [["a", 0], ["b", -1],
                                                           ["c", -1], ["d", -2]],
                             "action": {"x*y": [[3, 0, 1]]}}}}
    bad = tmp_path / "bad.def"
    for coeff in (1, 2):
        doc["modules"]["M"]["action"]["x*y"] = [[3, 0, coeff]]
        bad.write_text(json.dumps(doc))
        with pytest.raises(DefinitionError, match="action key 'x\\*y' is not a generator"):
            parse_definition(bad.read_text())
        code, out, err = run(capsys, ["ext", "--file", str(bad)], tmp_path)
        assert (code, out, err) == (
            1, "", "error: module 'M': action key 'x*y' is not a generator of 'lam'\n")


def test_parse_definition_rejects_a_negative_action_index():
    # on a rank-2 module Python would read -1 as 1, the index of b
    doc = copy.deepcopy(LAM_X_MODULE)
    df = parse_definition(json.dumps(doc))
    built = {"lam_x": build_algebra(df, "lam_x")}
    assert build_module(df, "M", built).module.rank == 2
    doc["modules"]["M"]["action"]["x"] = [[-1, 0, 1]]
    with pytest.raises(DefinitionError,
                       match=r"module 'M': action entry \[-1, 0, 1\] of 'x' indexes outside 0..1"):
        parse_definition(json.dumps(doc))


@pytest.mark.parametrize("name, path, value", [
    ("etale.def", ("tasks",), 5),
    ("etale.def", ("algebras", "R", "generators"), 5),
    ("etale.def", ("algebras", "R", "relations"), 5),
    ("etale.def", ("modules", "E_R", "action"), [1]),
    ("etale.def", ("modules", "E_R", "action"), {"t": 5}),
    ("etale.def", ("base",), {"ground": 5}),
    ("azumaya_dg.def", ("algebras", "A3v", "dg", "x_degree"), "z"),
    ("etale.def", ("tasks", 0, "R"), ["a"]),
], ids=["tasks", "generators", "relations", "action-list", "action-entries", "ground",
        "dg-x_degree", "task-name"])
def test_exit_one_on_a_malformed_definition_shape(capsys, tmp_path, name, path, value):
    with open(defpath(name)) as fh:
        doc = json.load(fh)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.def"
    bad.write_text(json.dumps(doc))
    with pytest.raises(DefinitionError):
        parse_definition(bad.read_text())
    code, out, err = run(capsys, ["ext", "--file", str(bad)], tmp_path)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_exit_one_on_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["ext", "--file", "no-such.def"], tmp_path)
    assert code == 1 and "error" in err


def test_exit_one_on_a_file_that_is_not_utf8(capsys, tmp_path):
    bad = tmp_path / "bad.def"
    bad.write_bytes(b"\xff\xfe{")
    for _ in ("cold", "warm"):
        code, out, err = run(capsys, ["ext", "--file", str(bad)], tmp_path / "c")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "can't decode byte 0xff" in err
        assert err.count("\n") == 1


def test_exit_one_on_bad_definition(capsys, tmp_path):
    bad = tmp_path / "bad.def"
    bad.write_text('{"base": {"ground": "F3"}, "algebras": '
                   '{"a": {"generators": [["x", 0]], "relations": ["x*zz"]}}}')
    code, _, err = run(capsys, ["ext", "--file", str(bad)], tmp_path)
    assert code == 1 and "unknown symbol" in err


def test_exit_two_on_window_too_small(capsys, tmp_path):
    # every flavor, classical included, runs the one mu condition: a DG window
    # short of the Laurent period is refused, not judged on one degree
    for flavor in ("classical", "generalized", "weak"):
        code, out, err = run(capsys, ["azumaya", "--file", defpath("azumaya_dg.def"),
                                      "--flavor", flavor, "--window=0:0"], tmp_path)
        assert (code, out, err) == (
            2, "", "error: window (0, 0) shorter than the Laurent period 2\n")


def test_exit_two_on_hochschild_budget(capsys, tmp_path):
    code, out, _ = run(capsys, BUDGET_STOP, tmp_path)
    assert code == 2
    assert "budget" in out


def test_a_separable_algebra_meets_any_budget_that_fits_degree_zero(capsys, tmp_path):
    # the matrix algebras take the witness route: the bar is cut at n = 0,
    # whose terms hold 4 and 12 cochain generators, and nothing above is built
    argv = ["hochschild", "--file", defpath("matrix.def"), "--nmax", "3"]
    plain = run(capsys, argv, tmp_path / "plain")
    assert plain[0] == 0 and "note" not in plain[1]
    assert run(capsys, argv + ["--budget", "12"], tmp_path / "12") == plain
    assert run(capsys, argv + ["--budget", "11"], tmp_path / "11") == (
        2, "", "error: budget too small for any cochain degree\n")


def test_hochschild_exit_code_follows_the_typed_budget_field(capsys, tmp_path, monkeypatch):
    # each run gets its own cache directory: a patched engine keeps the
    # engine version, so a shared one would replay the first run
    argv = ["hochschild", "--file", defpath("matrix.def"), "--nmax", "3"]
    code, out, _ = run(capsys, argv, tmp_path / "plain")
    assert code == 0 and "budget" not in out
    code, out, _ = run(capsys, BUDGET_STOP, tmp_path / "budget")
    assert code == 2
    assert all(out.count(note) == 1 for note in BUDGET_NOTES)
    # a note that mentions a budget is text; only completed_through is a verdict
    real = hochschild.hochschild_cohomology

    def noted(*args, **kwargs):
        table = real(*args, **kwargs)
        table.notes = ("budget comfortably met",)
        return table

    monkeypatch.setattr("hhalg.hochschild.hochschild_cohomology", noted)
    code, out, _ = run(capsys, argv, tmp_path / "noted")
    assert code == 0 and "budget comfortably met" in out

    def cut(*args, **kwargs):
        table = real(*args, **kwargs)
        table.completed_through = 2
        return table

    monkeypatch.setattr("hhalg.hochschild.hochschild_cohomology", cut)
    assert run(capsys, argv, tmp_path / "cut")[0] == 2


def test_polytrunc_runs_past_n2_on_anick_chains(capsys, tmp_path):
    # F3[y]/y^20 is monomial: one chain per degree, where the bar had 19^n
    # words and stopped on the default budget after n = 2 (exit 2 at --nmax 3)
    argv = ["hochschild", "--file", defpath("polytrunc.def")]
    _, two, _ = run(capsys, argv + ["--nmax", "2"], tmp_path)
    code, three, err = run(capsys, argv + ["--nmax", "3"], tmp_path)
    assert (code, err) == (0, "") and "note" not in three
    rows = [line.split("\t") for line in three.splitlines()[2:]]
    assert {row[0] for row in rows} == {"0", "1", "2", "3"}
    assert [r for r in rows if r[0] != "3"] == [line.split("\t") for line in two.splitlines()[2:]]
    code, eight, err = run(capsys, argv + ["--nmax", "8"], tmp_path)
    assert (code, err) == (0, "") and "note" not in eight
    assert eight.startswith(three)


def test_matrix_def_runs_to_n40_on_the_separability_witness(capsys, tmp_path):
    # M2(F3) and M2(F5) are separable: HH^0 alone, where the bar had 4 * 3^n
    # cochain generators at term n and stopped on the default budget
    argv = ["hochschild", "--file", defpath("matrix.def")]
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), "..", "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "hhalg.cli", *argv, "--nmax", "40",
                           "--cache-dir", str(tmp_path / "cold")],
                          capture_output=True, text=True, env=env, timeout=120)
    cold_s = time.perf_counter() - start
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == run(capsys, argv + ["--nmax", "3"], tmp_path)[1] == (
        "# M2_F3\ns\tt\tfree_rank\ttorsion\n0\t0\t1\t-\n"
        "# M2_F5\ns\tt\tfree_rank\ttorsion\n0\t0\t1\t-\n")
    assert cold_s < 1, f"a cold hochschild --nmax 40 on matrix.def took {cold_s:.2f}s"


def test_the_budget_help_counts_cochain_generators(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")
    with pytest.raises(SystemExit):
        build_parser().parse_args(["hochschild", "--help"])
    assert "cochain generator budget per degree" in capsys.readouterr().out


def test_exit_two_when_the_budget_fits_no_cochain_degree(capsys, tmp_path):
    code, out, err = run(capsys, ["hochschild", "--file", defpath("matrix.def"),
                                  "--budget", "1"], tmp_path)
    assert (code, out, err) == (2, "", "error: budget too small for any cochain degree\n")


@pytest.mark.parametrize("command,flag,value", [
    ("ext", "--smax", "-1"),
    ("hochschild", "--nmax", "-1"),
    ("hochschild", "--budget", "0"),
    ("morita", "--smax", "-3"),
])
def test_exit_one_on_a_negative_bound(capsys, tmp_path, command, flag, value, monkeypatch):
    def refuse(*_):
        raise AssertionError("a bound was not checked before computing")

    monkeypatch.setattr("hhalg.defs.parse_definition", refuse)
    code, out, err = run(capsys, [command, "--file", defpath("exterior1.def"), flag, value],
                         tmp_path)
    least = 1 if flag == "--budget" else 0
    assert (code, out, err) == (1, "", f"error: {flag} must be at least {least}, got {value}\n")


def test_exit_three_when_the_bar_differential_fails_d_squared(capsys, tmp_path, monkeypatch):
    # flip the sign of the inner faces, the (1 (x) 1) coefficients of the bar
    # differential: d^2 then fails on the exterior algebras, which take the
    # bar (the matrix algebras are separable and stop the bar at n = 0)
    real = hochschild.bar_resolution

    def inner_faces_flipped(A, Ae, top):
        res = real(A, Ae, top)
        one, g = Ae.unit_index, A.base.ground
        res.maps = [AModuleMap(d.source, d.target, [
            {k: g.normalize(-c) if k % Ae.rank == one else c for k, c in image.items()}
            for image in d.images]) for d in res.maps]
        return res

    monkeypatch.setattr(hochschild, "bar_resolution", inner_faces_flipped)
    code, out, err = run(capsys, ["hochschild", "--file", defpath("exterior_n.def"),
                                  "--nmax", "2"], tmp_path)
    assert (code, out) == (3, "")
    assert err.startswith("error: bar differential fails d^2 = 0 at n = ")
    assert err.count("\n") == 1


# recorded from the earlier, independently hand-built bar cochains: an
# asymmetric window checks that the bar table reads the Hom cochains'
# degree t at -t
EXTERIOR_N_WINDOW_ROWS = {
    "lam_2": [(0, -2, 1), (0, -1, 2), (0, 0, 1), (1, -1, 2), (1, 0, 4), (1, 1, 2),
              (2, 0, 3), (2, 1, 6)],
    "lam_3": [(0, -3, 1), (0, -2, 3), (0, -1, 3), (0, 0, 1), (1, -2, 3), (1, -1, 9),
              (1, 0, 9), (1, 1, 3), (2, -1, 6), (2, 0, 18), (2, 1, 18)],
}


def test_hochschild_on_an_asymmetric_window_tsv(capsys, tmp_path):
    code, out, err = run(capsys, ["hochschild", "--file", defpath("exterior_n.def"),
                                  "--nmax", "2", "--window=-3:1"], tmp_path)
    want = "".join(
        f"# {name}\ns\tt\tfree_rank\ttorsion\n"
        + "".join(f"{s}\t{t}\t{r}\t-\n" for s, t, r in rows)
        for name, rows in EXTERIOR_N_WINDOW_ROWS.items())
    assert (code, out, err) == (0, want, "")


def test_hochschild_on_an_asymmetric_window_json(capsys, tmp_path):
    code, out, err = run(capsys, ["hochschild", "--file", defpath("exterior_n.def"),
                                  "--nmax", "2", "--window=-3:1", "--format", "json"],
                         tmp_path)
    doc = {name: {"notes": [], "rows": [[s, t, r, "-"] for s, t, r in rows]}
           for name, rows in EXTERIOR_N_WINDOW_ROWS.items()}
    assert (code, out, err) == (0, json.dumps(doc, indent=2, sort_keys=True) + "\n", "")


def test_exit_two_on_diverging_monomial_basis(capsys, tmp_path):
    free = tmp_path / "free.def"
    free.write_text(json.dumps({
        "base": {"ground": "F3"},
        "algebras": {"big": {"generators": [["a", 1], ["b", 1]],
                             "relations": [], "truncation": 40}},
    }))
    code, out, err = run(capsys, ["ext", "--file", str(free)], tmp_path)
    assert (code, out) == (2, "")
    assert err == ("error: algebra 'big': monomial basis diverges past 4096; "
                   "add relations or a truncation bound\n")


@pytest.mark.parametrize("ground, generators, relations", [
    ("F3", [["x", 1]], ["2"]),
    ("F3", [["x", 0]], ["x - 1", "x"]),
    ("F3", [], ["1"]),
])
def test_exit_one_on_relations_that_force_one_to_be_zero(capsys, tmp_path, ground, generators,
                                                          relations):
    path = tmp_path / "zero.def"
    path.write_text(json.dumps({"base": {"ground": ground}, "algebras": {
        "a": {"generators": generators, "relations": relations}}}))
    code, out, err = run(capsys, ["hochschild", "--file", str(path), "--nmax", "1"], tmp_path)
    assert (code, out, err) == (1, "", "error: algebra 'a': relations force 1 = 0\n")


@pytest.mark.parametrize("name, laurent, why", [
    ("a*b", None, "is not an identifier"),
    ("1", None, "is not an identifier"),
    ("v", {"name": "v", "degree": 2}, "is the Laurent generator's"),
])
def test_exit_one_on_a_generator_name_the_relations_cannot_spell(capsys, tmp_path, name,
                                                                  laurent, why):
    # a relation spells a generator as one identifier, and realize labels a
    # product 'a*b', so a generator named 'a*b' would read as a product;
    # a generator named v would read as the Laurent unit in "v^2"
    base = {"ground": "F2"} if laurent is None else {"ground": "F2", "laurent": laurent}
    path = tmp_path / "names.def"
    path.write_text(json.dumps({"base": base, "algebras": {
        "fine": {"generators": [["x", 2]], "relations": ["x^2"]},
        "a": {"generators": [[name, 2]], "truncation": 3}}}))
    code, out, err = run(capsys, ["hochschild", "--file", str(path), "--nmax", "1"], tmp_path)
    assert (code, out, err) == (1, "", f"error: algebra 'a': generator name {name!r} {why}\n")


def test_a_generator_named_like_a_product_keeps_its_module_action():
    df = parse_definition(json.dumps(AB_MODULE))
    built = {"lam": build_algebra(df, "lam")}
    M = build_module(df, "M", built)
    ab = [n for n, _ in built["lam"].monomials].index("ab")
    assert M.act_map(ab).entries == {(1, 0): 1}


def test_a_realize_error_names_its_algebra_among_several(capsys, tmp_path):
    path = tmp_path / "two.def"
    path.write_text(json.dumps({"base": {"ground": "Z"}, "algebras": {
        "fine": {"generators": [["x", 2]], "relations": ["x^2"]},
        "bad": {"generators": [["x", 2]], "relations": ["2*x"]}}}))
    code, out, err = run(capsys, ["hochschild", "--file", str(path), "--nmax", "1"], tmp_path)
    assert (code, out) == (1, "")
    assert err == ("error: algebra 'bad': relation leading coefficient 2 is not a unit; "
                   "cannot orient\n")


def test_a_dg_entry_error_names_its_entry(capsys, tmp_path):
    path = tmp_path / "dg.def"
    path.write_text(json.dumps({"base": {"ground": "Z"}, "algebras": {
        "fine": {"dg": {"x": 3, "w": 0}},
        "q": {"dg": {"x": 0, "w": 0}}}}))
    code, out, err = run(capsys, ["homology", "--file", str(path)], tmp_path)
    assert (code, out, err) == (1, "", "error: algebra 'q': x is a zero divisor\n")


def test_exit_one_on_an_exponent_past_the_monomial_cap(capsys, tmp_path):
    path = tmp_path / "power.def"
    path.write_text(json.dumps({"base": {"ground": "F3"}, "algebras": {
        "a": {"generators": [["x", 1]], "relations": ["x^4097"]}}}))
    code, out, err = run(capsys, ["hochschild", "--file", str(path), "--nmax", "1"], tmp_path)
    assert (code, out) == (1, "")
    assert err == "error: algebra 'a', relation 0: column 2: exponent 4097 exceeds 4096\n"


# a flag each subcommand does not read
IGNORED_FLAGS = {"ext": ["--nmax", "3"], "hochschild": ["--smax", "3"],
                 "homology": ["--budget", "9"], "mu-image": ["--window=0:0"],
                 "azumaya": ["--check", "torsion"], "morita": ["--flavor", "weak"]}


@pytest.mark.parametrize("command", sorted(IGNORED_FLAGS))
def test_each_subcommand_parses_only_the_flags_it_reads(capsys, command):
    argv = [command, "--file", defpath("etale.def")]
    with pytest.raises(SystemExit) as exc:
        main(argv + IGNORED_FLAGS[command])
    out = capsys.readouterr()
    assert (exc.value.code, out.out) == (2, "")
    assert "unrecognized arguments: " + " ".join(IGNORED_FLAGS[command]) in out.err
    # the benchmark appends --cache-dir to every corpus command
    assert build_parser().parse_args(argv + ["--cache-dir", "d"]).cache_dir == "d"


# -- the bundled corpus against its recorded output -------------------------------------

with open(REFERENCES) as fh:
    CLI_CORPUS = json.load(fh)["cli_corpus"]


def corpus_argv(command):
    argv = command.split()
    i = argv.index("--file") + 1
    argv[i] = defpath(argv[i])
    return argv


@pytest.mark.parametrize("command", sorted(CLI_CORPUS))
def test_corpus_command_matches_recorded_output(capsys, tmp_path, command):
    assert list(run(capsys, corpus_argv(command), tmp_path)) == CLI_CORPUS[command]


@pytest.mark.parametrize("command", sorted(CLI_CORPUS))
def test_corpus_command_replays_its_recorded_output_warm(capsys, tmp_path, command):
    runs = [list(run(capsys, corpus_argv(command), tmp_path)) for _ in ("cold", "warm")]
    assert runs == [CLI_CORPUS[command]] * 2


# recorded before the verdict layer was rebuilt around one mu condition, one
# Morita context and one derived Hom: every azumaya flavor in TSV and JSON, and
# each morita check cold, then warm from the same cache
with open(os.path.join(os.path.dirname(__file__), "golden_verdicts.json")) as fh:
    GOLDEN_VERDICTS = json.load(fh)


@pytest.mark.parametrize("command", sorted({key.split(" [")[0] for key in GOLDEN_VERDICTS}))
def test_verdict_command_matches_golden_output(capsys, tmp_path, command):
    phases = [f"{command} [{phase}]" for phase in ("cold", "warm")]
    keys = phases if phases[0] in GOLDEN_VERDICTS else [command]
    got = {key: list(run(capsys, corpus_argv(command), tmp_path)) for key in keys}
    assert got == {key: GOLDEN_VERDICTS[key] for key in keys}
