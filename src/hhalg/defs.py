"""Definition files: a strict JSON format for bases, algebras, and modules.

A definition document has top-level keys `base`, `algebras`, `modules`,
`tasks`.  `parse_definition` alone checks a document: a module acts by
its generators' entries on generators of a graded `over` entry, and a task
is a morita task with exactly the keys command, R, A, E_R and E_A; the
`build_*` functions only build, and they alone import the engine (algebra,
base, dg, resolve), so parsing a document loads none of it.  Relations use
a noncommutative grammar:

    expr    = [ "-" ] term { ("+" | "-") term } ;
    term    = factor { "*" factor } ;
    factor  = atom [ "^" [ "-" ] integer ] ;
    atom    = integer | identifier | "(" expr ")" ;

Identifiers are generator names or the Laurent generator; negative powers
are allowed on the Laurent generator only, and a positive exponent may not
exceed `MAX_EXPONENT`.  Every relation must be homogeneous; violations
report both offending degrees.
"""

from __future__ import annotations

import json

from .ground import GroundRing, Record


class DefinitionError(Exception):
    def __init__(self, message, line=None, col=None):
        self.line, self.col = line, col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        elif col is not None:
            message = f"column {col}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# relation expressions


def _tokenize(text):
    toks, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "+-*^()":
            toks.append((c, c, i))
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
        else:
            raise DefinitionError(f"unexpected character {c!r}", col=i)
    toks.append(("end", None, len(text)))
    return toks


class _RelParser:
    """Recursive descent over the relation grammar; values are polynomials
    {(word, vexp): int} with words as tuples of generator names."""

    def __init__(self, text, gen_names, laurent):
        self.toks = _tokenize(text)
        self.pos = 0
        self.gens = set(gen_names)
        self.laurent = laurent

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        k, v, c = self.toks[self.pos]
        if kind is not None and k != kind:
            raise DefinitionError(f"expected {kind}, found {k!r}", col=c)
        self.pos += 1
        return k, v, c

    def parse(self):
        p = self.expr()
        k, _, c = self.peek()
        if k != "end":
            raise DefinitionError(f"trailing input at {k!r}", col=c)
        return p

    def expr(self):
        neg = False
        if self.peek()[0] == "-":
            self.take()
            neg = True
        p = self.term()
        if neg:
            p = _pneg(p)
        while self.peek()[0] in ("+", "-"):
            op, _, _ = self.take()
            q = self.term()
            p = _padd(p, q if op == "+" else _pneg(q))
        return p

    def term(self):
        p = self.factor()
        while self.peek()[0] == "*":
            self.take()
            p = _pmul(p, self.factor())
        return p

    def factor(self):
        p, col = self.atom()
        if self.peek()[0] == "^":
            self.take()
            sign = 1
            if self.peek()[0] == "-":
                self.take()
                sign = -1
            _, e, ecol = self.take("int")
            p = _ppow(p, sign * e, col if sign < 0 else ecol)
        return p

    def atom(self):
        k, v, c = self.peek()
        if k == "int":
            self.take()
            return {((), 0): v}, c
        if k == "ident":
            self.take()
            if self.laurent and v == self.laurent:
                return {((), 1): 1}, c
            if v not in self.gens:
                raise DefinitionError(f"unknown symbol {v!r}", col=c)
            return {((v,), 0): 1}, c
        if k == "(":
            self.take()
            p = self.expr()
            self.take(")")
            return p, c
        raise DefinitionError(f"expected a term, found {k!r}", col=c)


# A power is multiplied out factor by factor, so its exponent is capped, at
# realize's monomial cap: past it, x^e alone leaves too many monomials of x
MAX_EXPONENT = 4096


def _padd(p, q):
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, 0) + c
        if out[k] == 0:
            del out[k]
    return out


def _pneg(p):
    return {k: -c for k, c in p.items()}


def _pmul(p, q):
    out = {}
    for (w1, v1), c1 in p.items():
        for (w2, v2), c2 in q.items():
            k = (w1 + w2, v1 + v2)
            out[k] = out.get(k, 0) + c1 * c2
            if out[k] == 0:
                del out[k]
    return out


def _ppow(p, e, col):
    if e > MAX_EXPONENT:
        raise DefinitionError(f"exponent {e} exceeds {MAX_EXPONENT}", col=col)
    if e >= 0:
        out = {((), 0): 1}
        for _ in range(e):
            out = _pmul(out, p)
        return out
    if len(p) == 1:
        ((w, v), c), = p.items()
        if not w and c in (1, -1):
            return {((), v * e): c ** (e % 2 or 2) if c == -1 else 1}
    raise DefinitionError(
        "negative powers are only allowed on the Laurent generator", col=col
    )


def parse_relation(text, gen_names, laurent=None):
    """Canonical term list ((coeff, word, vexp), ...) of a relation string."""
    poly = _RelParser(text, gen_names, laurent).parse()
    return tuple(sorted(
        (c, w, v) for (w, v), c in poly.items()
    ))


# ---------------------------------------------------------------------------
# definition documents


class DefinitionFile(Record):
    """A parsed definition in canonical form: names, relation terms, action
    entries and task items are sorted, so files that differ only in spacing
    or order parse to equal values; algebras holds (name, spec) pairs, specs as dicts of canonical tuples."""

    _fields = ("base", "algebras", "modules", "tasks")

    def __init__(self, base: tuple, algebras: tuple, modules: tuple, tasks: tuple):
        self.base, self.algebras, self.modules, self.tasks = base, algebras, modules, tasks


def _parse_base(doc, where):
    if not isinstance(doc, dict) or "ground" not in doc:
        raise DefinitionError(f"{where}: base needs a 'ground' key")
    ground = doc["ground"]
    if not isinstance(ground, str) or ground not in ("Z", "Q") and not (
        ground.startswith("F") and ground[1:].isdigit()
    ):
        raise DefinitionError(f"{where}: unknown ground ring {ground!r}")
    laurent = None
    if "laurent" in doc:
        l = doc["laurent"]
        if not isinstance(l, dict) or "name" not in l or "degree" not in l:
            raise DefinitionError(f"{where}: laurent needs 'name' and 'degree'")
        if not isinstance(l["degree"], int) or l["degree"] <= 0 or l["degree"] % 2:
            raise DefinitionError(
                f"{where}: laurent degree must be a positive even integer"
            )
        laurent = (str(l["name"]), l["degree"])
    extra = set(doc) - {"ground", "laurent"}
    if extra:
        raise DefinitionError(f"{where}: unknown base keys {sorted(extra)}")
    return (ground, laurent)


def _parse_generators(doc, where):
    if not isinstance(doc, list):
        raise DefinitionError(f"{where}: generators are [name, degree] pairs")
    gens = []
    for gd in doc:
        if (not isinstance(gd, (list, tuple)) or len(gd) != 2
                or not isinstance(gd[1], int)):
            raise DefinitionError(f"{where}: generators are [name, degree] pairs")
        gens.append((str(gd[0]), gd[1]))
    names = [n for n, _ in gens]
    if len(set(names)) != len(names):
        raise DefinitionError(f"{where}: duplicate generator names")
    return tuple(gens)


def _check_homogeneous(terms, degs, laurent_deg, where):
    rel_deg = None
    for _, word, vexp in terms:
        d = sum(degs[n] for n in word) + vexp * (laurent_deg or 0)
        if vexp and not laurent_deg:
            raise DefinitionError(f"{where}: Laurent power over a plain base")
        if rel_deg is None:
            rel_deg = d
        elif d != rel_deg:
            raise DefinitionError(
                f"{where}: relation not homogeneous -- "
                f"term of degree {d} vs term of degree {rel_deg}"
            )


def parse_definition(text: str) -> DefinitionFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise DefinitionError(e.msg, line=e.lineno, col=e.colno) from None
    if not isinstance(doc, dict):
        raise DefinitionError("definition must be a JSON object")
    extra = set(doc) - {"base", "algebras", "modules", "tasks"}
    if extra:
        raise DefinitionError(f"unknown top-level keys {sorted(extra)}")
    if "base" not in doc or "algebras" not in doc:
        raise DefinitionError("definition needs 'base' and 'algebras'")
    for key in ("algebras", "modules"):
        if not isinstance(doc.get(key, {}), dict):
            raise DefinitionError(f"'{key}' must be a JSON object")
    if not isinstance(doc.get("tasks", []), (list, type(None))):
        raise DefinitionError("'tasks' must be a JSON array")
    base = _parse_base(doc["base"], "base")

    algebras = []
    for name, a in doc["algebras"].items():
        where = f"algebra {name!r}"
        if not isinstance(a, dict):
            raise DefinitionError(f"{where}: must be an object")
        abase = _parse_base(a["base"], where) if "base" in a else base
        spec = {}
        if "base" in a:
            spec["base"] = abase
        if "dg" in a:
            dg = a["dg"]
            extra = set(a) - {"dg", "base"}
            if extra:
                raise DefinitionError(f"{where}: unknown keys {sorted(extra)}")
            if (not isinstance(dg, dict)
                    or not {"x", "w"} <= set(dg)
                    or set(dg) - {"x", "w", "x_degree"}):
                raise DefinitionError(f"{where}: dg needs keys x, w [, x_degree]")
            if not all(isinstance(v, int) for v in dg.values()):
                raise DefinitionError(f"{where}: dg x, w and x_degree are integers")
            spec["dg"] = {"x": dg["x"], "w": dg["w"],
                          "x_degree": dg.get("x_degree", 0)}
        else:
            extra = set(a) - {"generators", "relations", "truncation", "base"}
            if extra:
                raise DefinitionError(f"{where}: unknown keys {sorted(extra)}")
            gens = _parse_generators(a.get("generators", []), where)
            degs = dict(gens)
            laurent = abase[1]
            for gname, _ in gens:
                # a relation spells a generator as one identifier
                try:
                    spelled = _tokenize(gname)[:-1] == [("ident", gname, 0)]
                except DefinitionError:
                    spelled = False
                if not spelled or gname == (laurent and laurent[0]):
                    why = "is the Laurent generator's" if spelled else "is not an identifier"
                    raise DefinitionError(f"{where}: generator name {gname!r} {why}")
            if not isinstance(a.get("relations", []), list):
                raise DefinitionError(f"{where}: relations are a list of strings")
            rels = []
            for i, r in enumerate(a.get("relations", [])):
                rwhere = f"{where}, relation {i}"
                try:
                    terms = parse_relation(str(r), degs,
                                           laurent[0] if laurent else None)
                except DefinitionError as e:
                    raise DefinitionError(f"{rwhere}: {e}") from None
                _check_homogeneous(terms, degs,
                                   laurent[1] if laurent else 0, rwhere)
                rels.append(terms)
            trunc = a.get("truncation")
            if trunc is not None and (not isinstance(trunc, int) or trunc <= 0):
                raise DefinitionError(f"{where}: truncation must be a positive integer")
            if gens and not rels and trunc is None:
                raise DefinitionError(
                    f"{where}: a free algebra requires a 'truncation' field"
                )
            spec.update({"generators": gens, "relations": tuple(rels),
                         "truncation": trunc})
        algebras.append((name, spec))
    if len({n for n, _ in algebras}) != len(algebras):
        raise DefinitionError("duplicate algebra names")

    alg_specs = dict(algebras)
    modules = []
    for name, m in doc.get("modules", {}).items():
        where = f"module {name!r}"
        if not isinstance(m, dict) or "over" not in m:
            raise DefinitionError(f"{where}: needs an 'over' key")
        if not isinstance(m["over"], str) or m["over"] not in alg_specs:
            raise DefinitionError(f"{where}: unknown algebra {m['over']!r}")
        extra = set(m) - {"over", "side", "generators", "action"}
        if extra:
            raise DefinitionError(f"{where}: unknown keys {sorted(extra)}")
        if m.get("side", "left") != "left":
            raise DefinitionError(f"{where}: side must be 'left'; a right module over S "
                                  "is a left module over the opposite of S")
        gens = _parse_generators(m.get("generators", []), where)
        if not isinstance(m.get("action") or {}, dict):
            raise DefinitionError(f"{where}: action maps generator names to entry lists")
        action = []
        for gname, entries in sorted((m.get("action") or {}).items()):
            if not isinstance(entries, list) or not all(
                    isinstance(e, list) and len(e) == 3 and all(isinstance(x, int) for x in e)
                    for e in entries):
                raise DefinitionError(f"{where}: action entries are [target, source, coeff]")
            action.append((str(gname), tuple(sorted(map(tuple, entries)))))
        over = alg_specs[m["over"]]
        if "dg" in over:
            raise DefinitionError(f"{where}: modules over dg entries are not supported")
        for gname, rows in action:
            if gname not in dict(over["generators"]):
                raise DefinitionError(
                    f"{where}: action key {gname!r} is not a generator of {m['over']!r}")
            for row in rows:
                if not all(0 <= i < len(gens) for i in row[:2]):
                    raise DefinitionError(f"{where}: action entry {list(row)} of "
                                          f"{gname!r} indexes outside 0..{len(gens) - 1}")
        modules.append((name, {"over": m["over"], "generators": gens,
                               "action": tuple(action)}))

    module_over = {n: spec["over"] for n, spec in modules}
    tasks = []
    for i, t in enumerate(doc.get("tasks") or []):
        if not isinstance(t, dict) or "command" not in t:
            raise DefinitionError(f"task {i}: needs a 'command' key")
        if t["command"] != "morita":
            raise DefinitionError(f"task {i}: unknown command {t['command']!r}")
        extra = set(t) - {"command", "R", "A", "E_R", "E_A"}
        if extra:
            raise DefinitionError(f"task {i}: unknown keys {sorted(extra)}")
        for key, val in t.items():
            pool = alg_specs if key in ("R", "A") else module_over
            if key != "command" and (not isinstance(val, str) or val not in pool):
                raise DefinitionError(f"task {i}: unknown name {val!r}")
        for key in ("R", "A", "E_R", "E_A"):
            if key not in t:
                raise DefinitionError(f"morita task missing {key!r}")
        if (module_over[t["E_R"]], module_over[t["E_A"]]) != (t["R"], t["A"]):
            raise DefinitionError("E_R and E_A must be modules over R and A")
        tasks.append(tuple(sorted(t.items())))

    # canonical order, so equal definitions parse to equal values
    algebras.sort(key=lambda kv: kv[0])
    modules.sort(key=lambda kv: kv[0])
    return DefinitionFile(base, tuple(algebras), tuple(modules), tuple(tasks))


# ---------------------------------------------------------------------------
# realization


def build_base(base_spec) -> BaseRing:
    from .base import BaseRing, LaurentGenerator

    ground, laurent = base_spec
    try:
        if ground == "Z":
            g = GroundRing.integers()
        elif ground == "Q":
            g = GroundRing.rationals()
        else:
            g = GroundRing.prime_field(int(ground[1:]))
    except ValueError as e:
        raise DefinitionError(str(e)) from None
    l = LaurentGenerator(laurent[0], laurent[1]) if laurent else None
    return BaseRing(g, l)


def build_algebra(df: DefinitionFile, name: str):
    """Realize one algebra entry: a GradedAlgebra, or a QuotientDGA for dg.

    An entry with generators but no relations is the free algebra truncated
    at the mandatory `truncation` bound (internal degrees past it vanish).
    """
    from .algebra import AlgebraPresentation, RealizeError, realize
    from .dg import make_quotient_dga

    spec = dict(df.algebras)[name]
    base = build_base(spec.get("base", df.base))
    # errors are named, of the same type, so a DivergenceError still exits 2
    if "dg" in spec:
        dg = spec["dg"]
        try:
            return make_quotient_dga(base, dg["x"], dg["w"], dg["x_degree"])
        except ValueError as e:
            raise type(e)(f"algebra {name!r}: {e}") from None
    pres = AlgebraPresentation(base, spec["generators"], spec["relations"],
                               spec["truncation"])
    try:
        return realize(pres)
    except RealizeError as e:
        raise type(e)(f"algebra {name!r}: {e}") from None


def build_module(df: DefinitionFile, name: str, built: dict) -> AModule:
    """Build a module entry that parse_definition accepted; AModule checks it.

    Generator actions, found by realize's labels of the generating monomials,
    extend along A.generation_steps(): s e_k = c e_m gives rho(e_m) =
    c^-1 rho(s) o rho(e_k).
    A generator that the relations rewrite away has no monomial of its own:
    in any module it acts as its normal form (A.rewritten) does, so its
    action is accepted exactly when it equals that one, once the module is
    checked.
    """
    from .base import GradedFreeModule, HomogeneousMap
    from .resolve import AModule

    spec = dict(df.modules)[name]
    A = built[spec["over"]]
    M = GradedFreeModule(A.base, spec["generators"])
    generator = {A.monomials[s][0]: s for s in A.generating_monomials}
    gen_maps = {}
    for gname, rows in spec["action"]:
        if gname in generator:
            s = generator[gname]
            gen_maps[s] = HomogeneousMap(M, M, A.degree(s), {(i, j): c for i, j, c in rows})
    action = {A.unit_index: HomogeneousMap.identity(M)}
    for m, s, k, c in A.generation_steps():
        if s in gen_maps and k in action:
            hm = gen_maps[s].compose(action[k])
            if not hm.is_zero():
                inv = A.base.ground.inv(c)
                action[m] = HomogeneousMap(M, M, A.degree(m),
                                           {ij: inv * x for ij, x in hm.entries.items()})
    module = AModule(A, M, action)
    degree = dict(dict(df.algebras)[spec["over"]]["generators"])
    for gname, rows in spec["action"]:
        if gname in A.rewritten:
            form = {}
            for m, c in A.rewritten[gname].items():
                for ij, x in module.act_map(m).entries.items():
                    form[ij] = form.get(ij, 0) + c * x
            if (HomogeneousMap(M, M, degree[gname], {(i, j): c for i, j, c in rows})
                    != HomogeneousMap(M, M, degree[gname], form)):
                raise ValueError(f"module {name!r}: the action of {gname!r} differs from that "
                                 f"of what the relations of {spec['over']!r} rewrite it to")
    return module
