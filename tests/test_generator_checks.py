"""The generator checks against the all-pairs oracles.

check_action, the algebra isomorphism test and the Leibniz check compare
only the pairs (generator, basis element).  The oracles below compare every
basis pair.  Seeded single-entry mutations of structure tables, module
actions, the regular bimodule's action, algebra isomorphisms and DG
differentials must get the same verdict from both.  A declared generating
set is part of a structure table's check: a mutated table that it no longer
generates is rejected when the algebra is built, whatever the oracle says.
"""

import random

import pytest

from hhalg import hochschild
from hhalg.algebra import (
    AlgebraPresentation,
    GradedAlgebra,
    _is_algebra_iso,
    check_action,
    endomorphism_action,
    endomorphism_algebra,
    opposite,
    realize,
    tensor,
)
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator
from hhalg.dg import DGAlgebra, make_quotient_dga
from hhalg.ground import GroundRing, ZZ

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))
KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))
MUTATIONS = 40


def m2_f3():
    # Clifford presentation of the 2x2 matrix algebra over F3
    return realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def exterior_ab():
    # Lambda(a, b) over F3 with |a| = |b| = 1
    return realize(AlgebraPresentation(BaseRing(F3), (("a", 1), ("b", 1)), (
        [(1, ("a", "a"), 0)], [(1, ("b", "b"), 0)],
        [(1, ("b", "a"), 0), (1, ("a", "b"), 0)],
    )))


def exterior_tau():
    # Lambda(t) over F2[v^±1], |t| = 1
    return realize(AlgebraPresentation(KU2, (("t", 1),), ([(1, ("t", "t"), 0)],)))


def truncated_z():
    # Z[y]/y^4, |y| = 2
    return realize(AlgebraPresentation(BaseRing(ZZ), (("y", 2),), ([(1, ("y",) * 4, 0)],)))


def end_module(base, degrees):
    return GradedFreeModule(base, tuple((f"e{i}", d) for i, d in enumerate(degrees)))


def koszul_f3():
    # F3[x]/x^3 (x) Lambda(y), |x| = 0, |y| = 1, dy = x
    A = realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 1)), (
        [(1, ("x", "x", "x"), 0)], [(1, ("y", "y"), 0)],
        [(1, ("y", "x"), 0), (-1, ("x", "y"), 0)],
    )))
    idx = {name: i for i, (name, _) in enumerate(A.monomials)}
    d = HomogeneousMap(A.module, A.module, -1, {
        (idx["x"], idx["y"]): 1, (idx["x*x"], idx["x*y"]): 1})
    return DGAlgebra(A, d)


def koszul_f3_opposite():
    # A^op has A's module, and the same d is a derivation of it
    D = koszul_f3()
    return DGAlgebra(opposite(D.algebra), D.d)


# -- the all-pairs oracles ----------------------------------------------------

def all_pairs_associative(T: GradedAlgebra) -> bool:
    one = T.base.ground.one
    u = T.unit_index
    if any(T.mul_basis(u, i) != {i: one} or T.mul_basis(i, u) != {i: one}
           for i in range(T.rank)):
        return False
    return all(
        T.mul_coords(T.mul_basis(i, j), {k: one}) == T.mul_coords({i: one}, T.mul_basis(j, k))
        for i in range(T.rank) for j in range(T.rank) for k in range(T.rank)
    )


def all_pairs_action(A: GradedAlgebra, M, maps) -> bool:
    g = A.base.ground
    key = A.base.degree_key
    if any(f.source != M or f.target != M or key(f.degree) != key(A.degree(i))
           for i, f in maps.items()):
        return False
    unit = maps.get(A.unit_index)
    if (unit.entries if unit else {}) != {(k, k): g.one for k in range(M.rank)}:
        return False
    for i in range(A.rank):
        for j in range(A.rank):
            lhs = maps[i].compose(maps[j]).entries if i in maps and j in maps else {}
            rhs = {}
            for k, c in A.mul_basis(i, j).items():
                for rm, v in (maps[k].entries.items() if k in maps else ()):
                    rhs[rm] = g.normalize(rhs.get(rm, g.zero) + c * v)
            if lhs != {rm: v for rm, v in rhs.items() if v != 0}:
                return False
    return True


def all_pairs_iso(A: GradedAlgebra, B: GradedAlgebra, f: HomogeneousMap) -> bool:
    g = A.base.ground
    images = [f.apply_coords({i: g.one}) for i in range(A.rank)]
    return f.is_iso() and all(
        f.apply_coords(A.mul_basis(i, j)) == B.mul_coords(fi, fj)
        for i, fi in enumerate(images) for j, fj in enumerate(images)
    )


def all_pairs_leibniz(D: DGAlgebra) -> bool:
    A, d = D.algebra, D.d
    g = A.base.ground
    images = [d.apply_coords({i: g.one}) for i in range(A.rank)]
    for i, di in enumerate(images):
        sign = g.normalize(-1 if A.parity(i) else 1)
        for j, dj in enumerate(images):
            rhs = A.mul_coords(di, {j: g.one})
            for k, c in A.mul_coords({i: sign}, dj).items():
                rhs[k] = g.normalize(rhs.get(k, g.zero) + c)
            if d.apply_coords(A.mul_basis(i, j)) != {k: c for k, c in rhs.items() if c != 0}:
                return False
    return True


def accepts(check) -> bool:
    try:
        check()
    except ValueError:
        return False
    return True


# -- seeded single-entry mutations --------------------------------------------

def changed(rng, g, entries, candidates):
    """entries with the entry at one of the candidate keys moved by a nonzero scalar."""
    deltas = [d for d in map(g.normalize, (1, -1, 2, -2)) if d != 0]
    key = rng.choice(candidates)
    out = dict(entries)
    out[key] = g.normalize(out.get(key, g.zero) + rng.choice(deltas))
    return out


def map_positions(f: HomogeneousMap):
    """The entries a map of f's degree may have."""
    base = f.source.base
    return [(r, m) for r in range(f.target.rank) for m in range(f.source.rank)
            if base.compatible(f.source.degrees[m], f.degree, f.target.degrees[r])]


def map_mutation(rng, f: HomogeneousMap) -> HomogeneousMap:
    return HomogeneousMap(f.source, f.target, f.degree,
                          changed(rng, f.source.base.ground, f.entries, map_positions(f)))


TABLES = {
    "M2(F3)": m2_f3,
    "Lambda(a,b)/F3": exterior_ab,
    "Z[y]/y^4": truncated_z,
    "M2(F3) (x) M2(F3)^op": lambda: tensor(m2_f3(), opposite(m2_f3())),
    "Lambda(t)/KU2 (x) op": lambda: tensor(exterior_tau(), opposite(exterior_tau())),
    "End(Z^3), degrees 0,1,-2": lambda: endomorphism_algebra(end_module(BaseRing(ZZ), (0, 1, -2))),
    "End(KUZ^3)^op": lambda: opposite(endomorphism_algebra(end_module(KUZ, (0, 1, 3)))),
}


@pytest.mark.parametrize("build", TABLES.values(), ids=TABLES.keys())
def test_table_mutations_get_the_oracles_verdict(build):
    A = build()
    assert len(A.generating_monomials) < A.rank - 1
    base, gens = A.base, A.generating_monomials
    candidates = [(i, j, k) for i in range(A.rank) for j in range(A.rank) for k in range(A.rank)
                  if base.compatible(A.degree(i) + A.degree(j), 0, A.degree(k))]
    rng = random.Random(13)
    flat = {(i, j, k): c for (i, j), vec in A.mult.items() for k, c in vec.items()}
    rejected = 0
    for _ in range(MUTATIONS):
        mult = {}
        for (i, j, k), c in changed(rng, base.ground, flat, candidates).items():
            mult.setdefault((i, j), {})[k] = c
        oracle = all_pairs_associative(GradedAlgebra(base, A.monomials, A.unit_index, mult,
                                                     check=False))
        generates = accepts(lambda: GradedAlgebra(base, A.monomials, A.unit_index, mult,
                                                  check=False, generating_monomials=gens))
        verdict = accepts(lambda: GradedAlgebra(base, A.monomials, A.unit_index, mult,
                                                generating_monomials=gens))
        assert verdict == (oracle and generates)
        rejected += not oracle
    assert rejected


def left_regular(A):
    return A, A.module, {i: A.left_mult(i) for i in range(A.rank)}


def right_regular(A):
    # a right A-module is a left module over opposite(A)
    return left_regular(opposite(A))


def natural_end(base, degrees):
    M = end_module(base, degrees)
    return endomorphism_algebra(M), M, endomorphism_action(M)


def regular_bimodule_action(A):
    return tensor(A, opposite(A)), A.module, hochschild._regular_action(A)


ACTIONS = {
    "left M2(F3)": lambda: left_regular(m2_f3()),
    "right M2(F3)": lambda: right_regular(m2_f3()),
    "right Lambda(a,b)/F3": lambda: right_regular(exterior_ab()),
    "End(Z^3) on Z^3": lambda: natural_end(BaseRing(ZZ), (0, 1, -2)),
    "End(KUZ^3) on KUZ^3": lambda: natural_end(KUZ, (0, 1, 3)),
    "mu of M2(F3)": lambda: regular_bimodule_action(m2_f3()),
    "mu of Lambda(a,b)/F3": lambda: regular_bimodule_action(exterior_ab()),
    "mu of Lambda(t)/KU2": lambda: regular_bimodule_action(exterior_tau()),
    "mu of End(F3^3)": lambda: regular_bimodule_action(
        endomorphism_algebra(end_module(BaseRing(F3), (0, 0, 0)))),
}


@pytest.mark.parametrize("build", ACTIONS.values(), ids=ACTIONS.keys())
def test_action_mutations_get_the_oracles_verdict(build):
    A, M, maps = build()
    assert all_pairs_action(A, M, maps)
    check_action(A, M, maps)
    acting = {i: maps.get(i) or HomogeneousMap.zero(M, M, A.degree(i)) for i in range(A.rank)}
    mutable = [i for i, f in acting.items() if map_positions(f)]
    rng = random.Random(13)
    rejected = 0
    for _ in range(MUTATIONS):
        i = rng.choice(mutable)
        mutated = {**maps, i: map_mutation(rng, acting[i])}
        oracle = all_pairs_action(A, M, mutated)
        assert accepts(lambda: check_action(A, M, mutated)) == oracle
        rejected += not oracle
    assert rejected


def swap_iso():
    # (A (x) B)^op -> B^op (x) A^op, a (x) b -> (-1)^{|a||b|} b (x) a
    A, B = exterior_ab(), m2_f3()
    L, R = opposite(tensor(A, B)), tensor(opposite(B), opposite(A))
    entries = {(j * A.rank + i, i * B.rank + j): -1 if A.parity(i) and B.parity(j) else 1
               for i in range(A.rank) for j in range(B.rank)}
    return L, R, HomogeneousMap(L.module, R.module, 0, entries)


def identity_iso(A):
    return A, A, HomogeneousMap.identity(A.module)


ISOS = {
    "swap (Lambda(a,b) (x) M2(F3))^op": swap_iso,
    "identity of M2(F3)": lambda: identity_iso(m2_f3()),
    "identity of End(Z^3)": lambda: identity_iso(
        endomorphism_algebra(end_module(BaseRing(ZZ), (0, 1, -2)))),
    "identity of End(KUZ^3)": lambda: identity_iso(
        endomorphism_algebra(end_module(KUZ, (0, 1, 3)))),
}


@pytest.mark.parametrize("build", ISOS.values(), ids=ISOS.keys())
def test_isomorphism_mutations_get_the_oracles_verdict(build):
    A, B, f = build()
    assert all_pairs_iso(A, B, f) and _is_algebra_iso(A, B, f)
    rng = random.Random(13)
    rejected = 0
    for _ in range(MUTATIONS):
        mutated = map_mutation(rng, f)
        oracle = all_pairs_iso(A, B, mutated)
        assert _is_algebra_iso(A, B, mutated) == oracle
        rejected += not oracle
    assert rejected


DGAS = {
    "Koszul F3[x]/x^3 (x) Lambda(y)": koszul_f3,
    "Koszul, opposite": koszul_f3_opposite,
    "quotient KUZ, x = 3, w = 1": lambda: make_quotient_dga(KUZ, 3, 1).dga,
}


@pytest.mark.parametrize("build", DGAS.values(), ids=DGAS.keys())
def test_differential_mutations_get_the_oracles_verdict(build):
    D = build()
    assert all_pairs_leibniz(D)
    rng = random.Random(13)
    rejected = 0
    for _ in range(MUTATIONS):
        mutated = DGAlgebra(D.algebra, map_mutation(rng, D.d), check=False)
        oracle = all_pairs_leibniz(mutated)
        assert accepts(mutated._check_leibniz) == oracle
        rejected += not oracle
    assert rejected


# -- declared generating sets ---------------------------------------------------

def test_a_declared_set_that_misses_a_monomial_is_rejected():
    A = m2_f3()
    x = A.monomials.index(("x", 0))
    # x * 1 = x and x * x = 1 reach neither y nor x*y
    with pytest.raises(ValueError, match="generating monomials do not reach monomial"):
        GradedAlgebra(A.base, A.monomials, A.unit_index, A.mult, generating_monomials=[x])
    # the check flag does not turn the search off
    with pytest.raises(ValueError, match="do not reach"):
        GradedAlgebra(A.base, A.monomials, A.unit_index, A.mult, check=False,
                      generating_monomials=[x])
    with pytest.raises(ValueError, match="non-unit monomial indices"):
        GradedAlgebra(A.base, A.monomials, A.unit_index, A.mult,
                      generating_monomials=[A.unit_index, x])


def test_constructors_declare_their_generating_sets():
    A, B = m2_f3(), exterior_ab()
    names = lambda T: [T.monomials[s][0] for s in T.generating_monomials]
    assert names(A) == ["x", "y"]
    assert opposite(A).generating_monomials == A.generating_monomials
    assert names(tensor(A, B)) == ["x|1", "y|1", "1|a", "1|b"]
    End = endomorphism_algebra(end_module(BaseRing(F3), (0, 0, 0)))
    assert names(End) == ["[e0->e1]", "[e1->e0]", "[e1->e2]", "[e2->e1]"]
    # without a declared set every non-unit monomial generates
    plain = GradedAlgebra(A.base, A.monomials, A.unit_index, A.mult)
    assert plain.generating_monomials == tuple(range(1, A.rank))


def test_a_step_must_have_a_unit_coefficient():
    # over Z with x * x = 2 y, the set {x} reaches y only up to the factor 2
    base = BaseRing(ZZ)
    monomials = (("1", 0), ("x", 2), ("y", 4))
    mult = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (0, 2): {2: 1}, (2, 0): {2: 1},
            (1, 1): {2: 2}}
    GradedAlgebra(base, monomials, 0, mult)
    with pytest.raises(ValueError, match="do not reach monomial 2"):
        GradedAlgebra(base, monomials, 0, mult, generating_monomials=[1])


# -- the unit checks that generator pairs do not imply ----------------------------

def test_an_isomorphism_must_send_the_unit_to_the_unit():
    # F3[x]/(x^2 - x) with f(1) = 2 + 2x, f(x) = x: f is bijective and
    # f(x e_j) = f(x) f(e_j), but f(1) f(1) = 1 != f(1)
    A = realize(AlgebraPresentation(BaseRing(F3), (("x", 0),), (
        [(1, ("x", "x"), 0), (-1, ("x",), 0)],)))
    assert A.generating_monomials == (1,)
    f = HomogeneousMap(A.module, A.module, 0, {(0, 0): 2, (1, 0): 2, (1, 1): 1})
    assert f.is_iso() and not all_pairs_iso(A, A, f)
    assert not _is_algebra_iso(A, A, f)


def test_a_differential_must_kill_the_unit():
    # the quotient DGA with x = 3, w = 0 and d(1) = y, d(y) = 0: d^2 = 0 and
    # the generator pairs hold (y y = 0), but d(1 1) != d(1) 1 + 1 d(1)
    A = make_quotient_dga(KUZ, 3, 0).dga.algebra
    d = HomogeneousMap(A.module, A.module, -1, {(1, 0): 1})
    assert not all_pairs_leibniz(DGAlgebra(A, d, check=False))
    with pytest.raises(ValueError, match=r"d\(1\) != 0"):
        DGAlgebra(A, d)
