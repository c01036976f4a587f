import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from hhalg.algebra import (
    AlgebraPresentation,
    BudgetExceededError,
    GradedAlgebra,
    IsoResult,
    RealizeError,
    algebra_isomorphic,
    center,
    center_basis,
    check_action,
    endomorphism_action,
    endomorphism_algebra,
    ideal_closure,
    opposite,
    quotient_by_ideal,
    radical,
    realize,
    semisimple_quotient,
    tensor,
)
from hhalg import hochschild
from hhalg.algebra import _Rewriter
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator, tensor_module
from hhalg.defs import build_algebra, parse_definition
from hhalg.ground import GroundRing, ZZ
from hhalg.linalg import ExactMatrix, kernel_basis, solve
from hhalg.resolve import AModule, AModuleMap, FreeAModule

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))
KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))
DATA = os.path.join(os.path.dirname(__file__), "..", "src", "hhalg", "data")


def exterior_tau():
    # Lambda(tau0) over F2[v^±1], |tau0| = 1
    return realize(AlgebraPresentation(KU2, (("t", 1),), (
        [(1, ("t", "t"), 0)],
    )))


def b2_algebra():
    # F2[v^±1][tau0]/(tau0^2 - v)
    return realize(AlgebraPresentation(KU2, (("t", 1),), (
        [(1, ("t", "t"), 0), (-1, (), 1)],
    )))


def trunc_poly(p, n, deg=2):
    base = BaseRing(GroundRing.prime_field(p))
    return realize(AlgebraPresentation(base, (("y", deg),), (
        [(1, ("y",) * n, 0)],
    )))


def truncated_z():
    # Z[y]/y^4, |y| = 2
    return realize(AlgebraPresentation(BaseRing(ZZ), (("y", 2),), ([(1, ("y",) * 4, 0)],)))


def m2_f3():
    # Clifford presentation x^2 = 1, y^2 = 1, yx = -xy gives M2(F3)
    return realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def sigma1():
    # K(1)_*[t1]/(v t1^2 - v^2 t1)
    return realize(AlgebraPresentation(KU2, (("t1", 2),), (
        [(1, ("t1", "t1"), 1), (-1, ("t1",), 2)],
    )))


# -- realize ----------------------------------------------------------------

def test_realize_exterior_rank2():
    A = exterior_tau()
    assert A.rank == 2
    assert A.mul_basis(1, 1) == {}


def test_realize_b2_square_is_v():
    A = b2_algebra()
    assert A.rank == 2
    # tau0 * tau0 = v: stored scalar 1 on the unit, exponent implied
    assert A.mul_basis(1, 1) == {0: 1}


def test_realize_truncated_polynomial_rank():
    assert trunc_poly(3, 3).rank == 3


def test_realize_m2():
    A = m2_f3()
    assert A.rank == 4
    assert not is_commutative(A)


def test_realize_rejects_inhomogeneous():
    with pytest.raises(RealizeError):
        realize(AlgebraPresentation(KU2, (("t", 1),), (
            [(1, ("t", "t"), 0), (1, ("t",), 0)],
        )))


def test_realize_divergence_detected():
    # free algebra on a positive-degree generator with no relations
    with pytest.raises(RealizeError):
        realize(AlgebraPresentation(BaseRing(F3), (("y", 1),), ()), max_rank=50)


# each reduces to a unit scalar: 2 over F3; x = 1 and x = 0 in degree 0;
# 1 with no generators; -1 over Z
@pytest.mark.parametrize("ground, generators, relations", [
    (F3, (("x", 1),), ([(2, (), 0)],)),
    (F3, (("x", 0),), ([(1, ("x",), 0), (-1, (), 0)], [(1, ("x",), 0)])),
    (F3, (), ([(1, (), 0)],)),
    (ZZ, (("x", 1),), ([(-1, (), 0)],)),
], ids=["2 over F3", "x - 1 and x", "1", "-1 over Z"])
def test_realize_refuses_relations_that_force_one_to_be_zero(ground, generators, relations):
    with pytest.raises(RealizeError, match="^relations force 1 = 0$"):
        realize(AlgebraPresentation(BaseRing(ground), generators, relations))


def test_a_scalar_relation_that_is_no_unit_over_z_keeps_its_message():
    with pytest.raises(RealizeError, match="leading coefficient 2 is not a unit"):
        realize(AlgebraPresentation(BaseRing(ZZ), (("x", 1),), ([(2, (), 0)],)))


def test_divergence_is_a_realize_error_and_a_budget_error():
    with pytest.raises(RealizeError) as info:
        realize(AlgebraPresentation(BaseRing(F3), (("y", 1),), ()), max_rank=50)
    assert isinstance(info.value, BudgetExceededError)
    assert issubclass(BudgetExceededError, ValueError)


def test_completion_adds_the_rules_an_overlap_forces():
    # xy = x and yx = y overlap in xyx and yxy, which force x^2 = x and y^2 = y
    A = realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "y"), 0), (-1, ("x",), 0)],
        [(1, ("y", "x"), 0), (-1, ("y",), 0)],
    )))
    assert [n for n, _ in A.monomials] == ["1", "x", "y"]
    assert A.mul_basis(1, 1) == {1: 1} and A.mul_basis(2, 2) == {2: 1}
    rw = _Rewriter(BaseRing(F3), [0, 0], [{(0, 1): 1, (0,): -1}, {(1, 0): 1, (1,): -1}], None)
    assert rw.rules == {(0, 1): {(0,): 1}, (1, 0): {(1,): 1},
                        (0, 0): {(0,): 1}, (1, 1): {(1,): 1}}


def test_completion_resolves_a_contained_lead():
    # yx sits inside the lead xyx: x = xyx = xxy = y, so y is rewritten to x
    A = realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "y", "x"), 0), (-1, ("x",), 0)],
        [(1, ("x", "y"), 0), (-1, ("y", "x"), 0)],
        [(1, ("x", "x"), 0), (-1, (), 0)],
    )))
    assert A.rank == 2 and [n for n, _ in A.monomials] == ["1", "x"]
    rw = _Rewriter(BaseRing(F3), [0, 0], [{(0, 1, 0): 1, (0,): -1},
                                          {(0, 1): 1, (1, 0): -1}, {(0, 0): 1, (): -1}], None)
    assert rw.rules[(1,)] == {(0,): 1}


def test_realize_truncation():
    # F3[y], |y| = 1, truncated at internal degree 5 -> rank 6
    A = realize(AlgebraPresentation(BaseRing(F3), (("y", 1),), (), truncation=5))
    assert A.rank == 6
    assert A.mul_basis(5, 5) == {}  # y^5 * y^5 falls past the bound


def test_associativity_checked_at_construction():
    base = BaseRing(F3)
    unit_rows = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                 (0, 2): {2: 1}, (2, 0): {2: 1}}
    # x*x = z, z*x = z, x*z = 0: (xx)x = z but x(xx) = 0
    with pytest.raises(ValueError, match="associativity fails"):
        GradedAlgebra(base, (("1", 0), ("x", 0), ("z", 0)), 0,
                      {**unit_rows, (1, 1): {2: 1}, (2, 1): {2: 1}})
    # group algebra of Z/2 as a sanity check that valid tables pass
    GradedAlgebra(base, (("1", 0), ("x", 0)), 0, {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1},
    })


def test_unit_must_sit_in_degree_zero_up_to_the_laurent_period():
    # with no structure constants the degree check is the first to see the unit
    with pytest.raises(ValueError, match="unit must sit in degree 0"):
        GradedAlgebra(BaseRing(F3), (("1", 2),), 0, {})
    # over F2[v^±1] with |v| = 2, degree 2 is degree 0 up to a power of v
    A = GradedAlgebra(KU2, (("1", 2),), 0, {(0, 0): {0: 1}})
    assert A.mul_basis(0, 0) == {0: 1}


# -- the one action check ----------------------------------------------------

def clifford_f3():
    # the 2x2 matrix algebra over F3: x^2 = y^2 = 1, yx = -xy
    return realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def test_check_action_rejects_a_regular_module_over_the_opposite_algebra():
    # A's right regular module is the left regular module of opposite(A)
    A = clifford_f3()
    assert not is_commutative(A)
    Aop = opposite(A)
    left = {i: A.left_mult(i) for i in range(A.rank)}
    right = {i: Aop.left_mult(i) for i in range(A.rank)}
    check_action(A, A.module, left)
    check_action(Aop, A.module, right)
    with pytest.raises(ValueError, match="left action fails on pair"):
        check_action(Aop, A.module, left)
    with pytest.raises(ValueError, match="left action fails on pair"):
        check_action(A, A.module, right)


def test_check_action_rejects_a_non_associative_table():
    unit_rows = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                 (0, 2): {2: 1}, (2, 0): {2: 1}}
    # the table of test_associativity_checked_at_construction, built unchecked
    T = GradedAlgebra(BaseRing(F3), (("1", 0), ("x", 0), ("z", 0)), 0,
                      {**unit_rows, (1, 1): {2: 1}, (2, 1): {2: 1}}, check=False)
    with pytest.raises(ValueError, match="left action fails on pair"):
        check_action(T, T.module, {i: T.left_mult(i) for i in range(T.rank)})


def test_check_action_accepts_the_zero_module():
    A = clifford_f3()
    for B in (A, opposite(A)):
        Z = AModule(B, GradedFreeModule(A.base, ()), {}, check=False)
        assert Z.module.rank == 0 and not Z.action
        check_action(B, Z.module, Z.action)


@pytest.mark.parametrize("base,degs", [(BaseRing(ZZ), (0, 1, -2)), (KUZ, (0, 1, 3)),
                                       (BaseRing(F3), (0,))], ids=["Z", "KUZ", "F3-rank1"])
def test_endomorphism_action_is_an_action_with_bijective_action_map(base, degs):
    M = GradedFreeModule(base, tuple((f"e{i}", d) for i, d in enumerate(degs)))
    action = endomorphism_action(M)
    assert len(action) == len(degs) ** 2
    E = AModule(endomorphism_algebra(M), M, action)  # runs check_action
    assert E.action_map().is_iso()


def first_failing_pair(A, maps):
    """The first pair of A.action_pairs() whose composite, built by compose,
    differs from the action of the product, as check_action names it."""
    g = A.base.ground
    for x, y in A.action_pairs():
        lhs = maps[x].compose(maps[y]).entries if x in maps and y in maps else {}
        rhs = {}
        for t, c in A.mul_basis(x, y).items():
            for rm, v in (maps[t].entries if t in maps else {}).items():
                rhs[rm] = rhs.get(rm, 0) + c * v
        if lhs != g.canonical(rhs):
            return x, y
    return None


@pytest.mark.parametrize("case", ["exterior", "exterior opposite", "bimodule"])
def test_check_action_names_the_first_failing_pair(case):
    # one entry changed in the action of a monomial that no generator is;
    # the regular module of the opposite is the exterior algebra's right one
    if case == "bimodule":
        L = m2_f3()
        A, M, maps = tensor(L, opposite(L)), L.module, hochschild._regular_action(L)
    else:
        A = exterior3_f3() if case == "exterior" else opposite(exterior3_f3())
        M, maps = A.module, {i: A.left_mult(i) for i in range(A.rank)}
    m = max(i for i, f in maps.items() if f.entries and i not in A.generating_monomials
            and i != A.unit_index)
    maps[m] = first_entry_moved(maps[m])
    pair = first_failing_pair(A, maps)
    assert pair is not None
    with pytest.raises(ValueError) as err:
        check_action(A, M, maps)
    assert str(err.value) == f"left action fails on pair ({pair[0]},{pair[1]})"


def test_an_algebra_builds_its_module_once():
    A, B = exterior3_f3(), exterior3_f3()
    for X in (A, tensor(A, opposite(A))):
        assert X.module is X.module
    # equal algebras have equal, equally hashed modules
    assert A == B and A.module is not B.module
    assert A.module == B.module and hash(A.module) == hash(B.module)


def test_check_action_rejects_a_map_off_the_module_or_degree():
    A = exterior_tau()
    t = next(i for i in range(A.rank) if i != A.unit_index)
    maps = {i: A.left_mult(i) for i in range(A.rank)}
    check_action(A, A.module, maps)
    other = GradedFreeModule(A.base, (("a", 0), ("b", 1)))
    for bad in (HomogeneousMap.zero(other, other, 1), HomogeneousMap.zero(A.module, A.module, 0)):
        with pytest.raises(ValueError, match="endomorphism of its degree"):
            check_action(A, A.module, {**maps, t: bad})


# -- opposite and tensor ------------------------------------------------------

def test_opposite_even_commutative_identical():
    A = trunc_poly(3, 3)
    assert opposite(A) == A


def test_opposite_koszul_sign():
    # Z[v^±1]<y>/(y^2 = v), |y| = 1: in A^op, y o y = -v
    A = realize(AlgebraPresentation(KUZ, (("y", 1),), (
        [(1, ("y", "y"), 0), (-1, (), 1)],
    )))
    assert A.mul_basis(1, 1) == {0: 1}
    assert opposite(A).mul_basis(1, 1) == {0: -1}


def test_opposite_involution():
    for A in (exterior_tau(), b2_algebra(), m2_f3()):
        assert opposite(opposite(A)) == A


def test_tensor_rank_and_mixed_product():
    A = exterior_tau()
    T = tensor(A, opposite(A))
    assert T.rank == 4
    # (tau@1)(1@tau) = tau@tau: indices with nB=2: tau@1 = 2, 1@tau = 1, tau@tau = 3
    assert T.mul_coords({2: 1}, {1: 1}) == {3: 1}


def test_tensor_with_base_is_identity_on_constants():
    A = m2_f3()
    one = realize(AlgebraPresentation(BaseRing(F3), (), ()))
    T = tensor(A, one)
    assert T.rank == A.rank
    assert {k: v for k, v in T.mult.items()} == A.mult


def test_tensor_op_swap_isomorphism():
    # (A @ B)^op = B^op @ A^op via a@b -> (-1)^{|a||b|} b@a
    A, B = exterior_tau(), b2_algebra()
    L = opposite(tensor(A, B))
    R = tensor(opposite(B), opposite(A))
    g = A.base.ground
    nB = B.rank
    entries = {}
    for i in range(A.rank):
        for j in range(B.rank):
            sign = -1 if (A.parity(i) and B.parity(j)) else 1
            entries[(j * A.rank + i, i * nB + j)] = g.normalize(sign)
    f = HomogeneousMap(L.module, R.module, 0, entries)
    from hhalg.algebra import _is_algebra_iso
    assert _is_algebra_iso(L, R, f)


def tensor_oracle(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """The all-slots tensor product: every (r_A r_B)^2 basis pair through mul_basis."""
    if A.base != B.base:
        raise ValueError("tensor over different bases")
    g = A.base.ground
    nB = B.rank
    mult = {}
    for i1 in range(A.rank):
        for j1 in range(B.rank):
            for i2 in range(A.rank):
                avec = A.mul_basis(i1, i2)
                if not avec:
                    continue
                for j2 in range(B.rank):
                    bvec = B.mul_basis(j1, j2)
                    if not bvec:
                        continue
                    sign = -1 if (B.parity(j1) and A.parity(i2)) else 1
                    out = {}
                    for ka, ca in avec.items():
                        for kb, cb in bvec.items():
                            out[ka * nB + kb] = g.normalize(sign * ca * cb)
                    out = {k: c for k, c in out.items() if c != 0}
                    if out:
                        mult[(i1 * nB + j1, i2 * nB + j2)] = out
    gens = ([s * nB + B.unit_index for s in A.generating_monomials]
            + [A.unit_index * nB + t for t in B.generating_monomials])
    return GradedAlgebra(
        A.base, tensor_module(A.module, B.module).generators,
        A.unit_index * nB + B.unit_index, mult, check=False, generating_monomials=gens
    )


def exterior3_f3():
    # Lambda(a, b, c) over F3, |a| = |b| = |c| = 1: odd generators carry the sign
    gens = ("a", "b", "c")
    rels = [[(1, (x, x), 0)] for x in gens]
    rels += [[(1, (y, x), 0), (1, (x, y), 0)] for i, x in enumerate(gens) for y in gens[i + 1:]]
    return realize(AlgebraPresentation(BaseRing(F3), tuple((x, 1) for x in gens), tuple(rels)))


def seeded_end(base, seed):
    rng = random.Random(seed)
    degs = [rng.randint(-3, 3) for _ in range(rng.randint(2, 3))]
    return endomorphism_algebra(GradedFreeModule(base, tuple((f"e{i}", d) for i, d in enumerate(degs))))


def ku2_def(name):
    with open(os.path.join(DATA, "ku2.def")) as fh:
        return build_algebra(parse_definition(fh.read()), name)


TENSOR_CASES = {
    "Lambda3-F3 (x) M2-F3": lambda: (exterior3_f3(), m2_f3()),
    "M2-F3 (x) Lambda3-F3": lambda: (m2_f3(), exterior3_f3()),
    "End-F5 (x) End-F5": lambda: (seeded_end(BaseRing(GroundRing.prime_field(5)), 1),
                                  seeded_end(BaseRing(GroundRing.prime_field(5)), 2)),
    "End-KU2 (x) B2": lambda: (seeded_end(ku2_def("B2").base, 3), ku2_def("B2")),
    "Z[y]/y^4 (x) Z[y]/y^4": lambda: (truncated_z(), truncated_z()),
    "B2 (x) lam_tau": lambda: (ku2_def("B2"), ku2_def("lam_tau")),
    "lam_tau (x) B2": lambda: (ku2_def("lam_tau"), ku2_def("B2")),
}


@pytest.mark.parametrize("case", sorted(TENSOR_CASES))
def test_tensor_matches_the_all_slots_oracle(case):
    A, B = TENSOR_CASES[case]()
    for L, R in ((A, B), (A, opposite(A)), (B, opposite(B))):
        T, oracle = tensor(L, R), tensor_oracle(L, R)
        assert T.monomials == oracle.monomials
        assert T.unit_index == oracle.unit_index
        assert T.generating_monomials == oracle.generating_monomials
        # slot by slot before the full table exists, then the table itself
        assert all(T.mul_basis(i, j) == oracle.mul_basis(i, j)
                   for i in range(T.rank) for j in range(T.rank))
        assert T.mult == oracle.mult
        assert T == oracle and oracle == T
        assert opposite(T) == opposite(oracle)
    # a tensor of a tensor builds the inner table from its stored pairs
    assert tensor(tensor(A, B), B).mult == tensor_oracle(tensor_oracle(A, B), B).mult


def accepts(check) -> bool:
    try:
        check()
    except ValueError:
        return False
    return True


def first_entry_moved(f: HomogeneousMap) -> HomogeneousMap:
    g = f.source.base.ground
    entries = dict(f.entries)
    key = min(entries)
    entries[key] = g.normalize(entries[key] + g.one)
    return HomogeneousMap(f.source, f.target, f.degree, entries)


def factor_actions(L, R, oracle):
    """An action of L (x) R with the Koszul sign (-1)^{|b||x|} of a (x) b on the
    element x: L's regular bimodule when R is L^op, else the left regular
    module of L (x) R.  Returns the module, the maps and each column's |x|."""
    if R == opposite(L):
        return L.module, hochschild._regular_action(L), L.parity
    maps = {i: oracle.left_mult(i) for i in range(oracle.rank)}
    return oracle.module, maps, lambda col: L.parity(col // R.rank)


@pytest.mark.parametrize("case", sorted(TENSOR_CASES))
def test_tensor_action_pairs_and_steps_match_the_generator_pair_oracle(case):
    A, B = TENSOR_CASES[case]()
    rejected = set()
    for L, R in ((A, B), (A, opposite(A)), (B, opposite(B))):
        T, oracle = tensor(L, R), tensor_oracle(L, R)
        M, maps, col_parity = factor_actions(L, R, oracle)
        nR, u = R.rank, T.unit_index
        unsigned = {i: HomogeneousMap(f.source, f.target, f.degree, {
            (r, col): -c if R.parity(i % nR) and col_parity(col) else c
            for (r, col), c in f.entries.items()}) for i, f in maps.items()}
        variants = {"valid": maps, "unsigned": unsigned}
        # the last a (x) b with neither factor the unit that acts by a nonzero map
        for i, f in sorted(maps.items(), reverse=True):
            if f.entries and L.unit_index != i // nR and R.unit_index != i % nR:
                variants[f"composite {i}"] = {**maps, i: first_entry_moved(f)}
                break
        for s in (T.generating_monomials[0], T.generating_monomials[-1]):
            variants[f"generator {s}"] = {**maps, s: first_entry_moved(maps[s])}
        for name, variant in variants.items():
            verdict = accepts(lambda: check_action(oracle, M, variant))
            assert accepts(lambda: check_action(T, M, variant)) == verdict, name
            if name in ("valid", "unsigned"):
                # the unsigned maps act only where the sign is +1 throughout
                assert verdict == (variant == maps), name
            elif not verdict:
                rejected.add(name.split()[0])
        # every derived step is a product of the oracle, from the unit or a monomial reached before
        reached = {u}
        for m, s, k, c in T.generation_steps():
            assert s in T.generating_monomials and k in reached and m not in reached
            assert oracle.mul_basis(s, k) == {m: c}
            reached.add(m)
        assert reached == set(range(T.rank))
        # flatten over the tensor's steps equals flatten over the oracle's search
        g = T.base.ground
        rng = random.Random(5)
        even = [m for m in range(T.rank) if T.base.compatible(0, 0, T.degree(m))]
        images = [{m: g.normalize(rng.randint(1, 4)) for m in rng.sample(even, min(3, len(even)))}
                  for _ in range(2)]
        assert (AModuleMap(FreeAModule(T, (0, 0)), FreeAModule(T, (0,)), images).flatten()
                == AModuleMap(FreeAModule(oracle, (0, 0)), FreeAModule(oracle, (0,)),
                              images).flatten())
    assert rejected == {"composite", "generator"}


def test_a_tensor_product_computes_no_product_until_one_is_read():
    # the generating set, steps and action pairs come from the factors:
    # M2 has rank 4 and 2 generators, Lambda3 rank 8 and 3 generators, so
    # (4 - 1)(8 - 1) + 2 * 4 + 3 * 8 + 3 * 2 pairs
    T = tensor(m2_f3(), opposite(exterior3_f3()))
    assert T._slots == {} and len(T.generating_monomials) == 5
    pairs = list(T.action_pairs())
    assert len(pairs) == len(set(pairs)) == 3 * 7 + 2 * 4 + 3 * 8 + 3 * 2
    assert T._slots == {}
    assert len(T.generation_steps()) == T.rank - 1 == len(T._slots)


def test_tensor_products_are_computed_once_and_checked():
    A = exterior3_f3()
    T = tensor(A, opposite(A))
    assert T.mul_basis(9, 18) is T.mul_basis(9, 18)
    # a factor table off degree additivity (a * a = a) is refused when the
    # slot (a (x) 1)(a (x) 1) is read
    A.mult[(1, 1)] = {1: 1}
    with pytest.raises(ValueError, match=r"\(4,4\)->4 violates degree additivity"):
        tensor(A, m2_f3()).mul_basis(4, 4)


def test_bijective_but_not_multiplicative_is_no_algebra_iso():
    # x -> 2x is bijective over F3, but sends 1 = 1*1 to 2 != 2*2 = 1
    from hhalg.algebra import _is_algebra_iso
    A = m2_f3()
    f = HomogeneousMap(A.module, A.module, 0, {(i, i): 2 for i in range(A.rank)})
    assert not _is_algebra_iso(A, A, f)
    assert _is_algebra_iso(A, A, HomogeneousMap.identity(A.module))


# -- center -------------------------------------------------------------------

def test_center_m2_is_scalars():
    c = center(m2_f3())
    assert list(c) == [0]
    assert c[0].free_rank == 1


def test_center_commutative_even_is_everything():
    A = trunc_poly(3, 3)  # degrees 0, 2, 4: all even
    c = center(A)
    assert sum(p.free_rank for p in c.values()) == A.rank


def test_center_b2_ranks():
    c = center(b2_algebra())
    # over F2 signs vanish and B2 is commutative: rank 1 in each residue
    assert {k: p.free_rank for k, p in c.items()} == {0: 1, 1: 1}


def test_center_closed_under_multiplication():
    for A in (m2_f3(), b2_algebra()):
        basis = center_basis(A)
        flat = [v for vs in basis.values() for v in vs]
        g = A.base.ground
        for x in flat:
            for y in flat:
                z = A.mul_coords(x, y)
                if not z:
                    continue
                zdeg = {A.degree(m) % 2 for m in z} if A.base.laurent else \
                       {A.degree(m) for m in z}
                assert len(zdeg) == 1
                zpar = zdeg.pop() % 2
                for j in range(A.rank):
                    sign = -1 if (zpar and A.parity(j)) else 1
                    lhs = A.mul_coords(z, {j: g.one})
                    rhs = A.mul_coords({j: g.normalize(sign)}, z)
                    assert lhs == rhs


# -- radical ------------------------------------------------------------------

def test_radical_idempotent_split():
    A = realize(AlgebraPresentation(BaseRing(F2), (("t", 0),), (
        [(1, ("t", "t"), 0), (-1, ("t",), 0)],
    )))
    assert radical(A) == []


def test_radical_dual_numbers():
    A = trunc_poly(2, 2, deg=0)
    rad = radical(A)
    assert len(rad) == 1 and rad[0] == {1: 1}


def test_radical_sigma1_semisimple():
    assert radical(sigma1()) == []


def test_radical_m2_semisimple():
    assert radical(m2_f3()) == []


def is_commutative(A):
    """Whether every pair of basis monomials commutes, for the Frobenius oracle."""
    return all(A.mul_basis(i, j) == A.mul_basis(j, i) for i in range(A.rank) for j in range(i))


def frobenius_nilradical(A):
    """Nilradical of a commutative F_p algebra: the kernel of the iterated
    Frobenius x -> x^(p^m), p^m >= rank.  An oracle for `radical`, which
    takes the trace-form route."""
    g = A.base.ground
    assert g.kind == "Fp" and is_commutative(A)
    p, n = g.p, A.rank
    cols = []
    for j in range(n):
        x = {j: g.one}
        acc = x
        for _ in range(p - 1):
            acc = A.mul_coords(acc, x)
        cols.append(acc)
    F = ExactMatrix.from_columns(g, n, cols)
    M = F
    m = 1
    while p ** m < n:
        M = M.mul(F)
        m += 1
    return kernel_basis(M)


def test_radical_matches_frobenius_oracle():
    for A in (trunc_poly(3, 3), trunc_poly(2, 4, deg=0), sigma1()):
        got = {tuple(sorted(v.items())) for v in radical(A)}
        want_vecs = frobenius_nilradical(A)
        # compare spans by dimension plus containment of oracle basis
        assert len(got) == len(want_vecs)
        span = ideal_closure(A, radical(A)) if got else []
        for v in want_vecs:
            assert _in_span(A, span, v)


def _in_span(A, span_vecs, v):
    g = A.base.ground
    n = A.rank
    if not span_vecs:
        return not v
    M = ExactMatrix.from_columns(g, n, span_vecs)
    return solve(M, v) is not None


def test_ideal_closure_and_quotient_of_a_non_monomial_generator():
    # F3[y]/y^5 with |y| = 0, so the ideal of y^2 + y^3 is homogeneous
    A = trunc_poly(3, 5, deg=0)
    pos = {name: i for i, (name, _) in enumerate(A.monomials)}
    y2, y3, y4 = pos["y*y"], pos["y*y*y"], pos["y*y*y*y"]
    closure = ideal_closure(A, [{y2: 1, y3: 1}])
    assert len(closure) == 3
    for v in ({y2: 1}, {y3: 1}, {y4: 1}):
        assert _in_span(A, closure, v)
    Q = quotient_by_ideal(A, closure)
    assert [name for name, _ in Q.monomials] == ["1", "y"]
    y = [i for i in range(Q.rank) if i != Q.unit_index][0]
    assert Q.mul_basis(y, y) == {}
    assert Q.mul_basis(Q.unit_index, y) == {y: 1}


def test_semisimplification_idempotent():
    for A in (trunc_poly(3, 3), trunc_poly(2, 4, deg=0)):
        S = semisimple_quotient(A)
        assert radical(S) == []
        assert semisimple_quotient(S).rank == S.rank


@settings(max_examples=20, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), n=st.integers(2, 5))
def test_truncated_polynomial_radical_dimension(p, n):
    A = trunc_poly(p, n)
    assert A.rank == n
    assert len(radical(A)) == n - 1  # span of y, ..., y^{n-1}


# -- isomorphism search -------------------------------------------------------

def test_iso_identity_witness():
    A = exterior_tau()
    res = algebra_isomorphic(A, A)
    assert res.isomorphic
    assert res.witness is not None


def test_iso_exterior_vs_b2_false_exhaustive():
    # one degree-0 slot over F2: two candidates; a negative verdict comes only
    # from the completed scan, and a budget short of it raises instead
    with pytest.raises(BudgetExceededError, match=r"\(2 candidates total\)"):
        algebra_isomorphic(exterior_tau(), b2_algebra(), budget=1)
    assert algebra_isomorphic(exterior_tau(), b2_algebra(), budget=2) == IsoResult(False)


def test_iso_rank_mismatch():
    res = algebra_isomorphic(exterior_tau(), tensor(b2_algebra(), b2_algebra()))
    assert res == IsoResult(False)


def test_iso_budget_exceeded_is_distinct_from_false():
    A = m2_f3()
    with pytest.raises(BudgetExceededError):
        algebra_isomorphic(A, opposite(A), budget=2)


def exterior_two(order):
    # exterior algebra on two degree-1 generators over F3
    return realize(AlgebraPresentation(BaseRing(F3), tuple((n, 1) for n in order), (
        [(1, ("x", "x"), 0)],
        [(1, ("y", "y"), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def test_realize_order_independent():
    # the same presentation with generators listed in either order
    A = exterior_two(("x", "y"))
    B = exterior_two(("y", "x"))
    res = algebra_isomorphic(A, B, budget=3 ** 5 + 1)
    assert res.isomorphic


# -- enveloping algebra ------------------------------------------------------

def test_enveloping_rank():
    assert tensor(exterior_tau(), opposite(exterior_tau())).rank == 4
