import os

import pytest

from hhalg import morita
from hhalg.algebra import (AlgebraPresentation, check_action, endomorphism_action,
                           endomorphism_algebra, opposite, realize)
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap
from hhalg.defs import build_algebra, build_module, parse_definition
from hhalg.ground import BudgetExceededError, GroundRing
from hhalg.morita import (
    BalancedTensor,
    MoritaContext,
    _hom_basis,
    adjunction_triangles,
    collapsed_ranks,
    completion,
    completion_matches,
    degree_ranks,
    endo_algebra,
    functor_F,
    functor_G,
    plain_hom_A,
    retract_identity,
    roundtrip_FG,
    torsion_roundtrip,
    torsion_S,
    torsion_T,
)
from hhalg.resolve import AModule, ext_with_coefficients, free_resolution

F3 = GroundRing.prime_field(3)
BASE3 = BaseRing(F3)


def scalar_algebra():
    return realize(AlgebraPresentation(BASE3, (), ()))


def etale():
    # F3 x F3 presented as F3[t]/(t^2 - t)
    return realize(AlgebraPresentation(BASE3, (("t", 0),), (
        [(1, ("t", "t"), 0), (-1, ("t",), 0)],
    )))


def etale_ctx():
    # E = the first factor: t acts as the identity on a rank-1 module
    R = etale()
    A = scalar_algebra()
    E = GradedFreeModule(BASE3, (("e", 0),))
    ident = HomogeneousMap.identity(E)
    t = [i for i in range(R.rank) if i != R.unit_index][0]
    return MoritaContext(AModule(R, E, {R.unit_index: ident, t: ident}),
                         AModule(A, E, {A.unit_index: ident}))


def second_factor(ctx):
    # the complementary idempotent summand: t acts as zero, a right R-module
    M = GradedFreeModule(BASE3, (("f", 0),))
    R_op = opposite(ctx.R)
    return AModule(R_op, M, {R_op.unit_index: HomogeneousMap.identity(M)})


def truncated_poly(T, d=1):
    rels = ([(1, ("y",) * T, 0)],)
    return realize(AlgebraPresentation(BASE3, (("y", d),), rels))


def exterior():
    return realize(AlgebraPresentation(BASE3, (("x", -1),), ([(1, ("x", "x"), 0)],)))


def local_ctx(R, A):
    # E = k with both algebras acting through their augmentations
    E = GradedFreeModule(BASE3, (("e", 0),))
    ident = HomogeneousMap.identity(E)
    return MoritaContext(AModule(R, E, {R.unit_index: ident}),
                         AModule(A, E, {A.unit_index: ident}))


def ctx_ex1():
    # adic shadow: complete a truncated polynomial line along its augmentation
    return local_ctx(truncated_poly(20), exterior())


def ctx_ex2():
    # the mirror: exterior line completed against a truncated polynomial dual
    return local_ctx(exterior(), truncated_poly(20))


# -- core types --------------------------------------------------------------------

def test_module_action_checks():
    R = etale()
    M = GradedFreeModule(BASE3, (("m", 0),))
    t = [i for i in range(R.rank) if i != R.unit_index][0]
    bad = {R.unit_index: HomogeneousMap.identity(M),
           t: HomogeneousMap(M, M, 0, {(0, 0): 2})}  # 2^2 != 2 in F3
    with pytest.raises(ValueError):
        AModule(opposite(R), M, bad)


def test_regular_modules_both_sides():
    # the right regular module is the left regular module of the opposite
    R = etale()
    for B in (R, opposite(R)):
        X = AModule.regular(B)
        check_action(B, X.module, X.action)


def test_context_rejects_noncommuting_actions():
    R = etale()
    E = GradedFreeModule(BASE3, (("a", 0), ("b", 0)))
    ident = HomogeneousMap.identity(E)
    t = [i for i in range(R.rank) if i != R.unit_index][0]
    proj = HomogeneousMap(E, E, 0, {(0, 0): 1})
    swap = HomogeneousMap(E, E, 0, {(1, 0): 1, (0, 1): 1})
    A2 = realize(AlgebraPresentation(BASE3, (("s", 0),), (
        [(1, ("s", "s"), 0), (-1, (), 0)],
    )))
    s = [i for i in range(A2.rank) if i != A2.unit_index][0]
    E_R = AModule(R, E, {R.unit_index: ident, t: proj})
    E_A = AModule(A2, E, {A2.unit_index: ident, s: swap})
    with pytest.raises(ValueError, match="fail to commute"):
        MoritaContext(E_R, E_A)


GRADED_CLIFFORD = os.path.join(os.path.dirname(__file__), "data", "graded_clifford.def")


def graded_clifford_ctx():
    # R = F3<a, b>/(a^2, b^2, ab + ba - 1), |a| = 2, |b| = -2, on E_R = F3{e0, e1}:
    # in opposite(R), a o b = ba = 1 - ab, so R is not its own opposite
    with open(GRADED_CLIFFORD) as fh:
        df = parse_definition(fh.read())
    built = {n: build_algebra(df, n) for n, _ in df.algebras}
    return MoritaContext(build_module(df, "E_R", built), build_module(df, "E_A", built))


def swapped(ctx):
    # the same bimodule with the roles of R and A exchanged, so A is the Clifford algebra
    return MoritaContext(ctx.E_A, ctx.E_R)


@pytest.mark.parametrize("call, message", [
    (lambda ctx, X: MoritaContext(AModule.regular(ctx.R), ctx.E_A), "same underlying"),
    (lambda ctx, X: functor_G(swapped(ctx), X), "derived Hom takes two modules over one"),
    (lambda ctx, X: torsion_S(ctx, X), "derived Hom takes two modules over one"),
    (lambda ctx, X: free_resolution(ctx.R, X, s_max=1), "free_resolution takes a module over A"),
    (lambda ctx, X: ext_with_coefficients(free_resolution(ctx.R, ctx.E_R, s_max=1), X),
     "hom_cochains takes a module over the resolution's algebra"),
    (lambda ctx, X: _hom_basis(ctx.E_R, X), "hom takes two modules over one algebra"),
], ids=["context-generators", "functor_G", "torsion_S", "free_resolution",
        "ext_with_coefficients", "_hom_basis"])
def test_a_module_over_the_opposite_algebra_is_rejected(call, message):
    ctx = graded_clifford_ctx()
    assert opposite(ctx.R) != ctx.R
    with pytest.raises(ValueError, match=message):
        call(ctx, AModule.regular(opposite(ctx.R)))


def test_a_module_over_an_equal_algebra_built_twice_is_accepted():
    # the guards compare algebras by value, not by identity
    ctx, again = graded_clifford_ctx(), graded_clifford_ctx()
    assert again.R == ctx.R and again.R is not ctx.R
    assert _hom_basis(ctx.E_R, again.E_R).maps
    res = free_resolution(ctx.R, again.E_R, s_max=2)
    assert ext_with_coefficients(res, again.E_R) == torsion_S(ctx, again.E_R, s_max=2)


# -- endomorphism algebras of modules -------------------------------------------------

def test_endo_algebra_of_idempotent_factor():
    ctx = etale_ctx()
    A = endo_algebra(ctx.E_R)
    assert A.rank == 1 and A.monomials[A.unit_index] == ("id", 0)


def test_endo_algebra_of_regular_module():
    # Hom_R(R, R) over the split quadratic algebra: rank 2, unit first
    R = etale()
    A = endo_algebra(AModule.regular(R))
    assert A.rank == 2 and A.unit_index == 0


def test_endo_algebra_of_free_rank_two():
    from hhalg.azumaya import check_classical_azumaya
    k = scalar_algebra()
    M = GradedFreeModule(BASE3, (("a", 0), ("b", 0)))
    E = AModule(k, M, {k.unit_index: HomogeneousMap.identity(M)})
    A = endo_algebra(E)
    assert A.rank == 4
    assert check_classical_azumaya(A).overall


# -- balanced tensor and F ----------------------------------------------------------

def test_tensor_regular_gives_e():
    ctx = etale_ctx()
    X = AModule.regular(opposite(ctx.R))
    T = BalancedTensor(X, ctx.E, ctx.E_R.action)
    assert T.module.rank == 1


def test_balanced_tensor_reduce_clears_every_pivot():
    # S (x)_S S for S = F3[t]/t^2: pairs (1,1), (1,t), (t,1), (t,t) with
    # relations (t,1) = (1,t) and (t,t) = 0, so the pivots are 1 and 3
    S = truncated_poly(2, d=0)
    X = AModule.regular(opposite(S))
    T = BalancedTensor(X, S.module, {m: S.left_mult(m) for m in range(S.rank)})
    assert sorted(T.span.rows) == [1, 3] and T.kept == [0, 2]
    # least coordinate kept, a later one a pivot: (1,1) + (1,t) = (1,1) + (t,1)
    assert T.reduce({0: 1, 1: 1}) == {0: 1, 1: 1}
    assert T.reduce({3: 2}) == {}


def test_f_annihilates_the_other_factor():
    ctx = etale_ctx()
    FX = functor_F(ctx, second_factor(ctx))
    assert FX.module.rank == 0


def test_f_is_additive_on_the_regular_module():
    # R = E (+) E', so F(R) = F(E) since F(E') = 0
    ctx = etale_ctx()
    FR = functor_F(ctx, AModule.regular(opposite(ctx.R)))
    FE = functor_F(ctx, AModule(opposite(ctx.R), ctx.E, ctx.E_R.action))
    assert degree_ranks(FR.module) == degree_ranks(FE.module)


# -- plain G and the round trip ------------------------------------------------------

def test_plain_hom_recovers_scalars():
    ctx = etale_ctx()
    Y = AModule.regular(ctx.A)
    W = plain_hom_A(ctx, Y)
    assert W.module.rank == 1 and W.algebra == opposite(ctx.R)


def test_roundtrip_fg_on_corpus():
    ctx = etale_ctx()
    for Y in (AModule.regular(ctx.A),
              ctx.E_A,
              AModule(ctx.A, GradedFreeModule(ctx.A.base, ()), {}, check=False)):
        assert roundtrip_FG(ctx, Y)


def test_roundtrip_fg_refuses_a_range_that_misses_every_degree():
    # etale's modules sit in degree 0; the zero module has no degree anywhere,
    # so its round trip compares zero with zero exactly
    ctx = etale_ctx()
    for Y in (AModule.regular(ctx.A), ctx.E_A):
        with pytest.raises(BudgetExceededError, match=r"^no degree of Y or F\(G\(Y\)\) lies in 5"):
            roundtrip_FG(ctx, Y, (5, 9))
        assert roundtrip_FG(ctx, Y, (0, 9))
    assert roundtrip_FG(ctx, AModule(ctx.A, GradedFreeModule(ctx.A.base, ()), {}, check=False),
                        (5, 9))


def test_completion_matches_takes_the_round_trip_rule_on_an_empty_range():
    # one rule for both verdicts: the zero module's completion is the empty
    # table, which agrees with it in every degree; a nonzero module over a
    # range missing all its degrees compares nothing
    ctx = etale_ctx()
    Z = AModule(opposite(ctx.R), GradedFreeModule(ctx.R.base, ()), {}, check=False)
    table = completion(ctx, Z)
    assert not table.entries
    assert completion_matches(table, Z.module, (-16, 16))
    X = AModule.regular(opposite(ctx.R))
    with pytest.raises(BudgetExceededError, match=r"^no degree of the module or its table lies "
                       r"in 5\.\.9$"):
        completion_matches(completion(ctx, X), X.module, (5, 9))


def test_plain_hom_requires_semisimple():
    ctx = ctx_ex2()  # A is a truncated polynomial algebra, not semisimple
    with pytest.raises(ValueError):
        plain_hom_A(ctx, AModule.regular(ctx.A))


# -- retract and triangle identities --------------------------------------------------

def test_retract_identity_on_corpus():
    ctx = etale_ctx()
    for X in (AModule.regular(opposite(ctx.R)),
              AModule(opposite(ctx.R), ctx.E, ctx.E_R.action)):
        assert retract_identity(ctx, X)


def test_adjunction_triangles_on_corpus():
    ctx = etale_ctx()
    X = AModule.regular(opposite(ctx.R))
    for Y in (AModule.regular(ctx.A), ctx.E_A):
        assert adjunction_triangles(ctx, X, Y)


def graded_ctx(p, degrees):
    # R = F_p acting by scalars, A = End(E) acting through endomorphism_action
    base = BaseRing(GroundRing.prime_field(p))
    R = realize(AlgebraPresentation(base, (), ()))
    E = GradedFreeModule(base, tuple((f"e{i}", d) for i, d in enumerate(degrees)))
    return MoritaContext(AModule(R, E, {R.unit_index: HomogeneousMap.identity(E)}),
                         AModule(endomorphism_algebra(E), E, endomorphism_action(E)))


GRADED = [(p, degrees) for p in (3, 5) for degrees in ((0, 1), (0, 2, -1), (1, 0, 3))]
GRADED_IDS = [f"F{p}-{','.join(map(str, degrees))}" for p, degrees in GRADED]


@pytest.mark.parametrize("p, degrees", GRADED, ids=GRADED_IDS)
def test_identities_hold_on_graded_contexts(p, degrees):
    ctx = graded_ctx(p, degrees)
    X = AModule.regular(opposite(ctx.R))
    assert retract_identity(ctx, X)
    for Y in (AModule.regular(ctx.A), ctx.E_A):
        assert adjunction_triangles(ctx, X, Y)


@pytest.mark.parametrize("p, degrees", GRADED, ids=GRADED_IDS)
def test_hom_basis_is_the_koszul_commutant(p, degrees):
    # lambda_A(a) o z = (-1)^{|a||z|} z o lambda_E(a) for every basis map z
    ctx = graded_ctx(p, degrees)
    Y = AModule.regular(ctx.A)
    basis = _hom_basis(ctx.E_A, Y)
    assert basis.maps
    for z in basis.maps:
        for a in range(ctx.A.rank):
            right = z.compose(ctx.E_A.act_map(a))
            if ctx.A.degree(a) % 2 and z.degree % 2:
                right = right.neg()
            assert Y.act_map(a).compose(z) == right


@pytest.mark.parametrize("n", [2, 3])
def test_hom_basis_of_a_matrix_algebra(n):
    # over End(F3^n): Hom_A(E, E) is the scalars and Hom_A(E, A) has rank n
    M = GradedFreeModule(BASE3, tuple((f"e{i}", 0) for i in range(n)))
    A = endomorphism_algebra(M)
    E = AModule(A, M, endomorphism_action(M))
    assert _hom_basis(E, E).maps == [HomogeneousMap.identity(M)]
    assert len(_hom_basis(E, AModule.regular(A)).maps) == n


@pytest.mark.parametrize("scaled", ["_unit", "_counit"])
def test_identities_fail_for_a_scaled_unit_or_counit(monkeypatch, scaled):
    ctx = graded_ctx(3, (0, 1))
    X, Y = AModule.regular(opposite(ctx.R)), AModule.regular(ctx.A)
    exact = getattr(morita, scaled)
    monkeypatch.setattr(morita, scaled, lambda *args: exact(*args).scale(2))
    assert not retract_identity(ctx, X)
    assert not adjunction_triangles(ctx, X, Y)
    # triangle 2 fails on its own
    monkeypatch.setattr(morita, "retract_identity", lambda ctx, X: True)
    assert not adjunction_triangles(ctx, X, Y)


# -- odd degrees: both Koszul signs fire ------------------------------------------------

def odd_ctx():
    # R = Lambda(x, y) over F3, |x| = |y| = 1; E = R's left regular module, and
    # A = F3 acting through its unit
    R = realize(AlgebraPresentation(BASE3, (("x", 1), ("y", 1)), (
        [(1, ("x", "x"), 0)], [(1, ("y", "y"), 0)], [(1, ("x", "y"), 0), (1, ("y", "x"), 0)])))
    A = scalar_algebra()
    return MoritaContext(AModule.regular(R),
                         AModule(A, R.module, {A.unit_index: HomogeneousMap.identity(R.module)}))


# The balanced tensor reads x.s = (-1)^{|s||x|} s o x off a module over
# opposite(R), and plain_hom_A acts by r o z = (-1)^{|r||z|} z o rho_E(r).
# The two signs cancel: each value below is the one of plain right actions.

def test_odd_degree_tensor_of_the_right_regular_module():
    ctx = odd_ctx()
    X = AModule.regular(opposite(ctx.R))
    assert functor_F(ctx, X).module.rank == 4
    assert retract_identity(ctx, X)


def test_odd_degree_plain_hom_is_a_module_over_the_opposite():
    ctx = odd_ctx()
    W = plain_hom_A(ctx, ctx.E_A)  # checked as a module over opposite(R)
    assert W.module.rank == 16 and W.algebra == opposite(ctx.R)
    X = AModule.regular(opposite(ctx.R))
    for Y in (AModule.regular(ctx.A), ctx.E_A):
        assert adjunction_triangles(ctx, X, Y)


def test_odd_degree_roundtrip_fails_on_e_and_on_a():
    ctx = odd_ctx()
    for Y in (AModule.regular(ctx.A), ctx.E_A):
        assert not roundtrip_FG(ctx, Y)


# -- completions ----------------------------------------------------------------------

def test_completion_power_series_pattern():
    # completing the truncated polynomial line along the augmentation fills
    # in one class per degree step -- the power-series pattern in the window
    ctx = ctx_ex1()
    R = AModule.regular(opposite(ctx.R))
    comp = completion(ctx, R, window=(-16, 16), s_max=8)
    assert comp.notes == ()
    ranks = collapsed_ranks(comp)
    assert all(ranks.get(d) == 1 for d in range(7))


def test_completion_is_equivalence_for_exterior_line():
    # the exterior line is already complete: the canonical comparison is an
    # in-window homology isomorphism
    ctx = ctx_ex2()
    R = AModule.regular(opposite(ctx.R))
    assert completion_matches(completion(ctx, R), R.module, compare=(-10, 10))


def test_completion_not_equivalence_for_truncated_line():
    # the truncated polynomial line is NOT complete: ranks differ in-window
    ctx = ctx_ex1()
    R = AModule.regular(opposite(ctx.R))
    assert not completion_matches(completion(ctx, R), R.module, compare=(-16, 16))


def test_completion_idempotent_in_window():
    # re-completing the in-window materialization reproduces the same table
    ctx = ctx_ex2()
    R = AModule.regular(opposite(ctx.R))
    t1 = completion(ctx, R, window=(-12, 12), s_max=6)
    t2 = completion(ctx, R, window=(-12, 12), s_max=6)
    assert t1 == t2
    # ex:1 shadow: completion of the completed pattern (rank 1 per degree,
    # realized by a deeper truncation) matches the original in the window
    ctx1 = ctx_ex1()
    shallow = local_ctx(truncated_poly(20), exterior())
    deep = local_ctx(truncated_poly(24), exterior())
    c1 = completion(ctx1, AModule.regular(opposite(ctx1.R)),
                    window=(-12, 12), s_max=6)
    c2 = completion(deep, AModule.regular(opposite(deep.R)),
                    window=(-12, 12), s_max=6)
    assert {k: v for k, v in collapsed_ranks(c1).items() if 0 <= k <= 6} == \
           {k: v for k, v in collapsed_ranks(c2).items() if 0 <= k <= 6}
    assert shallow.R.rank == ctx1.R.rank


def test_completion_of_zero_module():
    ctx = ctx_ex1()
    comp = completion(ctx, AModule(opposite(ctx.R), GradedFreeModule(ctx.R.base, ()), {},
                                   check=False))
    assert comp.is_zero()


def test_g_table_matches_f_then_g():
    ctx = ctx_ex1()
    R = AModule.regular(opposite(ctx.R))
    Y = functor_F(ctx, R)
    g1 = functor_G(ctx, Y, window=(-12, 12), s_max=6)
    c1 = completion(ctx, R, window=(-12, 12), s_max=6)
    assert g1 == c1


# -- the torsion side -----------------------------------------------------------------

def test_torsion_roundtrip_recovers_a():
    # S(T(A)) ~ A as collapsed degree ranks over the comparison range
    ctx = ctx_ex2()
    assert torsion_roundtrip(ctx, compare=(0, 10), window=(-16, 16), s_max=12)


def test_torsion_side_shapes():
    ctx = ctx_ex2()
    X = AModule.regular(opposite(ctx.A))
    M = AModule.regular(ctx.R)
    T = torsion_T(ctx, X)
    S = torsion_S(ctx, M, window=(-12, 12), s_max=6)
    assert T.module.rank == 1 and T.algebra is ctx.R
    # derived Hom_R(k, R) over the exterior line: the socle in each stage
    assert S.entries[(0, 1)].free_rank == 1
