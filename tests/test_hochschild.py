import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhalg import algebra, base, hochschild
from hhalg.algebra import (AlgebraPresentation, GradedAlgebra, center, endomorphism_algebra,
                           opposite, realize, tensor)
from hhalg.base import (
    BaseRing,
    GradedFreeModule,
    HomogeneousMap,
    LaurentGenerator,
    hom_pair_index,
)
from hhalg.azumaya import check_classical_azumaya
from hhalg.defs import build_algebra, parse_definition
from hhalg.dg import ChainMap, DGAlgebra, hom_complex, make_quotient_dga, tensor_complex
from hhalg.ground import BudgetExceededError, GroundRing, InvariantError, ZZ
from hhalg.hochschild import (
    BarCochainComplex,
    action_map_mu,
    bar_resolution,
    bimodule,
    check_enveloping_against_bar,
    hochschild_cohomology,
    hochschild_via_enveloping,
    mu_homology_image,
    mu_is_iso,
    regular_bimodule,
)
from hhalg.linalg import SubquotientPresentation, determinant
from hhalg.resolve import AModule, _audit
from hhalg.tables import BigradedTable
from test_algebra import TENSOR_CASES

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
F5 = GroundRing.prime_field(5)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))
KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))


def m2_f3():
    # Clifford presentation of the 2x2 matrix algebra over F3
    base = BaseRing(F3)
    return realize(AlgebraPresentation(base, (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def dual_numbers_f3():
    base = BaseRing(F3)
    return realize(AlgebraPresentation(base, (("t", 0),), ([(1, ("t", "t"), 0)],)))


def lam_tau():
    return realize(AlgebraPresentation(KU2, (("t", 1),), ([(1, ("t", "t"), 0)],)))


def lam_x_f3():
    return realize(AlgebraPresentation(BaseRing(F3), (("x", -1),), ([(1, ("x", "x"), 0)],)))


def lam_2_f3():
    return realize(AlgebraPresentation(BaseRing(F3), (("x1", -1), ("x2", -1)), (
        [(1, ("x1", "x1"), 0)],
        [(1, ("x2", "x2"), 0)],
        [(1, ("x1", "x2"), 0), (1, ("x2", "x1"), 0)],
    )))


def n_ranks(table, n):
    return sum(p.free_rank for (s, _), p in table.entries.items() if s == n)


# -- bar complex cohomology -----------------------------------------------------

def test_hh_matrix_algebra():
    t = hochschild_cohomology(m2_f3(), n_max=3)
    assert n_ranks(t, 0) == 1
    for n in (1, 2, 3):
        assert n_ranks(t, n) == 0


def test_hh_of_m3_f3_through_n3_is_its_center():
    # HH of an Azumaya algebra is its center, in degree 0: End(F3^3) = M3(F3)
    A = endomorphism_algebra(GradedFreeModule(BaseRing(F3), (("e0", 0), ("e1", 0), ("e2", 0))))
    t0 = time.perf_counter()
    table = hochschild_cohomology(A, n_max=3)
    dt = time.perf_counter() - t0
    assert table.entries == {(0, 0): SubquotientPresentation(1)}
    assert dt < 10, f"bar HH of M3(F3) through n = 3 took {dt:.1f}s"


def test_hochschild_cohomology_factors_each_slice_once(monkeypatch):
    sliced, factored = [], []
    real_slice, real_factor = HomogeneousMap.slice_matrix, base.factor

    def slicing(self, t):
        sliced.append((id(self), self.source.base.degree_key(t)))
        return real_slice(self, t)

    def counting(M):
        factored.append(M)
        return real_factor(M)

    monkeypatch.setattr(HomogeneousMap, "slice_matrix", slicing)
    monkeypatch.setattr(base, "factor", counting)
    dual_z = realize(AlgebraPresentation(BaseRing(ZZ), (("t", 0),), ([(1, ("t", "t"), 0)],)))
    for A in (dual_numbers_f3(), dual_z):
        sliced.clear()
        factored.clear()
        t = hochschild_cohomology(A, n_max=4)
        assert [n_ranks(t, n) for n in range(5)] == [2, 1, 1, 1, 1]
        # one slice and one factorization per (map, slice key); the bar
        # maps all live until the table is done, so no id is reused
        assert factored and len(factored) == len(sliced) == len(set(sliced))


def test_hh_dual_numbers_periodic_pattern():
    # small-resolution oracle: [dim A, 1, 1, 1, ...] in odd characteristic
    t = hochschild_cohomology(dual_numbers_f3(), n_max=4)
    assert [n_ranks(t, n) for n in range(5)] == [2, 1, 1, 1, 1]


def test_hh_base_algebra_trivial():
    one = realize(AlgebraPresentation(BaseRing(F3), (), ()))
    t = hochschild_cohomology(one, n_max=3)
    assert [n_ranks(t, n) for n in range(4)] == [1, 0, 0, 0]


def test_hh_exterior_char_two_laurent():
    # in characteristic 2 the small-resolution differentials vanish, so
    # every cochain degree contributes a copy of the algebra
    t = hochschild_cohomology(lam_tau(), n_max=3)
    assert [n_ranks(t, n) for n in range(4)] == [2, 2, 2, 2]


def test_hh_zero_equals_graded_center():
    for A in (m2_f3(), dual_numbers_f3(), lam_tau()):
        t = hochschild_cohomology(A, n_max=1)
        want = sum(p.free_rank for p in center(A).values())
        assert n_ranks(t, 0) == want


def test_hh_trivial_coefficients():
    # Hom(Abar^n, k) with all outer actions zero; for the dual numbers the
    # only product of ideal monomials is t*t = 0, so every differential dies
    A = dual_numbers_f3()
    k = GradedFreeModule(A.base, (("k", 0),))
    ident = HomogeneousMap.identity(k)
    M = bimodule(A, k, {A.unit_index: ident}, {A.unit_index: ident})
    t = hochschild_cohomology(A, M, n_max=4)
    assert [n_ranks(t, n) for n in range(5)] == [1, 1, 1, 1, 1]


def test_bimodule_with_noncommuting_actions_is_rejected():
    # t acts with square zero on either side alone, but t.(x.t) != (t.x).t
    A = dual_numbers_f3()
    M = GradedFreeModule(A.base, (("a", 0), ("b", 0)))
    ident = HomogeneousMap.identity(M)
    t = [m for m in range(A.rank) if m != A.unit_index][0]
    left = {A.unit_index: ident, t: HomogeneousMap(M, M, 0, {(1, 0): 1})}
    right = {A.unit_index: ident, t: HomogeneousMap(M, M, 0, {(0, 1): 1})}
    bimodule(A, M, left, {A.unit_index: ident})
    bimodule(A, M, {A.unit_index: ident}, right)
    with pytest.raises(ValueError, match="action fails"):
        bimodule(A, M, left, right)


def test_hh_rejects_a_one_sided_module():
    # a left A-module is not a bimodule; its actions would be read at the
    # wrong enveloping indices and give a wrong table
    A = dual_numbers_f3()
    with pytest.raises(ValueError, match="must be a bimodule"):
        hochschild_cohomology(A, AModule.regular(A))


def test_hh_refuses_a_module_over_another_algebra_of_the_bimodule_rank():
    # both algebras have rank (rank A)^2, so a rank test lets them through:
    # M2(F3) (x) M2(F3) is not M2(F3) (x) M2(F3)^op as a table, and F3[t]/t^2
    # with a module over M2(F3) ended in a failed d^2 = 0 check
    A = m2_f3()
    with pytest.raises(ValueError, match="must be a bimodule"):
        hochschild_cohomology(A, AModule.regular(tensor(A, A)))
    with pytest.raises(ValueError, match="must be a bimodule"):
        hochschild_cohomology(dual_numbers_f3(), AModule.regular(A))
    # the bar cross-check shares the table guard, where a rank test let it
    # through to a failed d^2 = 0 check
    with pytest.raises(ValueError, match="must be a bimodule"):
        BarCochainComplex(dual_numbers_f3(), AModule.regular(A), 2)


def test_hh_takes_a_bimodule_over_an_equal_table():
    # Λ(x1, x2) is graded-commutative, so A (x) A and A (x) A^op have one table
    A = lam_2_f3()
    M = AModule(tensor(A, A), A.module, regular_bimodule(A).action)
    assert hochschild_cohomology(A, M, n_max=2) == hochschild_cohomology(A, n_max=2)


def test_hh_on_its_default_module_compares_no_algebra_tables(monkeypatch):
    compared = []
    real = GradedAlgebra.__eq__

    def eq(self, other):
        if self is not other:
            compared.append((self, other))
        return real(self, other)

    monkeypatch.setattr(GradedAlgebra, "__eq__", eq)
    for A in (lam_2_f3(), m2_f3(), dual_numbers_f3()):
        hochschild_cohomology(A, n_max=2)
    assert compared == []


def all_words_of_length_two_z():
    # k<x, y>/(every word of length 2) has 2^n n-chains, as many as the bar
    # has words, so the budget stops its chains and its bar at one term
    return realize(AlgebraPresentation(BaseRing(ZZ), (("x", 1), ("y", 2)), tuple(
        [(1, w, 0)] for w in (("x", "x"), ("x", "y"), ("y", "x"), ("y", "y")))))


# {budget: the degree hochschild_cohomology(A, n_max=3, budget=budget) is
# complete through}, "small" where no cochain degree fits and None where the
# table is complete, per route: lam_2's bar terms have 4 * 3^n generators,
# M2(F3)'s cut has 4 and 12, and the chains 3 * 2^n
BUDGET_STOPS = {
    "bar": (lam_2_f3, {11: "small", 12: 0, 35: 0, 36: 1, 323: 2, 324: None}),
    "separable": (m2_f3, {11: "small", 12: None}),
    "Bardzell": (all_words_of_length_two_z, {5: "small", 12: 1, 47: 2, 48: None}),
}


@pytest.mark.parametrize("route", sorted(BUDGET_STOPS))
def test_one_budget_rule_stops_every_route(route):
    make, stops = BUDGET_STOPS[route]
    A = make()
    R = regular_bimodule(A)
    assert hochschild.hh_resolution(A, R, R, 3)[2] == route
    full, key = hochschild_cohomology(A, n_max=3), A.base.degree_key
    for budget, completed in stops.items():
        if completed == "small":
            with pytest.raises(BudgetExceededError, match="budget too small"):
                hochschild_cohomology(A, n_max=3, budget=budget)
            continue
        t = hochschild_cohomology(A, n_max=3, budget=budget)
        assert t.completed_through == completed
        assert t.notes == (() if completed is None else
                           (f"budget exceeded: completed through n = {completed}",))
        top = 3 if completed is None else completed
        assert t.by_slice(key, 3) == full.by_slice(key, top)
        if route != "separable":  # the bar cross-check keeps the same stages
            assert BarCochainComplex(A, R, 3, budget).completed == top


def test_bar_differential_squares_to_zero_with_signs():
    # odd-degree generators over F3 exercise every Koszul sign; the
    # constructor hard-checks d^2 = 0
    BarCochainComplex(lam_x_f3(), regular_bimodule(lam_x_f3()), n_max=3)


def test_bar_table_pins_the_koszul_sign_of_the_right_action():
    # HH^n(Λ(V)) = Λ(V) (x) S^n(V*) in odd characteristic, V = <x1, x2> in
    # degree -1: Λ(V) has ranks 1, 2, 1 in degrees 0, -1, -2, and S^n(V*) is
    # n + 1 copies shifted up by n.  A wrong sign on the right action keeps
    # d^2 = 0 but changes these ranks.
    want = {}
    for n in range(3):
        for t, r in ((0, 1), (-1, 2), (-2, 1)):
            want[(n, t + n)] = (n + 1) * r
    A = lam_2_f3()
    bar = hochschild_cohomology(A, n_max=2)
    assert {k: p for k, p in bar.entries.items() if not p.is_zero} == {
        k: SubquotientPresentation(r) for k, r in want.items()}
    # the enveloping route has no bar signs; its degree t is the bar's -t
    env = hochschild_via_enveloping(A, n_max=2)
    check_enveloping_against_bar(A, env, bar, 2)
    assert {(s, -t): p for (s, t), p in env.entries.items() if not p.is_zero} == {
        k: SubquotientPresentation(r) for k, r in want.items()}


def truncated_z():
    return realize(AlgebraPresentation(BaseRing(ZZ), (("y", 1),), ([(1, ("y", "y", "y"), 0)],)))


@pytest.mark.parametrize("make", [lam_2_f3, truncated_z, lam_tau], ids=lambda f: f.__name__)
def test_bar_resolution_is_a_resolution(make):
    # A <- B_0 <- B_1 <- ... is exact on the flattened A^e-maps alone, apart
    # from any Hom: mu is onto A, and ker = im at every stage below the top
    A = make()
    _audit(bar_resolution(A, regular_bimodule(A).algebra, 3))


@pytest.mark.parametrize("k,deg,p", [(k, deg, p) for k in (3, 4) for deg in (1, 2)
                                     for p in (2, 3)])
def test_hh_over_fp_is_hh_over_z_by_universal_coefficients(k, deg, p):
    # the bar cochains of F_p[y]/y^k are those of Z[y]/y^k reduced mod p, free
    # of finite rank in each (n, t), so HH^n over F_p is HH^n over Z (x) F_p
    # plus Tor(HH^{n+1} over Z, F_p): one F_p per torsion factor divisible by p
    def truncated(ground):
        return realize(AlgebraPresentation(BaseRing(ground), (("y", deg),),
                                           ([(1, ("y",) * k, 0)],)))

    over_z = hochschild_cohomology(truncated(ZZ), n_max=5)
    over_fp = hochschild_cohomology(truncated(GroundRing.prime_field(p)), n_max=4)
    zero = SubquotientPresentation(0)

    def divisible(n, t):
        return sum(d % p == 0 for d in over_z.entries.get((n, t), zero).torsion)

    assert over_fp.entries and all(not pres.torsion for pres in over_fp.entries.values())
    ts = {t for _, t in over_z.entries} | {t for _, t in over_fp.entries}
    for n in range(5):
        for t in ts:
            want = (over_z.entries.get((n, t), zero).free_rank
                    + divisible(n, t) + divisible(n + 1, t))
            assert over_fp.entries.get((n, t), zero).free_rank == want, (n, t)


def test_route_comparison_sees_one_torsion_factor():
    # over Z the two tables agree in free rank and differ in one torsion factor
    A = truncated_z()
    bar = BigradedTable({(2, 2): SubquotientPresentation(1, (3,))})
    env = BigradedTable({(2, -2): SubquotientPresentation(1, (3,))})
    check_enveloping_against_bar(A, env, bar, 2)
    env = BigradedTable({(2, -2): SubquotientPresentation(1, (9,))})
    with pytest.raises(InvariantError, match="disagrees with bar complex at n = 2"):
        check_enveloping_against_bar(A, env, bar, 2)


def test_by_slice_merges_the_torsion_of_one_slice_key():
    # two t of one Laurent residue: ranks add and every torsion factor stays
    table = BigradedTable({(1, 0): SubquotientPresentation(1, (2,)),
                           (1, 2): SubquotientPresentation(0, (3,)),
                           (2, 1): SubquotientPresentation(1)})
    assert table.by_slice(KU2.degree_key, 1) == {(1, 0): (1, (2, 3))}


# -- the enveloping-algebra path --------------------------------------------------

def checked_enveloping(A, n_max, window=(-16, 16)):
    """The enveloping table of A, cross-checked against its bar table."""
    env = hochschild_via_enveloping(A, n_max=n_max, window=window)
    check_enveloping_against_bar(A, env, hochschild_cohomology(A, n_max=n_max, window=window),
                                 n_max)
    return env


def test_enveloping_path_matrix_algebra():
    t = checked_enveloping(m2_f3(), 2)
    assert n_ranks(t, 0) == 1
    assert n_ranks(t, 1) == 0


def test_enveloping_path_dual_numbers():
    t = checked_enveloping(dual_numbers_f3(), 3)
    assert [n_ranks(t, n) for n in range(4)] == [2, 1, 1, 1]


def test_enveloping_path_graded_signs():
    # odd generator: the cross-check compares bar and Ext degrees
    t = checked_enveloping(lam_x_f3(), 2)
    assert n_ranks(t, 0) == 2


def test_enveloping_path_laurent():
    t = checked_enveloping(lam_tau(), 2)
    assert [n_ranks(t, n) for n in range(3)] == [2, 2, 2]


def test_enveloping_path_wraps_a_laurent_period():
    # t^2 = v: products of the enveloping algebra land a Laurent period
    # below their pair degree, and the module check must accept them
    A = realize(AlgebraPresentation(KU2, (("t", 1),), ([(1, ("t", "t"), 0), (1, (), 1)],)))
    t = checked_enveloping(A, 2)
    assert [n_ranks(t, n) for n in range(3)] == [2, 2, 2]


@pytest.mark.parametrize("T, window", [(4, (-3, 3)), (5, (-2, 2)), (6, (-4, 4))])
def test_enveloping_path_resolves_past_its_window(T, window):
    # stage 2 of F3[y]/y^T over its enveloping algebra sits in degree T,
    # outside the window; a resolution clipped to the window lost HH^2 (and
    # part of HH^1 for T = 5)
    A = realize(AlgebraPresentation(BaseRing(F3), (("y", 1),), ([(1, ("y",) * T, 0)],)))
    assert n_ranks(checked_enveloping(A, 2, window), 2)


def test_enveloping_cross_check_rejects_a_foreign_bar_table():
    A = dual_numbers_f3()
    env = hochschild_via_enveloping(A, n_max=1)
    with pytest.raises(AssertionError, match="disagrees with bar complex at n = 0"):
        check_enveloping_against_bar(A, env, hochschild_cohomology(m2_f3(), n_max=1), 1)


# -- the action map ----------------------------------------------------------------

def test_mu_iso_for_matrix_algebra():
    assert mu_is_iso(m2_f3())


def test_mu_not_iso_for_dual_numbers():
    assert not mu_is_iso(dual_numbers_f3())


def lipschitz_quaternions(g):
    # <i, j | i^2 + 1, j^2 + 1, ij + ji>, free of rank 4 on 1, i, j, ij
    return realize(AlgebraPresentation(BaseRing(g), (("i", 0), ("j", 0)), (
        [(1, ("i", "i"), 0), (1, (), 0)],
        [(1, ("j", "j"), 0), (1, (), 0)],
        [(1, ("i", "j"), 0), (1, ("j", "i"), 0)],
    )))


@pytest.mark.parametrize("g,iso", [(ZZ, False), (GroundRing.rationals(), True),
                                   (F3, True), (F2, False)], ids=str)
def test_mu_over_z_needs_unit_invariant_factors(g, iso):
    A = lipschitz_quaternions(g)
    assert A.rank == 4
    assert mu_is_iso(A) is iso
    assert check_classical_azumaya(A).overall is iso
    if g is ZZ:
        # full rank, but det 2^16: the Smith form is not unimodular
        mu = action_map_mu(A)
        assert mu.factored(0).rank == 16
        assert mu.factored(0).cokernel() == SubquotientPresentation(0, (2,) * 8 + (4,) * 4)
        assert determinant(mu.slice_matrix(0)[0]) == 65536


def test_mu_multiplicative_check_runs():
    # construction hard-checks the algebra-map property
    f = action_map_mu(lam_tau())
    assert f.degree == 0
    assert f.source.rank == 4 and f.target.rank == 4


def test_mu_with_one_entry_changed_fails_the_algebra_map_check(monkeypatch):
    # change one entry of the action of e_i (x) e_j, with neither factor the
    # unit, so the changed monomial is not a generator of the enveloping algebra
    A = m2_f3()
    g = A.base.ground
    action = hochschild._regular_action(A)
    idx = max(action)
    assert A.unit_index not in divmod(idx, A.rank)
    hm = action[idx]
    entries = dict(hm.entries)
    key = min(entries)
    entries[key] = g.normalize(entries[key] + g.one)
    action[idx] = HomogeneousMap(hm.source, hm.target, hm.degree, entries)
    monkeypatch.setattr(hochschild, "_regular_action", lambda _: dict(action))
    with pytest.raises(AssertionError, match="mu failed the algebra-map check: left action"):
        action_map_mu(A)


def test_mu_reads_the_enveloping_algebra_through_its_factors(monkeypatch):
    # End(F5^4) has rank 16 and 6 generators: the generator pairs of its
    # enveloping algebra made 2 * 6 * 16^2 = 3,072 products
    computed = []
    product = algebra._TensorAlgebra._product
    monkeypatch.setattr(algebra._TensorAlgebra, "_product",
                        lambda self, i, j, vec: computed.append((i, j)) or product(self, i, j, vec))
    E = endomorphism_algebra(GradedFreeModule(BaseRing(F5), tuple((f"e{i}", 0) for i in range(4))))
    assert mu_is_iso(E)
    assert len(set(computed)) == len(computed) <= 642


def test_mu_is_iso_composes_no_maps(monkeypatch):
    # each action of the regular bimodule is read off the structure table:
    # 256 composites L_a o R_b for End(F5^4) when it was composed
    E = endomorphism_algebra(GradedFreeModule(BaseRing(F5), tuple((f"e{i}", 0) for i in range(4))))
    composed = []
    compose = HomogeneousMap.compose
    monkeypatch.setattr(HomogeneousMap, "compose",
                        lambda self, first: composed.append(1) or compose(self, first))
    assert mu_is_iso(E)
    assert composed == []


DATA = os.path.join(os.path.dirname(__file__), "..", "src", "hhalg", "data")


def corpus_algebras():
    """(file, name) of every algebra entry of the bundled corpus."""
    out = []
    for file in sorted(f for f in os.listdir(DATA) if f.endswith(".def")):
        with open(os.path.join(DATA, file)) as fh:
            out += [(file, name) for name, _ in parse_definition(fh.read()).algebras]
    return out


def corpus_algebra(file, name):
    """The graded algebra of a corpus entry; a dg entry's underlying algebra."""
    with open(os.path.join(DATA, file)) as fh:
        A = build_algebra(parse_definition(fh.read()), name)
    return A.dga.algebra if hasattr(A, "dga") else A


@pytest.mark.parametrize("make", [
    *[pytest.param(lambda f=f, n=n: corpus_algebra(f, n), id=f"{f}:{n}")
      for f, n in corpus_algebras()],
    *[pytest.param(lambda c=c, i=i: TENSOR_CASES[c]()[i], id=f"{c} factor {i}")
      for c in sorted(TENSOR_CASES) for i in (0, 1)],
    pytest.param(lambda: endomorphism_algebra(GradedFreeModule(
        BaseRing(ZZ), (("e0", 0), ("e1", 1), ("e2", -2)))), id="End(Z^3)"),
    pytest.param(lam_tau, id="lam(t)/F2[v^±1]"),
])
def test_regular_bimodule_matches_the_composed_bimodule(make):
    # read off the table, e_a (x) e_b acts by x |-> +-(e_a x) e_b; the oracle
    # composes left_mult(a) after the right multiplication by b, read off
    # mul_basis, and checks the module axioms
    A = make()
    right = {j: HomogeneousMap(A.module, A.module, A.degree(j), {
        (k, i): c for i in range(A.rank) for k, c in A.mul_basis(i, j).items()})
        for j in range(A.rank)}
    oracle = bimodule(A, A.module, {m: A.left_mult(m) for m in range(A.rank)}, right)
    action = regular_bimodule(A).action
    assert action.keys() == oracle.action.keys()
    for i, f in oracle.action.items():
        assert (action[i].degree, action[i].entries) == (f.degree, f.entries), i


@pytest.mark.parametrize("file, name", corpus_algebras(),
                         ids=[f"{f}:{n}" for f, n in corpus_algebras()])
def test_the_regular_module_of_the_opposite_is_the_right_regular_module(file, name):
    # a right A-module is a left opposite(A)-module by s o x = (-1)^{|s||x|} x s;
    # on A itself that is the left multiplication of opposite(A), a checked action
    A = corpus_algebra(file, name)
    X = AModule.regular(opposite(A))
    algebra.check_action(X.algebra, X.module, X.action)
    for s in range(A.rank):
        right = HomogeneousMap(A.module, A.module, A.degree(s), {
            (k, i): -c if A.parity(s) and A.parity(i) else c
            for i in range(A.rank) for k, c in A.mul_basis(i, s).items()})
        assert X.act_map(s) == right, s


@pytest.mark.parametrize("route, supported", [
    (hochschild_cohomology, "pass A.algebra"),
    (hochschild_via_enveloping, "pass A.algebra"),
    (mu_is_iso, r"use dg.is_quasi_iso\(action_map_mu\(A\), window\)"),
], ids=["hochschild_cohomology", "hochschild_via_enveloping", "mu_is_iso"])
def test_a_dg_algebra_gets_a_type_error_naming_the_supported_route(route, supported):
    D = make_quotient_dga(KUZ, 3, 1).dga
    with pytest.raises(TypeError, match=rf"^{route.__name__} takes a GradedAlgebra, "
                                        rf"not a DGAlgebra: .*{supported}"):
        route(D)


def test_mu_dg_chain_map():
    A = make_quotient_dga(KUZ, 3, 1).dga
    mu = action_map_mu(A)
    assert isinstance(mu, ChainMap)
    assert mu.degree == 0
    # mu(y (x) 1): 1 -> y and y -> y^2 = w = v
    names = [n for n, _ in mu.source.module.generators]
    M = A.algebra.module
    out = mu.f.apply_coords({names.index("y|1"): 1})
    assert out == {hom_pair_index(M, M, 0, 1): 1, hom_pair_index(M, M, 1, 0): 1}


@pytest.mark.parametrize("x,w", [(x, w) for x in (2, 3, 5) for w in (0, 1)])
def test_dg_mu_builds_no_opposite_dga(monkeypatch, x, w):
    # A^op has A's module and differential, so mu's source is C (x) C for
    # C = A.complex(): the same chain map as through the opposite DGA
    A = make_quotient_dga(KUZ, x, w).dga
    C = A.complex()
    source = tensor_complex(C, DGAlgebra(opposite(A.algebra), A.d).complex())
    target = hom_complex(C, C)
    f = regular_bimodule(A.algebra).action_map()

    def refuse(self, *args, **kwargs):
        raise AssertionError("action_map_mu built a DGA")

    monkeypatch.setattr(DGAlgebra, "__init__", refuse)
    mu = action_map_mu(A)
    assert mu.source == source and mu.target == target and mu.f == f


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=3))
def test_mu_iso_for_endomorphism_algebras(degs):
    E = GradedFreeModule(BaseRing(F5), tuple((f"e{i}", d) for i, d in enumerate(degs)))
    assert mu_is_iso(endomorphism_algebra(E))


def test_endomorphism_algebra_shape():
    E = GradedFreeModule(BaseRing(F5), (("a", 0), ("b", 3)))
    A = endomorphism_algebra(E)
    assert A.rank == 4
    assert sorted(A.degree(i) for i in range(4)) == [-3, 0, 0, 3]
    assert not mu_is_iso(dual_numbers_f3())


# -- homology image of alpha --------------------------------------------------------

def test_mu_image_unit_for_odd_p():
    for p in (3, 5):
        Q = make_quotient_dga(KUZ, p, 1)
        r = mu_homology_image(Q)
        assert r.is_unit
        assert (r.coefficient - r.modeled_defect) % p == 0
        assert r.alpha_choice == "y|1 - 1|y"


def test_mu_image_vanishes_for_commutative_shadow():
    r = mu_homology_image(make_quotient_dga(KUZ, 3, 0))
    assert r.coefficient == 0
    assert not r.is_unit


def test_mu_image_defect_dies_at_two():
    r = mu_homology_image(make_quotient_dga(KUZ, 2, 1))
    assert r.coefficient % 2 == 0
    assert not r.is_unit
    assert r.modeled_defect == 2
