import pytest

from hhalg import algebra, azumaya
from hypothesis import given, settings
from hypothesis import strategies as st

from hhalg.algebra import AlgebraPresentation, endomorphism_algebra, realize
from hhalg.azumaya import (
    check_classical_azumaya,
    check_generalized_azumaya,
    check_weak_azumaya,
    endo_smash_invariant,
)
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator, tensor_module
from hhalg.dg import make_quotient_dga
from hhalg.ground import GroundRing, ZZ
from hhalg.hochschild import hochschild_cohomology, mu_homology_image

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
F5 = GroundRing.prime_field(5)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))
KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))


def m2(p):
    base = BaseRing(GroundRing.prime_field(p))
    return realize(AlgebraPresentation(base, (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def etale_f3():
    # F3 x F3 presented as F3[t]/(t^2 - t)
    base = BaseRing(F3)
    return realize(AlgebraPresentation(base, (("t", 0),), (
        [(1, ("t", "t"), 0), (-1, ("t",), 0)],
    )))


def b2():
    return realize(AlgebraPresentation(KU2, (("t", 1),), (
        [(1, ("t", "t"), 0), (-1, (), 1)],
    )))


def lam_tau():
    return realize(AlgebraPresentation(KU2, (("t", 1),), ([(1, ("t", "t"), 0)],)))


def condition(report, name):
    for c in report.conditions:
        if c.name.startswith(name):
            return c
    raise KeyError(name)


# -- classical -----------------------------------------------------------------

def test_classical_matrix_algebra_passes():
    r = check_classical_azumaya(m2(3))
    assert r.overall
    assert [c.name for c in r.conditions] == [
        "finite free rank", "unit kernel zero", "mu invertible"]


def test_classical_etale_fails_mu():
    r = check_classical_azumaya(etale_f3())
    assert not r.overall
    assert not condition(r, "mu").verdict
    assert condition(r, "finite free rank").verdict


def test_classical_z6_fails_unit_kernel():
    A = make_quotient_dga(BaseRing(ZZ), 6, 0).dga
    r = check_classical_azumaya(A)
    assert not r.overall
    c = condition(r, "unit kernel zero")
    assert not c.verdict and "(6)" in c.witness


def test_classical_routes_graded_input():
    r = check_classical_azumaya(b2())
    assert [c.name for c in r.conditions] == [
        "perfect complex", "locality shadow: I * H0(A) = 0", "mu quasi-isomorphism"]
    assert r.conditions == check_generalized_azumaya(b2(), (-4, 4)).conditions


def test_classical_pass_gives_trivial_hochschild():
    # a passing classical algebra has HH equal to the base at n = 0 only
    for p in (3, 5):
        A = m2(p)
        assert check_classical_azumaya(A).overall
        t = hochschild_cohomology(A, n_max=3)
        assert t.entries[(0, 0)].free_rank == 1
        assert all(s == 0 for (s, _) in t.entries)


# -- generalized (DG) -------------------------------------------------------------

def test_generalized_odd_prime_passes():
    for p in (3, 5):
        Q = make_quotient_dga(KUZ, p, 1)
        r = check_generalized_azumaya(Q.dga, window=(-6, 6))
        assert r.overall
        assert condition(r, "mu quasi-isomorphism").verdict
        # the unit-kernel ideal is recorded but its vanishing stays open
        assert f"I = ({p})" in condition(r, "locality").witness


def test_generalized_prime_two_fails_mu():
    Q = make_quotient_dga(KUZ, 2, 1)
    r = check_generalized_azumaya(Q.dga, window=(-6, 6))
    assert not r.overall
    mu = condition(r, "mu quasi-isomorphism")
    assert not mu.verdict and mu.witness.startswith("window (-6, 6), failures at ")
    assert condition(r, "locality").verdict


def test_generalized_commutative_shadow_fails_mu():
    Q = make_quotient_dga(KUZ, 3, 0)
    r = check_generalized_azumaya(Q.dga, window=(-6, 6))
    assert not r.overall
    assert not condition(r, "mu quasi-isomorphism").verdict


def test_generalized_window_must_cover_period():
    Q = make_quotient_dga(KUZ, 3, 1)
    with pytest.raises(ValueError):
        check_generalized_azumaya(Q.dga, window=(0, 0))


# -- weak --------------------------------------------------------------------------

def test_weak_b2_passes():
    r = check_weak_azumaya(b2())
    assert r.overall
    assert [c.name for c in r.conditions] == ["dualizable", "mu weak equivalence"]
    assert "alpha" in condition(r, "mu").witness


def test_weak_exterior_fails():
    r = check_weak_azumaya(lam_tau())
    assert not r.overall
    assert not condition(r, "mu").verdict


def test_weak_endomorphism_algebra_passes():
    E = GradedFreeModule(BaseRing(F5), (("a", 0), ("b", 1), ("c", 3)))
    assert check_weak_azumaya(endomorphism_algebra(E)).overall


def test_classical_pass_implies_weak_pass():
    for A in (m2(3), m2(5)):
        if check_classical_azumaya(A).overall:
            assert check_weak_azumaya(A).overall


@settings(max_examples=10, deadline=None)
@given(
    st.sampled_from(["F5", "KU2"]),
    st.lists(st.integers(-2, 2), min_size=1, max_size=3),
)
def test_weak_endo_property(base_name, degs):
    base = BaseRing(F5) if base_name == "F5" else KU2
    E = GradedFreeModule(base, tuple((f"e{i}", d) for i, d in enumerate(degs)))
    assert check_weak_azumaya(endomorphism_algebra(E)).overall


# -- endomorphism smash invariant ---------------------------------------------------

def test_endo_smash_rank_one():
    E = GradedFreeModule(BaseRing(F3), (("e", 0),))
    assert endo_smash_invariant(E, E)


def test_endo_smash_ranks_two_three():
    E1 = GradedFreeModule(BaseRing(F3), (("a", 0), ("b", 0)))
    E2 = GradedFreeModule(BaseRing(F3), (("c", 0), ("d", 0), ("e", 0)))
    assert endo_smash_invariant(E1, E2)


def test_endo_smash_graded_laurent():
    E1 = GradedFreeModule(KU2, (("a", 0), ("b", 1)))
    E2 = GradedFreeModule(KU2, (("c", 0), ("d", 2)))
    assert endo_smash_invariant(E1, E2)


def test_endo_smash_signs_odd_characteristic():
    E1 = GradedFreeModule(BaseRing(F5), (("a", 0), ("b", 1)))
    E2 = GradedFreeModule(BaseRing(F5), (("c", 0), ("d", 1)))
    assert endo_smash_invariant(E1, E2)


def test_endo_smash_odd_degrees_over_z():
    E1 = GradedFreeModule(BaseRing(ZZ), (("a", 1), ("b", 0), ("c", -1)))
    E2 = GradedFreeModule(BaseRing(ZZ), (("d", 3), ("e", 0)))
    assert endo_smash_invariant(E1, E2)


def test_endo_smash_without_the_koszul_sign_is_not_multiplicative(monkeypatch):
    def unsigned(f, g):
        # x (x) y |-> f(x) (x) g(y), dropping (-1)^{|g||x|}
        gr = f.source.base.ground
        entries = {(k * g.target.rank + l, i * g.source.rank + j): gr.normalize(c * d)
                   for (k, i), c in f.entries.items() for (l, j), d in g.entries.items()}
        return HomogeneousMap(tensor_module(f.source, g.source),
                              tensor_module(f.target, g.target), f.degree + g.degree, entries)

    E1 = GradedFreeModule(BaseRing(F5), (("a", 0), ("b", 1)))
    E2 = GradedFreeModule(BaseRing(F5), (("c", 0), ("d", 1)))
    assert endo_smash_invariant(E1, E2)
    monkeypatch.setattr(azumaya, "tensor_maps", unsigned)
    assert not endo_smash_invariant(E1, E2)
    # with every degree even the sign is never used
    even = GradedFreeModule(BaseRing(F5), (("a", 0), ("b", 2)))
    assert endo_smash_invariant(even, even)


def test_mu_checks_read_enveloping_products_without_the_full_table(monkeypatch):
    def refuse(T):
        raise AssertionError("the full table of A (x) A^op was built")

    monkeypatch.setattr(algebra._TensorAlgebra, "mult", property(refuse))
    end_f5 = endomorphism_algebra(GradedFreeModule(BaseRing(F5), tuple(
        (f"e{i}", d) for i, d in enumerate((0, 1, 1, 2)))))
    assert check_weak_azumaya(end_f5).overall
    end_z = endomorphism_algebra(GradedFreeModule(BaseRing(ZZ), (("a", 0), ("b", 1), ("c", 3))))
    assert check_classical_azumaya(end_z).overall
    assert mu_homology_image(make_quotient_dga(KUZ, 3, 1)).coefficient is not None
