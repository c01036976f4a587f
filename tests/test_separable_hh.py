"""HH of separable algebras from one verified witness: HH^n = 0 for n >= 1
and HH^0 from the bar cut at n = 0, against the bar through n_max on the
corpus and on drawn matrix algebras End(R^r), whose HH is R in degree 0."""

import json
import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhalg import hochschild
from hhalg.algebra import endomorphism_algebra
from hhalg.base import BaseRing, GradedFreeModule
from hhalg.defs import build_algebra, parse_definition
from hhalg.ground import GroundRing
from hhalg.hochschild import (
    hochschild_cohomology,
    is_separability_witness,
    monomial_words,
    regular_bimodule,
    separability_witness,
)
from hhalg.linalg import SubquotientPresentation
from test_monomial_hh import BASES, DATA, WINDOW, bar_table, corpus_algebra, route_taken

GROUNDS = {**BASES, "F5": BaseRing(GroundRing.prime_field(5)),
           "Q": BaseRing(GroundRing.rationals())}
SEPARABLE = [("matrix.def", "M2_F3"), ("matrix.def", "M2_F5"), ("etale.def", "R"),
             ("k1k1_trunc.def", "sigma_1"), ("k1k1_trunc.def", "sigma_2")]
INSEPARABLE = [("exterior1.def", "lam_x"), ("exterior_n.def", "lam_2"),
               ("exterior_n.def", "lam_3"), ("ku2.def", "B2"), ("ku2.def", "lam_tau"),
               ("k1k1_trunc.def", "k1k1op_1"), ("k1k1_trunc.def", "k1k1op_2"),
               ("polytrunc.def", "poly20")]


def witness(A):
    return separability_witness(A, regular_bimodule(A))


def assert_witness_route_is_the_bar(A, n_max):
    """A has a witness, takes the witness route, and its table equals the
    bar's through n_max slice by slice, torsion included."""
    M = regular_bimodule(A)
    assert monomial_words(A) is None and separability_witness(A, M) is not None
    ours = hochschild_cohomology(A, M, n_max=n_max, window=WINDOW)
    key = A.base.degree_key
    assert (ours.completed_through, ours.notes) == (None, ())
    assert ours.by_slice(key, n_max) == bar_table(A, M, n_max).by_slice(key, n_max)


# -- the corpus ------------------------------------------------------------------

@pytest.mark.parametrize("filename,name", SEPARABLE, ids=[n for _, n in SEPARABLE])
def test_separable_corpus_algebras_equal_the_bar_through_n3(filename, name):
    assert_witness_route_is_the_bar(corpus_algebra(filename, name), 3)


@pytest.mark.parametrize("filename,name", SEPARABLE, ids=[n for _, n in SEPARABLE])
def test_separable_corpus_algebras_cut_the_bar_at_n0(filename, name):
    # the cochain terms are the stages times rank A, the rank of M = A
    A = corpus_algebra(filename, name)
    route, ranks = route_taken(A, 8)
    assert route == "separable"
    assert [rank * A.rank for rank in ranks] == [A.rank, (A.rank - 1) * A.rank]
    table = hochschild_cohomology(A, n_max=8)
    assert table == hochschild_cohomology(A, n_max=0)
    assert {s for s, _ in table.keys()} == {0}


@pytest.mark.parametrize("filename,name", INSEPARABLE, ids=[n for _, n in INSEPARABLE])
def test_no_witness_for_an_inseparable_corpus_algebra(filename, name):
    # each has HH^1 != 0 (the bar or the chains show it), so none may be found
    A = corpus_algebra(filename, name)
    assert witness(A) is None
    assert any(s == 1 for s, _ in hochschild_cohomology(A, n_max=1).keys())


def quaternions(ground):
    """matrix.def's presentation x^2 = y^2 = 1, xy = -yx over another ground."""
    with open(os.path.join(DATA, "matrix.def")) as fh:
        doc = json.load(fh)
    doc["algebras"] = {"H": {**doc["algebras"]["M2_F3"], "base": {"ground": ground}}}
    return build_algebra(parse_definition(json.dumps(doc)), "H")


def test_the_quaternion_presentation_has_no_integral_witness():
    # M2 over Z[1/2] but not over Z: the bar still runs and sees 2-torsion
    A = quaternions("Z")
    assert witness(A) is None
    table = hochschild_cohomology(A, n_max=2)
    assert table.entries == {(0, 0): SubquotientPresentation(1),
                             (1, 0): SubquotientPresentation(0, (2, 2, 2)),
                             (2, 0): SubquotientPresentation(0, (2,) * 5)}


def test_the_quaternion_presentation_has_a_rational_witness():
    A = quaternions("Q")
    e = witness(A)
    assert e is not None and {abs(c) for c in e.values()} == {GroundRing.rationals().one / 4}
    assert hochschild_cohomology(A, n_max=3).entries == {(0, 0): SubquotientPresentation(1)}


# -- the verification ------------------------------------------------------------

def test_the_verification_refuses_the_unit_of_the_enveloping_algebra():
    # 1 (x) 1 has mu = 1 but (x (x) 1 - 1 (x) x)(1 (x) 1) is not 0
    A = corpus_algebra("exterior1.def", "lam_x")
    R = regular_bimodule(A)
    unit = {R.algebra.unit_index: A.base.ground.one}
    assert R.act_map(R.algebra.unit_index).apply_coords({A.unit_index: 1}) == {A.unit_index: 1}
    assert not is_separability_witness(A, R, unit)


def test_an_unverified_solution_switches_no_route(monkeypatch):
    # a solve that returns the unit of A^e, which the verification refuses:
    # lam_2 keeps the bar and its HH^1
    A = corpus_algebra("exterior_n.def", "lam_2")
    R = regular_bimodule(A)
    Ae, one = R.algebra, A.base.ground.one
    unknowns = [m for m in range(Ae.rank) if A.base.degree_key(Ae.degree(m)) == 0]

    class Solved:
        def __init__(self, M):
            pass

        def solve(self, b):
            return {unknowns.index(Ae.unit_index): one}

    bar = hochschild_cohomology(A, n_max=2)
    monkeypatch.setattr(hochschild, "factor", Solved)
    assert separability_witness(A, R) is None
    table = hochschild_cohomology(A, n_max=2)
    assert table == bar and any(s == 1 for s, _ in table.keys())


# -- matrix algebras: HH(End(R^r)) = R in degree 0 -------------------------------

@st.composite
def matrix_algebras(draw):
    """End(R^r) over F2, F3, F5, Q, Z or F2[v^±1], with generators of drawn
    degree -3..3; r <= 4, and r <= 3 over Z."""
    name = draw(st.sampled_from(sorted(GROUNDS)))
    r = draw(st.integers(2, 3 if name == "Z" else 4))
    degrees = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    return endomorphism_algebra(GradedFreeModule(
        GROUNDS[name], tuple((f"e{i}", d) for i, d in enumerate(degrees))))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(E=matrix_algebras())
def test_matrix_algebras_equal_the_bar(E):
    # the bar's term n holds (r^2 - 1)^n r^2 generators: through n = 2 for
    # r <= 3, through n = 1 for r = 4
    assert_witness_route_is_the_bar(E, 2 if E.rank <= 9 else 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(E=matrix_algebras())
def test_matrix_algebras_are_the_ground_in_degree_zero(E):
    table = hochschild_cohomology(E, n_max=8)
    assert (table.completed_through, table.notes) == (None, ())
    assert table.entries == {(0, 0): SubquotientPresentation(1)}


def test_end_z3_has_the_integral_witness_of_its_matrix_units():
    # sum_i e_i1 (x) e_1i splits mu over Z itself
    E = endomorphism_algebra(GradedFreeModule(GROUNDS["Z"], (("e0", 0), ("e1", 1), ("e2", -2))))
    e = witness(E)
    assert e is not None and all(c == int(c) for c in e.values())
    assert is_separability_witness(E, regular_bimodule(E), e)


@pytest.mark.parametrize("p,r", [(5, 5), (3, 6)], ids=["End(F5^5)", "End(F3^6)"])
def test_bigger_matrix_algebras_have_a_verified_witness_and_hh_the_ground(p, r, monkeypatch):
    # past the drawn family's r <= 4, where the bar's term n would hold
    # (r^2 - 1)^n r^2 generators; the route's own witness is checked again
    E = endomorphism_algebra(GradedFreeModule(
        BaseRing(GroundRing.prime_field(p)), tuple((f"e{i}", 0) for i in range(r))))
    found = []
    real = hochschild.separability_witness

    def spy(A, R):
        found.append((R, real(A, R)))
        return found[-1][1]

    monkeypatch.setattr(hochschild, "separability_witness", spy)
    table = hochschild_cohomology(E, n_max=4)
    (R, e), = found
    assert e is not None and is_separability_witness(E, R, e)
    assert (table.completed_through, table.notes) == (None, ())
    assert table.entries == {(0, 0): SubquotientPresentation(1)}


def test_m2_through_n40_in_well_under_a_second():
    A = corpus_algebra("matrix.def", "M2_F3")
    t0 = time.perf_counter()
    table = hochschild_cohomology(A, n_max=40)
    assert time.perf_counter() - t0 < 1
    assert (table.entries, table.completed_through) == (
        {(0, 0): SubquotientPresentation(1)}, None)
