"""HH of monomial algebras by Bardzell's resolution on Anick's chains,
against the bar and against Holm's closed form for truncated polynomials."""

import itertools
import os
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hhalg import hochschild
from hhalg.algebra import AlgebraPresentation, DivergenceError, realize
from hhalg.base import (BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator,
                        cohomology_table)
from hhalg.defs import build_algebra, parse_definition
from hhalg.ground import BudgetExceededError, GroundRing, ZZ
from hhalg.hochschild import (
    anick_chains,
    bar_resolution,
    bardzell_resolution,
    bimodule,
    hochschild_cohomology,
    monomial_words,
    regular_bimodule,
)
from hhalg.linalg import SubquotientPresentation
from hhalg.resolve import _audit, hom_cochains
from hhalg.tables import BigradedTable

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "hhalg", "data")
F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
BASES = {"Z": BaseRing(ZZ), "F2": BaseRing(F2), "F3": BaseRing(F3),
         "F2[v^±1]": BaseRing(F2, LaurentGenerator("v", 2))}
WINDOW = (-64, 64)
DEFAULT_BUDGET = 200000


def monomial(base, letters, relations):
    """k<letters>/(relations), the letters (name, degree), each relation a word."""
    return realize(AlgebraPresentation(base, tuple(letters),
                                       tuple([(1, tuple(w), 0)] for w in relations)))


def bar_table(A, M, n_max):
    """HH^n(A, M), n <= n_max, from hom_cochains of the bar resolution, keyed
    as hochschild_cohomology keys its table: the cochains sit in degree -t."""
    _, deltas = hom_cochains(bar_resolution(A, M.algebra, n_max + 1), M)
    table = BigradedTable()
    for (n, t), p in cohomology_table(deltas, n_max, WINDOW).entries.items():
        table.set(n, A.base.degree_key(-t), p)
    return table


def trivial_bimodule(A):
    """k, on which every non-unit monomial acts by zero on either side."""
    k = GradedFreeModule(A.base, (("k", 0),))
    one = {A.unit_index: HomogeneousMap.identity(k)}
    return bimodule(A, k, one, one)


def assert_routes_agree(A, M):
    """The monomial route's table equals the bar's slice by slice, torsion
    included, through n = 2, and through n = 3 where the bar fits the
    default budget."""
    assert monomial_words(A) is not None
    n_max = 3 if (A.rank - 1) ** 4 * M.module.rank <= DEFAULT_BUDGET else 2
    ours = hochschild_cohomology(A, M, n_max=n_max, window=WINDOW)
    key = A.base.degree_key
    assert ours.completed_through is None
    assert ours.by_slice(key, n_max) == bar_table(A, M, n_max).by_slice(key, n_max)


@st.composite
def monomial_algebras(draw):
    """k<X>/(R): 1-3 letters of degree -2..3 and 1-3 monomial relations R of
    length 2-4, over Z, F2, F3 or F2[v^±1].

    On two or more letters three relations leave words of every length (on
    two letters the words avoiding x^a and y^b alternate, and on three there
    are square-free words), so the draw also kills every word of length 4 on
    two letters and of length 2 on three.  It keeps ranks up to 10, which the
    bar reaches through n = 3 in a fraction of a second; on two letters the
    first relation is cut to length 2, which keeps most draws that small.
    """
    n = draw(st.integers(1, 3))
    letters = [(name, draw(st.integers(-2, 3))) for name in "xyz"[:n]]
    names = [name for name, _ in letters]
    words = st.lists(st.sampled_from(names), min_size=2, max_size=4)
    relations = draw(st.lists(words, min_size=1, max_size=3))
    if n > 1:
        relations = [relations[0][:2]] + relations[1:]
        relations += itertools.product(names, repeat=8 - 2 * n)
    base = BASES[draw(st.sampled_from(sorted(BASES)))]
    try:
        A = realize(AlgebraPresentation(base, tuple(letters),
                                        tuple([(1, tuple(w), 0)] for w in relations)),
                    max_rank=10)
    except DivergenceError:
        assume(False)
    return A


# -- the route against the bar ---------------------------------------------------

@settings(max_examples=25, deadline=None, derandomize=True)
@given(A=monomial_algebras())
def test_monomial_route_equals_the_bar(A):
    assert_routes_agree(A, regular_bimodule(A))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(A=monomial_algebras())
def test_monomial_route_equals_the_bar_with_trivial_coefficients(A):
    assert_routes_agree(A, trivial_bimodule(A))


@pytest.mark.parametrize("base,letters,relations", [
    (BASES["Z"], (("x", 0), ("y", 1)), ("xyx", "yy", "xxx")),
    (BASES["F3"], (("x", 1), ("y", 1)), ("xx", "yy", "xyxy")),
    (BASES["Z"], (("x", -1), ("y", 2)), ("xx", "yy", "xy")),
    (BASES["F2[v^±1]"], (("x", 1), ("y", 3)), ("xx", "yy", "yxy")),
    (BASES["F3"], (("x", 3), ("y", -2)), ("xxy", "yy", "yx", "xxx")),
], ids=["Z-xyx", "F3-xyxy", "Z-xy", "F2v-yxy", "F3-mixed"])
def test_monomial_route_equals_the_bar_on_overlapping_tips(base, letters, relations):
    A = monomial(base, letters, relations)
    assert_routes_agree(A, regular_bimodule(A))
    assert_routes_agree(A, trivial_bimodule(A))


@pytest.mark.parametrize("base,letters,relations", [
    (BASES["Z"], (("y", 1),), ("yyy",)),
    (BASES["F3"], (("x", 0), ("y", 1)), ("xyx", "yy", "xxx")),
    (BASES["F2[v^±1]"], (("t", 1),), ("tt",)),
], ids=["Z-y3", "F3-xyx", "F2v-t2"])
def test_bardzell_resolution_is_a_resolution(base, letters, relations):
    # A <- P_0 <- P_1 <- ... is exact on the flattened A^e-maps alone, apart
    # from any Hom: mu is onto A, and ker = im at every stage below the top
    A = monomial(base, letters, relations)
    words = monomial_words(A)
    chains = list(itertools.islice(anick_chains(words, A.generating_monomials), 5))
    _audit(bardzell_resolution(A, regular_bimodule(A).algebra, words, chains))


def test_anick_chains_of_a_power_are_one_word_per_degree():
    # y^N: AP_2k = y^{kN} and AP_2k+1 = y^{kN+1}
    for N in (2, 3, 5):
        A = monomial(BASES["Z"], (("y", 2),), ("y" * N,))
        y = A.generating_monomials[0]
        chains = itertools.islice(anick_chains(monomial_words(A), (y,)), 8)
        assert [[len(p) for p in level] for level in chains] == [
            [(n // 2) * N + n % 2] for n in range(8)]


def test_chains_of_radical_square_zero_are_all_words_and_of_k_are_empty():
    A = monomial(BASES["F3"], (("x", 0), ("y", 1)), ("xx", "xy", "yx", "yy"))
    levels = itertools.islice(anick_chains(monomial_words(A), A.generating_monomials), 5)
    assert [len(level) for level in levels] == [1, 2, 4, 8, 16]
    k = monomial(BASES["F3"], (), ())
    levels = itertools.islice(anick_chains(monomial_words(k), k.generating_monomials), 4)
    assert [len(level) for level in levels] == [1, 0, 0, 0]
    assert hochschild_cohomology(k, n_max=3).entries == {(0, 0): SubquotientPresentation(1)}


# -- which algebras take the route -----------------------------------------------

def corpus_algebra(filename, name):
    with open(os.path.join(DATA, filename)) as fh:
        return build_algebra(parse_definition(fh.read()), name)


TAKEN = [("exterior1.def", "lam_x"), ("ku2.def", "lam_tau"), ("polytrunc.def", "poly20"),
         ("etale.def", "A")]
REFUSED = [("ku2.def", "B2"), ("etale.def", "R"), ("k1k1_trunc.def", "sigma_1"),
           ("k1k1_trunc.def", "sigma_2"), ("k1k1_trunc.def", "k1k1op_1"),
           ("k1k1_trunc.def", "k1k1op_2"), ("matrix.def", "M2_F3"), ("matrix.def", "M2_F5"),
           ("exterior_n.def", "lam_2"), ("exterior_n.def", "lam_3")]


def routes_taken(monkeypatch, A, n_max):
    """The cochain complexes hochschild_cohomology builds for A."""
    taken = []
    for name in ("BarCochainComplex", "BardzellCochainComplex"):
        real = getattr(hochschild, name)

        def spy(*args, real=real, name=name, **kwargs):
            taken.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(hochschild, name, spy)
    hochschild_cohomology(A, n_max=n_max)
    monkeypatch.undo()
    return taken


@pytest.mark.parametrize("filename,name", TAKEN, ids=[n for _, n in TAKEN])
def test_monomial_corpus_algebras_take_the_chains(monkeypatch, filename, name):
    assert routes_taken(monkeypatch, corpus_algebra(filename, name), 2) == [
        "BardzellCochainComplex"]


@pytest.mark.parametrize("filename,name", REFUSED, ids=[n for _, n in REFUSED])
def test_other_corpus_algebras_take_the_bar(monkeypatch, filename, name):
    # B2 is the trap: every step coefficient is 1, but t0 * t0 = v * 1 is not
    # the zero that the word t0 t0, outside the basis, asks for
    A = corpus_algebra(filename, name)
    assert monomial_words(A) is None
    assert routes_taken(monkeypatch, A, 0) == ["BarCochainComplex"]


def test_the_monomial_route_keeps_the_budget_contract():
    # k<x, y>/(all words of length 2) has 2^n n-chains, as many as the bar has
    # words, so the budget, |AP_n| rank M generators per term, stops both
    # routes at the same term: 3, 6, 12, 24, 48 generators for n = 0..4
    A = monomial(BASES["Z"], (("x", 1), ("y", 2)), ("xx", "xy", "yx", "yy"))
    M = regular_bimodule(A)
    with pytest.raises(BudgetExceededError, match="budget too small"):
        hochschild_cohomology(A, n_max=3, budget=5)
    for budget, completed in ((12, 1), (47, 2)):
        table = hochschild_cohomology(A, n_max=3, budget=budget)
        assert table.completed_through == completed
        assert table.notes == (f"budget exceeded: completed through n = {completed}",)
        assert hochschild.BarCochainComplex(A, M, 3, budget).completed == completed
    assert hochschild_cohomology(A, n_max=3, budget=48).completed_through is None


# -- Holm's closed form for Z[y]/y^N, |y| even -----------------------------------

def truncated_oracle(ground, N, e, n_max):
    """HH^n(k[y]/y^N) for |y| = e even, keyed (n, t), from Holm (2000).

    The cochains are Hom(P_n, A) = A on P_n's one generator, a chain of
    n // 2 * N + n % 2 letters in degree d_n; the class of y^i sits at
    t = e * i - d_n.  The differentials are 0 out of even n and N y^{N-1}
    out of odd n, so HH^0 = A, odd HH^n = Ann(N y^{N-1}) and even HH^n with
    n > 0 = A / (N y^{N-1}).  Over F_p with p | N every HH^n is A.
    """
    vanishes = ground.kind == "Fp" and N % ground.p == 0
    want = {}
    for n in range(n_max + 1):
        d_n = e * (n // 2 * N + n % 2)
        for i in range(N):
            if n == 0 or vanishes:
                pres = SubquotientPresentation(1)
            elif n % 2:
                pres = SubquotientPresentation(1) if i > 0 else None
            elif i < N - 1:
                pres = SubquotientPresentation(1)
            else:
                pres = SubquotientPresentation(0, (N,)) if ground.kind == "Z" else None
            if pres is not None:
                want[(n, e * i - d_n)] = pres
    return want


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6])
def test_truncated_polynomials_over_z_match_holm(N):
    A = monomial(BASES["Z"], (("y", 2),), ("y" * N,))
    table = hochschild_cohomology(A, n_max=8, window=(-400, 400))
    assert table.entries == truncated_oracle(ZZ, N, 2, 8)


@pytest.mark.parametrize("N", [3, 4], ids=["3|N", "3∤N"])
def test_truncated_polynomials_over_f3_match_holm(N):
    A = monomial(BASES["F3"], (("y", 4),), ("y" * N,))
    table = hochschild_cohomology(A, n_max=8, window=(-400, 400))
    assert table.entries == truncated_oracle(F3, N, 4, 8)


def test_holm_oracle_is_the_bar_table_where_the_bar_reaches():
    A = monomial(BASES["Z"], (("y", 2),), ("yyy",))
    assert bar_table(A, regular_bimodule(A), 3).entries == truncated_oracle(ZZ, 3, 2, 3)


def test_hh_of_z_y20_through_n8_runs_in_under_a_second():
    A = monomial(BASES["Z"], (("y", 1),), ("y" * 20,))
    t0 = time.perf_counter()
    table = hochschild_cohomology(A, n_max=8)
    dt = time.perf_counter() - t0
    assert table.completed_through is None and dt < 1, f"took {dt:.2f}s"
