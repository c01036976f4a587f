"""The scalar policy: sums are plain arithmetic, and every place that stores
a vector or a map hands back normalized nonzero scalars only."""

from fractions import Fraction

import pytest

from hhalg.algebra import AlgebraPresentation, realize
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap
from hhalg.ground import QQ, GroundRing, ZZ
from hhalg.linalg import Echelon, ExactMatrix
from hhalg.resolve import AModuleMap, FreeAModule

GROUNDS = {"Z": ZZ, "F3": GroundRing.prime_field(3), "Q": QQ}
# nonzero scalars that sum to zero in the ground; over F3 only mod 3
CANCELLING = {"Z": (2, 3, -5), "F3": (1, 2), "Q": (Fraction(1, 2), Fraction(1, 2), -1)}


def is_canonical(g, vec):
    return all(x != 0 and type(x) is type(g.one) and g.normalize(x) == x
               for x in vec.values())


def truncated(g, n):
    """g[t]/t^n: monomial i is t^i, the unit is monomial 0."""
    return realize(AlgebraPresentation(BaseRing(g), (("t", 0),), ([(1, ("t",) * n, 0)],)))


def cancelling_map(g, cs):
    """Row 0 holds the cancelling scalars, row 1 a 2 in every column."""
    base = BaseRing(g)
    source = GradedFreeModule(base, tuple((f"s{j}", 0) for j in range(len(cs))))
    target = GradedFreeModule(base, (("a", 0), ("b", 0)))
    entries = {(0, j): c for j, c in enumerate(cs)}
    entries.update({(1, j): 2 for j in range(len(cs))})
    return HomogeneousMap(source, target, 0, entries)


@pytest.mark.parametrize("name", GROUNDS)
def test_canonical_normalizes_and_drops_zeros(name):
    g, cs = GROUNDS[name], CANCELLING[name]
    out = g.canonical({0: sum(cs), 1: -1, 2: 0})
    assert out == {1: g.normalize(-1)} and is_canonical(g, out)


@pytest.mark.parametrize("name", GROUNDS)
def test_amodule_map_stores_canonical_images(name):
    # generator 0 goes to -t g0 + 0 g0, generator 1 to 0 g1
    g = GROUNDS[name]
    F = FreeAModule(truncated(g, 2), (0, 0))
    f = AModuleMap(F, F, [{F.flat_index(0, 1): -1, F.flat_index(0, 0): 0},
                          {F.flat_index(1, 0): 0}])
    assert f.images == [{1: g.normalize(-1)}, {}]
    assert is_canonical(g, f.images[0])


@pytest.mark.parametrize("name", GROUNDS)
def test_apply_coords_and_compose_drop_cancelling_sums(name):
    g, cs = GROUNDS[name], CANCELLING[name]
    f = cancelling_map(g, cs)
    want = g.normalize(2 * len(cs))
    out = f.apply_coords({j: 1 for j in range(len(cs))})
    assert out == {1: want} and is_canonical(g, out)
    one = GradedFreeModule(f.source.base, (("u", 0),))
    h = HomogeneousMap(one, f.source, 0, {(j, 0): 1 for j in range(len(cs))})
    fh = f.compose(h)
    assert fh.entries == {(1, 0): want} and is_canonical(g, fh.entries)


@pytest.mark.parametrize("name", GROUNDS)
def test_matrix_apply_drops_cancelling_sums(name):
    g, cs = GROUNDS[name], CANCELLING[name]
    M = ExactMatrix(g, [list(cs), [2] * len(cs)])
    out = M.apply({j: 1 for j in range(len(cs))})
    assert out == {1: g.normalize(2 * len(cs))} and is_canonical(g, out)


@pytest.mark.parametrize("name", GROUNDS)
def test_mul_coords_drops_cancelling_sums(name):
    # (sum c_i t^i)(sum t^i) in g[t]/t^n: t^j carries c_0 + ... + c_j, and
    # the top coefficient is the whole cancelling sum
    g, cs = GROUNDS[name], CANCELLING[name]
    n = len(cs)
    out = truncated(g, n).mul_coords(dict(enumerate(cs)), {i: 1 for i in range(n)})
    assert out == {j: g.normalize(sum(cs[:j + 1])) for j in range(n - 1)}
    assert is_canonical(g, out)


@pytest.mark.parametrize("name", GROUNDS)
def test_echelon_reduce_drops_cancelling_sums(name):
    # subtracting 2 * (1, 1, 2) from (2, 1, 4): coordinate 2 cancels, 1 is -1
    g = GROUNDS[name]
    span = Echelon(g)
    span.add({0: 1, 1: 1, 2: 2})
    out = span.reduce({0: 2, 1: 1, 2: g.normalize(4)})
    assert out == {1: g.normalize(-1)} and is_canonical(g, out)


def test_normalize_keeps_a_rational_as_it_is():
    # a Fraction is canonical over Q: normalize returns the same object
    for x in (Fraction(3, 7), Fraction(-2), Fraction(0)):
        assert QQ.normalize(x) is x
    assert QQ.normalize(5) == Fraction(5) and type(QQ.normalize(5)) is Fraction
    assert GroundRing.prime_field(5).normalize(Fraction(1, 2)) == 3
    with pytest.raises(ValueError, match="not an integer"):
        ZZ.normalize(Fraction(1, 2))
