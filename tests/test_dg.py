import random

import pytest

from hhalg.algebra import AlgebraPresentation, opposite, realize
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator
from hhalg.dg import (
    ChainMap,
    Complex,
    DGAlgebra,
    cone,
    dg_unit_kernel,
    hom_complex,
    homology,
    homology_at,
    is_quasi_iso,
    make_quotient_dga,
    tensor_complex,
)
from hhalg.ground import GroundRing, ZZ
from hhalg.linalg import ExactMatrix, factor

QQ = GroundRing.rationals()

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
F5 = GroundRing.prime_field(5)
KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))


def two_term(base, scalar, lo=0):
    """0 -> base -> base -> 0 with d = multiplication by scalar."""
    M = GradedFreeModule(base, (("a", lo), ("b", lo + 1)))
    return Complex(M, HomogeneousMap(M, M, -1, {(0, 1): scalar}))


def unit_complex(base):
    """The base ring as a complex: one generator in degree 0, d = 0."""
    M = GradedFreeModule(base, (("1", 0),))
    return Complex(M, HomogeneousMap.zero(M, M, -1))


def identity_map(C):
    return ChainMap(C, C, HomogeneousMap.identity(C.module), check=False)


def zero_map(C, D):
    return ChainMap(C, D, HomogeneousMap.zero(C.module, D.module, 0), check=False)


# -- homology -----------------------------------------------------------------

def test_homology_mult_by_two():
    C = two_term(BaseRing(ZZ), 2)
    t = homology(C, (0, 1))
    assert t.entries[(0, 0)].torsion == (2,)
    assert (0, 1) not in t.entries


def test_homology_quotient_dga_p3():
    A = make_quotient_dga(KUZ, 3, 1).dga  # x = 3, w = v
    t = homology(A.complex(), (-4, 4))
    for n in range(-4, 5):
        if n % 2 == 0:
            e = t.entries[(0, n)]
            assert (e.free_rank, e.torsion) == (0, (3,))
        else:
            assert (0, n) not in t.entries


def test_homology_of_acyclic_cone_vanishes():
    C = two_term(BaseRing(F3), 2)
    t = homology(cone(identity_map(C)), (-2, 3))
    assert t.is_zero()


def test_d_squared_checked():
    M = GradedFreeModule(BaseRing(ZZ), (("a", 0), ("b", 1), ("c", 2)))
    with pytest.raises(ValueError):
        Complex(M, HomogeneousMap(M, M, -1, {(0, 1): 1, (1, 2): 1}))


# -- tensor and hom complexes ---------------------------------------------------

def test_tensor_with_unit_complex():
    C = two_term(BaseRing(F3), 2)
    T = tensor_complex(C, unit_complex(C.base))
    assert T.module.degrees == C.module.degrees
    assert {k: v for k, v in T.d.entries.items()} == C.d.entries


def test_hom_complex_rank():
    A = make_quotient_dga(KUZ, 3, 1).dga.complex()
    H = hom_complex(A, A)
    assert H.module.rank == 4
    assert sorted(H.module.degrees) == [-1, 0, 0, 1]


def test_tensor_signs_square_zero_three_term():
    # cones guarantee d^2 = 0; tensoring two of them exercises the signs
    base = BaseRing(ZZ)
    C = cone(zero_map(two_term(base, 2), two_term(base, 3, lo=1)))
    D = cone(zero_map(two_term(base, 5), two_term(base, 7, lo=1)))
    T = tensor_complex(C, D)  # constructor asserts d^2 = 0
    assert T.module.rank == 16
    H = hom_complex(C, D)
    assert H.module.rank == 16


def euler_characteristic(C):
    """Alternating generator count of a complex over a base without a Laurent generator."""
    assert not C.base.laurent
    return sum(1 if d % 2 == 0 else -1 for d in C.module.degrees)


def test_euler_characteristic_multiplicative():
    rng = random.Random(4)
    base = BaseRing(F3)
    for _ in range(15):
        def rand_cx():
            n = rng.randint(1, 3)
            lo = rng.randint(-2, 2)
            M = GradedFreeModule(base, tuple(
                (f"g{i}", lo + rng.randint(0, 2)) for i in range(n)))
            entries = {}
            for i, di in enumerate(M.degrees):
                for j, dj in enumerate(M.degrees):
                    if dj == di + 1 and rng.random() < 0.5:
                        entries[(i, j)] = rng.randint(0, 2)
            d = HomogeneousMap(M, M, -1, entries)
            if not d.compose(d).is_zero():
                return None
            return Complex(M, d)
        C, D = rand_cx(), rand_cx()
        if C is None or D is None:
            continue
        T = tensor_complex(C, D)
        assert euler_characteristic(T) == euler_characteristic(C) * euler_characteristic(D)


def test_universal_coefficients_duality_f5():
    # H_n(Hom(C, unit)) = H_{-n}(C) over a field
    rng = random.Random(12)
    base = BaseRing(F5)
    for _ in range(12):
        f = _random_chain_map(rng, base)
        C = cone(f)
        dual = hom_complex(C, unit_complex(base))
        for n in range(-4, 5):
            assert homology_at(dual, n) == homology_at(C, -n)


def _random_chain_map(rng, base):
    C = two_term(base, rng.randint(0, 4), lo=rng.randint(-2, 1))
    D = two_term(base, rng.randint(0, 4), lo=C.module.degrees[0])
    # scalar chain maps: (a, b) |-> (s*a, t*b) needs s*dC = dD*t
    for _ in range(30):
        s, t = rng.randint(0, 4), rng.randint(0, 4)
        g = base.ground
        dC = C.d.entries.get((0, 1), 0)
        dD = D.d.entries.get((0, 1), 0)
        if g.normalize(s * dC) == g.normalize(dD * t):
            entries = {}
            if s:
                entries[(0, 0)] = s
            if t:
                entries[(1, 1)] = t
            return ChainMap(C, D, HomogeneousMap(C.module, D.module, 0, entries))
    return zero_map(C, D)


# -- cones and quasi-isos -------------------------------------------------------

def test_identity_is_quasi_iso():
    C = two_term(BaseRing(ZZ), 4)
    v = is_quasi_iso(identity_map(C), (-2, 3))
    assert v.is_quasi_iso and v.failures == ()


def test_zero_map_not_quasi_iso():
    C = two_term(BaseRing(ZZ), 4)
    v = is_quasi_iso(zero_map(C, C), (-2, 3))
    assert not v.is_quasi_iso
    assert 0 in v.failures


def induced_homology_iso(f, window):
    """Quasi-iso oracle independent of the cone: H_n(f) is an isomorphism
    for every n in the window.

    For finitely generated modules this holds iff H_n(C) and H_n(D) have
    equal presentations and the induced map is surjective.
    """
    C, D = f.source, f.target
    g = C.base.ground
    for n in range(window[0], window[1] + 1):
        if homology_at(C, n) != homology_at(D, n):
            return False
        # surjectivity: f(ker d_C) + im d_D spans ker d_D
        # the three slices below index D's degree-n generators in one order;
        # homology_at has factored the differentials' slices read here
        dn = D.d.factored(n)
        kd = dn.kernel()
        if not kd:
            continue
        fmat = f.f.slice_matrix(n)[0]
        cols = [fmat.apply(v) for v in C.d.factored(n).kernel()]
        cols += D.d.factored(n + 1).matrix.columns
        if not cols:
            return False
        sf = factor(ExactMatrix.from_columns(g, dn.matrix.cols, cols))
        if any(sf.solve(v) is None for v in kd):
            return False
    return True


def test_quasi_iso_two_oracle_agreement():
    rng = random.Random(31)
    base = BaseRing(F5)
    for _ in range(25):
        f = _random_chain_map(rng, base)
        lo = min(f.source.module.degrees + f.target.module.degrees) - 1
        hi = max(f.source.module.degrees + f.target.module.degrees) + 1
        assert bool(is_quasi_iso(f, (lo, hi))) == induced_homology_iso(f, (lo, hi))


def test_quasi_iso_two_oracle_agreement_over_z():
    rng = random.Random(8)
    base = BaseRing(ZZ)
    for _ in range(25):
        f = _random_chain_map(rng, base)
        lo = min(f.source.module.degrees + f.target.module.degrees) - 1
        hi = max(f.source.module.degrees + f.target.module.degrees) + 1
        assert bool(is_quasi_iso(f, (lo, hi))) == induced_homology_iso(f, (lo, hi))


# -- quotient DGAs ---------------------------------------------------------------

def test_make_quotient_dga_p3_v():
    Q = make_quotient_dga(KUZ, 3, 1)
    A = Q.dga
    assert A.algebra.rank == 2
    assert A.algebra.mul_basis(1, 1) == {0: 1}  # y^2 = w = v
    assert A.d.entries == {(0, 1): 3}


def test_make_quotient_dga_commutative_shadow():
    Q = make_quotient_dga(KUZ, 3, 0)
    assert Q.dga.algebra.mul_basis(1, 1) == {}
    assert Q.defect == 0


def test_make_quotient_dga_rejects_zero_x():
    with pytest.raises(ValueError):
        make_quotient_dga(KUZ, 0, 1)


def test_make_quotient_dga_accepts_p2():
    Q = make_quotient_dga(KUZ, 2, 1)
    assert Q.dga.algebra.rank == 2


def test_quotient_dga_opposite_sign():
    Q = make_quotient_dga(KUZ, 3, 1)
    op = DGAlgebra(opposite(Q.dga.algebra), Q.dga.d)
    assert op.algebra.mul_basis(1, 1) == {0: -1}  # y o y = -w
    # over an F2 ground the algebra equals its own opposite
    KU2 = BaseRing(F2, LaurentGenerator("v", 2))
    Q2 = make_quotient_dga(KU2, 1, 1)
    assert DGAlgebra(opposite(Q2.dga.algebra), Q2.dga.d).algebra == Q2.dga.algebra


def test_leibniz_checked():
    # y^2 = v but dy = 3 with a *wrong* product on (y, y) against d
    A = make_quotient_dga(KUZ, 3, 1).dga
    bad_d = HomogeneousMap(A.algebra.module, A.algebra.module, -1, {(0, 1): 5})
    # d(y^2) = d(v) = 0 but (dy)y - y(dy) = 0: still fine; break d^2 instead
    DGAlgebra(A.algebra, bad_d)  # passes: Leibniz holds for any scalar here
    from hhalg.algebra import GradedAlgebra
    # an algebra where y^2 = y (degree forces failure of Leibniz with dy = 1)
    base = BaseRing(ZZ, LaurentGenerator("v", 2))
    mono = (("1", 0), ("y", 1), ("z", 2))
    alg = GradedAlgebra(base, mono, 0, {
        (0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
        (0, 2): {2: 1}, (2, 0): {2: 1},
        (1, 1): {2: 1},  # y*y = z
    })
    with pytest.raises(ValueError):
        DGAlgebra(alg, HomogeneousMap(alg.module, alg.module, -1, {(0, 1): 1}))


# -- unit kernel -----------------------------------------------------------------

def test_dg_unit_kernel_z6():
    A = make_quotient_dga(BaseRing(ZZ), 6, 0).dga
    assert dg_unit_kernel(A) == 6


def test_dg_unit_kernel_laurent_p():
    for p in (2, 3, 5):
        A = make_quotient_dga(KUZ, p, 1).dga
        assert dg_unit_kernel(A) == p


def test_dg_unit_kernel_zero_when_unit_survives():
    # dy = 0 is not allowed (x = 0), so use a rank-3 complex where d misses 1
    base = BaseRing(ZZ)
    A = realize(AlgebraPresentation(base, (("e", 1),), ([(1, ("e", "e"), 0)],)))
    d = HomogeneousMap.zero(A.module, A.module, -1)
    assert dg_unit_kernel(DGAlgebra(A, d)) == 0


def field_unit_kernel_oracle(A):
    """The unit kernel over a field: c*1 lies in im(d) for some c != 0 exactly
    when 1 does, so the kernel is the whole field or zero."""
    g = A.base.ground
    upos = A.d.target.slice_indices(0).index(A.algebra.unit_index)
    return g.one if A.d.factored(1).solve({upos: g.one}) is not None else g.zero


@pytest.mark.parametrize("g", [F2, F3, F5, QQ], ids=str)
def test_dg_unit_kernel_over_fields_matches_the_solve_oracle(g):
    # quotient DGAs kill the unit (x is a unit), the zero differential keeps it
    dgas = [make_quotient_dga(BaseRing(g), x, 0).dga for x in (1, 2, 3, 4)
            if g.normalize(x) != 0]
    dgas.append(make_quotient_dga(BaseRing(g, LaurentGenerator("v", 2)), 1, 1).dga)
    A = realize(AlgebraPresentation(BaseRing(g), (("e", 1),), ([(1, ("e", "e"), 0)],)))
    dgas.append(DGAlgebra(A, HomogeneousMap.zero(A.module, A.module, -1)))
    verdicts = []
    for dga in dgas:
        gen = dg_unit_kernel(dga)
        assert gen == field_unit_kernel_oracle(dga)
        assert type(gen) is type(g.one)
        verdicts.append(gen)
    assert verdicts == [g.one] * (len(dgas) - 1) + [g.zero]
