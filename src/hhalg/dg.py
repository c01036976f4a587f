"""Chain complexes, DG algebras, Hom/tensor complexes, cones, quasi-isos.

A Complex here is single-graded: one free graded module whose generator
degrees are the total (homological) degrees, with a degree -1 differential.
Over a Laurent base the homology is periodic and is reported per degree
inside an explicit window.
"""

from __future__ import annotations

import math
from .algebra import GradedAlgebra
from .base import (BaseRing, GradedFreeModule, HomogeneousMap, cohomology_at, hom_maps,
                   tensor_maps)
from .ground import Record
from .tables import BigradedTable, SubquotientPresentation


class Complex:
    """A free graded module with a square-zero degree -1 differential."""

    def __init__(self, module: GradedFreeModule, d: HomogeneousMap, check=True):
        if d.source != module or d.target != module or d.degree != -1:
            raise ValueError("differential must be a degree -1 self-map")
        self.module = module
        self.d = d
        if check and not d.compose(d).is_zero():
            raise ValueError("d^2 != 0")

    @property
    def base(self) -> BaseRing:
        return self.module.base

    def __eq__(self, other):
        return (
            isinstance(other, Complex)
            and self.module == other.module
            and self.d == other.d
        )


def homology_at(C: Complex, n: int) -> SubquotientPresentation:
    """H_n(C) = ker(d_n) / im(d_{n+1}) as a ground-module presentation."""
    return cohomology_at(C.d, C.d, n)


def homology(C: Complex, window) -> BigradedTable:
    """Homology table over the window, keyed (0, n)."""
    lo, hi = window
    table = BigradedTable()
    for n in range(lo, hi + 1):
        table.set(0, n, homology_at(C, n))
    return table


# ---------------------------------------------------------------------------
# chain maps


class ChainMap:
    """A map of complexes commuting with differentials up to (-1)^degree."""

    def __init__(self, source: Complex, target: Complex, f: HomogeneousMap, check=True):
        if f.source != source.module or f.target != target.module:
            raise ValueError("component map does not match the complexes")
        self.source = source
        self.target = target
        self.f = f
        self.degree = f.degree
        if check:
            lhs = target.d.compose(f)
            rhs = f.compose(source.d)
            if self.degree % 2:
                rhs = rhs.neg()
            if lhs != rhs:
                raise ValueError("not a chain map: fails to commute with d")


# ---------------------------------------------------------------------------
# tensor and hom complexes


def tensor_complex(C: Complex, D: Complex) -> Complex:
    """C (x) D with d(a(x)b) = da(x)b + (-1)^{|a|} a(x)db, as d(x)1 + 1(x)d."""
    d = tensor_maps(C.d, HomogeneousMap.identity(D.module)).add(
        tensor_maps(HomogeneousMap.identity(C.module), D.d))
    return Complex(d.source, d)


def hom_complex(C: Complex, D: Complex) -> Complex:
    """Hom(C, D) with (df) = d o f - (-1)^{|f|} f o d."""
    if C.base != D.base:
        raise ValueError("base mismatch")
    d = hom_maps(HomogeneousMap.identity(C.module), D.d).add(
        hom_maps(C.d, HomogeneousMap.identity(D.module)).neg())
    return Complex(d.source, d)


def cone(f: ChainMap) -> Complex:
    """Mapping cone: C[1] (+) D with d(c, x) = (-d_C c, f(c) + d_D x)."""
    if f.degree != 0:
        raise ValueError("cone requires a degree-0 chain map")
    C, D = f.source, f.target
    gens = [(f"c.{n}", d + 1) for n, d in C.module.generators]
    off = len(gens)
    gens += [(f"d.{n}", d) for n, d in D.module.generators]
    M = GradedFreeModule(C.base, tuple(gens))
    entries = {}
    for (k, i), c in C.d.entries.items():
        entries[(k, i)] = -c
    for (j, i), c in f.f.entries.items():
        entries[(off + j, i)] = c
    for (l, j), c in D.d.entries.items():
        entries[(off + l, off + j)] = c
    return Complex(M, HomogeneousMap(M, M, -1, entries))


class QuasiIsoVerdict(Record):
    _fields = ("is_quasi_iso", "failures")

    def __init__(self, is_quasi_iso: bool, failures: tuple = ()):
        self.is_quasi_iso, self.failures = is_quasi_iso, failures

    def __bool__(self):
        return self.is_quasi_iso


def is_quasi_iso(f: ChainMap, window) -> QuasiIsoVerdict:
    """True iff the cone of f has vanishing homology through the window.

    The verdict is only a statement about the given window; nothing is
    claimed outside it.
    """
    table = homology(cone(f), window)
    failures = tuple(t for (_, t) in table.keys())
    return QuasiIsoVerdict(not failures, failures)


# ---------------------------------------------------------------------------
# DG algebras


class DGAlgebra:
    """A graded algebra with a square-zero degree -1 derivation."""

    def __init__(self, algebra: GradedAlgebra, d: HomogeneousMap, check=True):
        if d.source != algebra.module or d.degree != -1:
            raise ValueError("differential must be a degree -1 self-map of the algebra")
        self.algebra = algebra
        self.d = d
        if check:
            if not d.compose(d).is_zero():
                raise ValueError("d^2 != 0")
            self._check_leibniz()

    def _check_leibniz(self):
        """d(1) = 0 and d(s e_j) = d(s) e_j + (-1)^{|s|} s d(e_j) for s generating.

        Exact by algebra.check_action's argument, with T the x for which
        d(x y) = d(x) y + (-1)^{|x|} x d(y) for all y.
        """
        A = self.algebra
        g = A.base.ground
        images = [self.d.apply_coords({i: g.one}) for i in range(A.rank)]
        if images[A.unit_index]:
            raise ValueError("d(1) != 0")
        for i in A.generating_monomials:
            sign = -1 if A.parity(i) else 1
            for j, dj in enumerate(images):
                lhs = self.d.apply_coords(A.mul_basis(i, j))
                rhs = A.mul_coords(images[i], {j: g.one})
                for k, c in A.mul_coords({i: sign}, dj).items():
                    rhs[k] = rhs.get(k, 0) + c
                if lhs != g.canonical(rhs):
                    raise ValueError(f"Leibniz rule fails on basis pair ({i},{j})")

    @property
    def base(self):
        return self.algebra.base

    def complex(self) -> Complex:
        return Complex(self.algebra.module, self.d, check=False)


class QuotientDGA(Record):
    """The two-term family: basis {1, y}, |y| = d+1, dy = x, y^2 = w.

    x has even degree d, w degree 2d+2 (degrees realized through implied
    Laurent powers).  The commutator defect of y against itself in the
    enveloping algebra is 2w; over a ground where 2 = 0 the algebra is
    its own opposite.
    """

    _fields = ("dga", "x", "w", "x_degree")

    def __init__(self, dga: DGAlgebra, x, w, x_degree: int):
        self.dga, self.x, self.w, self.x_degree = dga, x, w, x_degree

    @property
    def defect(self):
        return self.dga.base.ground.normalize(2 * self.w)


def make_quotient_dga(base: BaseRing, x, w, x_degree: int = 0) -> QuotientDGA:
    """Build the rank-2 quotient DGA for a non-zero-divisor x.

    x and w are ground scalars; their degrees (x_degree and 2*x_degree+2)
    are carried by implied Laurent powers, so nonzero w needs a Laurent
    generator whose degree divides 2*x_degree+2.
    """
    g = base.ground
    x = g.normalize(x)
    w = g.normalize(w)
    if x_degree % 2 != 0:
        raise ValueError("x must have even degree")
    if x == 0:
        raise ValueError("x is a zero divisor")
    w_degree = 2 * x_degree + 2
    for val, deg, label in ((x, x_degree, "x"), (w, w_degree, "w")):
        if val != 0 and not base.compatible(deg, 0, 0):
            raise ValueError(f"degree of {label} ({deg}) not a multiple of the Laurent period")
    monomials = (("1", 0), ("y", x_degree + 1))
    mult = {
        (0, 0): {0: g.one}, (0, 1): {1: g.one}, (1, 0): {1: g.one},
        (1, 1): {0: w},
    }
    A = GradedAlgebra(base, monomials, 0, mult)
    M = A.module
    d = HomogeneousMap(M, M, -1, {(0, 1): x})
    return QuotientDGA(DGAlgebra(A, d), x, w, x_degree)


def dg_unit_kernel(A: DGAlgebra):
    """Kernel of ground -> H_0(A) in degree 0: the generator of that ideal
    of the ground ring, 0 for the zero kernel.

    The generator is the order of the class of 1 in coker(d), read off
    U e_1 and the invariant factors of d's factorization on every ground
    ring; over a field every invariant is 1, so the order is 1 or infinite.
    """
    g = A.base.ground
    u = A.algebra.unit_index
    tgt = A.d.target.slice_indices(0)  # where the degree-1 slice of d lands
    upos = tgt.index(u) if u in tgt else None
    if upos is None:
        raise ValueError("unit not visible in its own degree slice")
    sf = A.d.factored(1)
    diag = sf.diagonal()
    n = g.one
    for r, yr in sf.U.apply({upos: g.one}).items():
        dr = diag[r] if r < len(diag) else 0
        if dr == 0:
            return g.zero  # infinite order: zero kernel
        if dr != 1:
            n = math.lcm(n, dr // math.gcd(dr, yr))
    return n
