"""The sparse Smith form against the dense oracle over Z, at sizes up to 20x20,
and its transforms built only where a caller reads them, over Z and over F3."""

import random
import time

import pytest

from hhalg import linalg
from hhalg.algebra import AlgebraPresentation, endomorphism_algebra, realize
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator
from hhalg.dg import dg_unit_kernel, make_quotient_dga
from hhalg.ground import GroundRing, ZZ
from hhalg.hochschild import hochschild_cohomology, mu_homology_image, mu_is_iso
from hhalg.linalg import ExactMatrix, determinant, rank, smith_normal_form
from hhalg.morita import endo_algebra
from hhalg.resolve import AModule, free_resolution, minimal_resolution
from test_linalg import check_smith
from test_resolve import exterior, trunc_poly

KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))


def dense_smith_oracle(M):
    """The dense integer Smith form: (U, D, V) with U * M * V = D.

    Least-|entry| pivot over the whole trailing block, alternating row and
    column sweeps with the divisibility fix, every operation applied to
    dense copies of D, U and V, and the pivot moved into place by swaps.
    The row sweep repeats until the pivot column is clear before the column
    sweep runs, so a column operation changes the pivot row alone; without
    that rule the entries of some dense 8x8 matrices with entries in
    [-3, 3] grow without bound.
    """
    rows, cols = M.rows, M.cols
    D = M.data
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(m, i, j):
        m[i], m[j] = m[j], m[i]

    def swap_cols(m, i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def addmul_row(m, dst, src, c):
        row_d = m[dst]
        for j, x in enumerate(m[src]):
            if x:
                row_d[j] += c * x

    def addmul_col(m, dst, src, c):
        for row in m:
            if row[src]:
                row[dst] += c * row[src]

    t = 0
    while t < min(rows, cols):
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0 and (piv is None or abs(D[i][j]) < abs(D[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            swap_rows(D, i, t)
            swap_rows(U, i, t)
        if j != t:
            swap_cols(D, j, t)
            swap_cols(V, j, t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if D[i][t] != 0:
                    q = D[i][t] // D[t][t]
                    addmul_row(D, i, t, -q)
                    addmul_row(U, i, t, -q)
                    if D[i][t] != 0:
                        swap_rows(D, i, t)
                        swap_rows(U, i, t)
                        dirty = True
            if dirty:
                continue  # sweep the row only once the column is clear
            for j in range(t + 1, cols):
                if D[t][j] != 0:
                    q = D[t][j] // D[t][t]
                    addmul_col(D, j, t, -q)
                    addmul_col(V, j, t, -q)
                    if D[t][j] != 0:
                        swap_cols(D, j, t)
                        swap_cols(V, j, t)
                        dirty = True
            if not dirty and abs(D[t][t]) != 1:
                d = D[t][t]
                for i in range(t + 1, rows):
                    if any(D[i][j] % d != 0 for j in range(t + 1, cols)):
                        addmul_row(D, t, i, 1)
                        addmul_row(U, t, i, 1)
                        dirty = True
                        break
        if D[t][t] < 0:
            D[t] = [-x for x in D[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return tuple(ExactMatrix(M.ground, m, cols=c) for m, c in ((U, rows), (D, cols), (V, cols)))


def oracle_diagonal(M):
    U, D, V = dense_smith_oracle(M)
    assert U.mul(M).mul(V) == D
    return [D[i, i] for i in range(min(M.rows, M.cols))]


def planted(rng, r, c):
    """(M, diagonal): a sparse +-1 matrix P diag(d) Q with planted invariants d.

    P and Q are products of about r + c elementary operations with +-1
    multipliers and of permutations, so M stays sparse and mostly +-1.
    """
    k = min(r, c)
    factors = rng.choice([(), (2,), (3,), (2, 4), (2, 6), (5, 10, 30)])[:k]
    rank_ = rng.randint(len(factors), k)
    diag = [1] * (rank_ - len(factors)) + list(factors) + [0] * (k - rank_)
    rows = [[diag[i] if i == j and i < k else 0 for j in range(c)] for i in range(r)]
    for _ in range(rng.randint(0, r + c)):
        if rng.random() < 0.5 and r > 1:
            i, j = rng.sample(range(r), 2)
            s = rng.choice((1, -1))
            rows[i] = [x + s * y for x, y in zip(rows[i], rows[j])]
        elif c > 1:
            i, j = rng.sample(range(c), 2)
            s = rng.choice((1, -1))
            for row in rows:
                row[i] += s * row[j]
    rng.shuffle(rows)
    perm = rng.sample(range(c), c)
    return ExactMatrix(ZZ, [[row[j] for j in perm] for row in rows]), diag


def test_sparse_matrices_with_planted_factors_match_the_oracle():
    rng = random.Random(16)
    non_unit = 0
    for _ in range(60):
        r, c = rng.randint(1, 20), rng.randint(1, 20)
        M, diag = planted(rng, r, c)
        sf = check_smith(M)
        assert sf.diagonal() == diag == oracle_diagonal(M)
        non_unit += any(d > 1 for d in diag)
    assert non_unit >= 20


def test_dense_small_matrices_match_the_oracle():
    rng = random.Random(8)
    for _ in range(120):
        r, c = rng.randint(1, 8), rng.randint(1, 8)
        M = ExactMatrix(ZZ, [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        assert check_smith(M).diagonal() == oracle_diagonal(M)


def test_dense_smith_forms_from_12_to_20_are_exact_and_fast():
    # the product of the invariants is |det M|, and the rank over F_p counts
    # the invariants prime to p (universal coefficients)
    rng = random.Random(1220)
    start = time.perf_counter()
    for n in range(12, 21):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        M = ExactMatrix(ZZ, rows)
        sf = check_smith(M)
        prod = 1
        for d in sf.diagonal():
            prod *= d
        assert prod == abs(determinant(M))
        for p in (2, 3, 5):
            Mp = ExactMatrix(GroundRing.prime_field(p), rows)
            assert rank(Mp) == sum(1 for d in sf.diagonal() if d % p)
    assert time.perf_counter() - start < 20


def test_a_dense_matrix_that_ran_away_under_the_old_sweeps():
    # alternating sweeps that start the column sweep with the pivot column
    # still uncleared grow this matrix's entries without bound
    M = ExactMatrix(ZZ, [
        [3, 1, 2, 1, 1, 2, -3, -3], [-3, 2, -2, 1, 3, 1, -3, 0],
        [-3, -1, 3, -3, -3, 1, -3, -2], [-2, 2, -3, 0, -2, 2, 3, -3],
        [2, -3, 1, 0, 1, -3, 3, -1], [-3, -2, -3, 2, -1, -1, 0, -2],
        [-3, 1, 0, -3, 1, -3, 2, 0], [-2, -1, -1, 2, 0, 3, 1, -2]])
    assert check_smith(M).diagonal() == oracle_diagonal(M)


# -- transforms are built only where a caller reads them ---------------------------

@pytest.fixture
def smith_forms(monkeypatch):
    """Every SmithForm that `factor` makes while the test runs."""
    made = []
    real = linalg.smith_normal_form

    def recording(M):
        sf = real(M)
        made.append(sf)
        return sf

    monkeypatch.setattr(linalg, "smith_normal_form", recording)
    return made


def test_transforms_wait_for_their_first_reader():
    sf = smith_normal_form(ExactMatrix(ZZ, [[2, 4, 6], [6, 6, 12], [8, 10, 18]]))
    assert (sf.rank, sf.diagonal(), sf.cokernel().torsion) == (2, [2, 6, 0], (2, 6))
    assert not sf.transforms_built
    U = sf.U
    assert sf.transforms_built and sf.U is U and sf.V is sf.V


def test_hochschild_over_z_builds_no_transforms(smith_forms):
    A = realize(AlgebraPresentation(BaseRing(ZZ), (("y", 1),), ([(1, ("y",) * 4, 0)],)))
    table = hochschild_cohomology(A, n_max=4)
    assert any(p.torsion for p in table.entries.values())
    assert smith_forms and not any(sf.transforms_built for sf in smith_forms)


def test_mu_is_iso_on_end_z3_builds_no_transforms(smith_forms):
    base = BaseRing(ZZ)
    E = endomorphism_algebra(GradedFreeModule(base, (("e0", 0), ("e1", 0), ("e2", 0))))
    assert mu_is_iso(E)
    assert smith_forms and not any(sf.transforms_built for sf in smith_forms)


def test_unit_kernel_and_mu_image_build_transforms(smith_forms):
    assert dg_unit_kernel(make_quotient_dga(BaseRing(ZZ), 6, 0).dga) == 6
    assert any(sf.transforms_built for sf in smith_forms)
    smith_forms.clear()
    r = mu_homology_image(make_quotient_dga(KUZ, 3, 1))
    assert r.is_unit and (r.coefficient - r.modeled_defect) % 3 == 0
    assert any(sf.transforms_built for sf in smith_forms)


def test_morita_solves_over_z_build_transforms(smith_forms):
    base = BaseRing(ZZ)
    T = realize(AlgebraPresentation(base, (("y", 1),), ([(1, ("y",) * 3, 0)],)))
    B = endo_algebra(AModule.regular(T))
    # End_T(T) is T^op = T: the identity and right multiplications by y and y^2
    assert B.rank == 3 and sorted(d for _, d in B.monomials) == [0, 1, 2]
    assert smith_forms and all(sf.transforms_built for sf in smith_forms)


F3 = GroundRing.prime_field(3)


def test_bar_hochschild_over_f3_builds_no_transforms(smith_forms):
    # M2(F3) takes the witness route and Λ(x, y) the bar through n = 3; on
    # both the one solve is the separability witness's, whose matrix has
    # rank A + |S| rank(A)^2 rows, and every factorization of the bar is
    # read for its rank alone
    M2 = endomorphism_algebra(GradedFreeModule(BaseRing(F3), (("e0", 0), ("e1", 0))))
    for A in (M2, exterior(BaseRing(F3), (("x", 1), ("y", 1)))):
        smith_forms.clear()
        hochschild_cohomology(A, n_max=3)
        solved = [sf.matrix.rows for sf in smith_forms if sf.transforms_built]
        assert len(smith_forms) > 1
        assert solved == [A.rank + len(A.generating_monomials) * A.rank ** 2]
    smith_forms.clear()
    hochschild_cohomology(trunc_poly(4, 1), n_max=4)
    assert smith_forms and not any(sf.transforms_built for sf in smith_forms)


def test_resolutions_over_f3_build_transforms(smith_forms):
    res = minimal_resolution(trunc_poly(3, 2), s_max=4)
    assert [st.rank for st in res.stages] == [1, 1, 1, 1, 1]
    assert any(sf.transforms_built for sf in smith_forms)
    smith_forms.clear()
    L = exterior(BaseRing(F3), (("x", 1), ("y", 1)))
    res = free_resolution(L, AModule.trivial(L), s_max=3)
    assert [st.rank for st in res.stages] == [1, 2, 3, 4]
    assert any(sf.transforms_built for sf in smith_forms)
