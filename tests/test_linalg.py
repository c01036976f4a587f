import itertools
import random
from fractions import Fraction

import pytest

from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, cohomology_at
from hhalg.ground import GroundRing, ZZ
from hhalg.linalg import (
    Echelon,
    ExactMatrix,
    SubquotientPresentation,
    determinant,
    factor,
    kernel_basis,
    rank,
    smith_normal_form,
    solve,
    subquotient,
)

QQ = GroundRing.rationals()

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)


def check_smith(M):
    sf = smith_normal_form(M)
    assert sf.U.mul(M).mul(sf.V) == sf.D
    diag = sf.diagonal()
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    if M.ground == ZZ:
        assert abs(determinant(sf.U)) == 1
        assert abs(determinant(sf.V)) == 1
    return sf


def test_snf_zero_1x1():
    sf = check_smith(ExactMatrix(ZZ, [[0]]))
    assert sf.diagonal() == [0]


def test_snf_2x2_divisibility():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = 8
    sf = check_smith(ExactMatrix(ZZ, [[2, 4], [6, 8]]))
    assert sf.diagonal() == [2, 4]


def test_snf_identity():
    for n in (1, 3, 5):
        sf = check_smith(ExactMatrix.identity(ZZ, n))
        assert sf.diagonal() == [1] * n


def test_snf_field_zero_one():
    # over a field the Smith diagonal is 1^rank 0^rest: rank and kernel say it all
    M = ExactMatrix(F3, [[2, 1], [1, 1]])
    assert rank(M) == 2 and kernel_basis(M) == []
    M = ExactMatrix(F2, [[1, 1], [1, 1]])
    assert rank(M) == 1 and kernel_basis(M) == [{0: 1, 1: 1}]
    sf = check_smith(M)
    assert sf.diagonal() == [1, 0] and sf.cokernel() == SubquotientPresentation(1)
    sf = check_smith(ExactMatrix(QQ, [[2, 4], [1, 2]]))
    assert sf.diagonal() == [1, 0] and sf.kernel() == [{0: 1, 1: Fraction(-1, 2)}]
    with pytest.raises(ValueError, match="over Z"):
        determinant(M)


def test_kernel_basis_f2():
    ker = kernel_basis(ExactMatrix(F2, [[1, 1]]))
    assert ker == [{0: 1, 1: 1}]


def test_kernel_invertible_empty():
    assert kernel_basis(ExactMatrix(ZZ, [[1, 2], [3, 7]])) == []


def test_kernel_mult_by_two_injective():
    assert kernel_basis(ExactMatrix(ZZ, [[2]])) == []


def test_cokernel_examples():
    assert factor(ExactMatrix(ZZ, [[2]])).cokernel().torsion == (2,)
    assert factor(ExactMatrix(ZZ, [[2]])).cokernel().free_rank == 0
    c = factor(ExactMatrix(F3, [[0]])).cokernel()
    assert (c.free_rank, c.torsion) == (1, ())
    c = factor(ExactMatrix(ZZ, [[1, 0], [0, 6]])).cokernel()
    assert (c.free_rank, c.torsion) == (0, (6,))


def test_solve():
    I = ExactMatrix.identity(ZZ, 3)
    assert solve(I, {0: 5, 1: -2, 2: 7}) == {0: 5, 1: -2, 2: 7}
    assert solve(ExactMatrix(ZZ, [[2]]), {0: 3}) is None
    x = solve(ExactMatrix(QQ, [[2]]), {0: 3})
    assert x is not None and x[0] * 2 == 3
    with pytest.raises(ValueError):
        solve(I, {3: 1})


def test_rank_nullity_over_field():
    rng = random.Random(7)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = ExactMatrix(F3, [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        assert rank(M) + len(kernel_basis(M)) == c


def test_cokernel_pivot_independence():
    # two elimination orders: M and a permuted copy share invariant factors
    rng = random.Random(3)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        M = ExactMatrix(ZZ, rows)
        P = ExactMatrix(ZZ, list(reversed([list(reversed(row)) for row in rows])))
        assert factor(M).cokernel() == factor(P).cokernel()


def enumeration_cokernel_size(M, p):
    """|F_p^rows / im(M mod p)| by direct enumeration."""
    images = set()
    for vec in itertools.product(range(p), repeat=M.cols):
        images.add(frozenset(M.apply(dict(enumerate(vec))).items()))
    return p ** M.rows // len(images)


def test_random_integer_matrices_vs_enumeration():
    rng = random.Random(11)
    p = 3
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        M = ExactMatrix(ZZ, rows)
        check_smith(M)
        Mp = ExactMatrix(GroundRing.prime_field(p), rows)
        coker = factor(Mp).cokernel()
        assert p ** coker.free_rank == enumeration_cokernel_size(Mp, p)


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(25):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = ExactMatrix(ZZ, [[rng.randint(-4, 4) for _ in range(c)] for _ in range(r)])
        for v in kernel_basis(M):
            assert M.apply(v) == {}


def test_subquotient():
    # ker(Z^2 -> 0) / span{(2, 0)} = Z + Z/2
    zero = factor(ExactMatrix(ZZ, [], cols=2))
    pres = subquotient(zero, factor(ExactMatrix(ZZ, [[2], [0]])))
    assert (pres.free_rank, pres.torsion) == (1, (2,))
    assert subquotient(zero) == SubquotientPresentation(2)
    assert subquotient(factor(ExactMatrix(ZZ, [], cols=0))).is_zero
    # ker (2 0) = span{(0, 1)}, a direct summand: modulo (0, 3) it is Z/3
    pres = subquotient(factor(ExactMatrix(ZZ, [[2, 0]])), factor(ExactMatrix(ZZ, [[0], [3]])))
    assert (pres.free_rank, pres.torsion) == (0, (3,))


def test_subquotient_rejects_image_outside_kernel_span():
    # over F3: ker (0 1) = span{(1, 0)} does not hold (0, 1)
    with pytest.raises(ValueError, match="outside the kernel span"):
        subquotient(factor(ExactMatrix(F3, [[0, 1]])), factor(ExactMatrix(F3, [[0], [1]])))
    # over Z: (2) sends the image vector 1 to 2, not to 0
    with pytest.raises(ValueError, match="outside the kernel span"):
        subquotient(factor(ExactMatrix(ZZ, [[2]])), factor(ExactMatrix(ZZ, [[1]])))
    with pytest.raises(ValueError, match="dimension mismatch"):
        subquotient(factor(ExactMatrix(ZZ, [[2]])), factor(ExactMatrix(ZZ, [[0], [0]])))


def kernel_coordinates_oracle(outgoing, incoming, t):
    """ker(outgoing)/im(incoming) on slice t the long way: a kernel basis,
    each image vector solved into kernel coordinates, then the cokernel of
    that coordinate matrix (over Z it carries the torsion)."""
    g = outgoing.source.base.ground
    kernel = kernel_basis(outgoing.slice_matrix(t)[0])
    image = [] if incoming is None else incoming.slice_matrix(t - incoming.degree)[0].columns
    K = factor(ExactMatrix.from_columns(g, len(outgoing.source.slice_indices(t)), kernel))
    coords = [K.solve(v) for v in image]
    assert None not in coords
    return factor(ExactMatrix.from_columns(g, len(kernel), coords)).cokernel()


def random_cochain_pair(g, rng):
    """C0 -d0-> C1 -d1-> C2, degree-0 maps with d1 d0 = 0 on slices 0 and 1.

    d1 is random; d0's columns are random combinations of a kernel basis
    of d1, with coefficients up to 3, so over Z the image is often not
    saturated and the cohomology has torsion.
    """
    def scalar():
        return rng.randint(-3, 3) if g.kind != "Fp" else rng.randrange(g.p)

    ranks = {t: [rng.randint(0, 4) for _ in range(3)] for t in (0, 1)}
    mods = [GradedFreeModule(BaseRing(g), tuple(
        (f"c{i}.{t}.{a}", t) for t in (0, 1) for a in range(ranks[t][i]))) for i in range(3)]
    d0, d1 = {}, {}
    for t in (0, 1):
        n0, n1, n2 = ranks[t]
        offsets = [ranks[0][i] if t else 0 for i in range(3)]
        rows = [[scalar() for _ in range(n1)] for _ in range(n2)]
        for r, row in enumerate(rows):
            for c, x in enumerate(row):
                d1[(offsets[2] + r, offsets[1] + c)] = x
        kernel = kernel_basis(ExactMatrix(g, rows, cols=n1))
        for c in range(n0):
            for v in kernel:
                w = scalar()
                for r, x in v.items():
                    key = (offsets[1] + r, offsets[0] + c)
                    d0[key] = g.normalize(d0.get(key, g.zero) + w * x)
    return (HomogeneousMap(mods[0], mods[1], 0, d0), HomogeneousMap(mods[1], mods[2], 0, d1))


@pytest.mark.parametrize("g", [ZZ, F2, F3, QQ], ids=["Z", "F2", "F3", "Q"])
def test_cohomology_at_matches_the_kernel_coordinates_oracle(g):
    rng = random.Random(29)
    torsion = 0
    for _ in range(40):
        d0, d1 = random_cochain_pair(g, rng)
        assert d1.compose(d0).is_zero()
        for t in (0, 1):
            for outgoing, incoming in ((d1, d0), (d1, None), (d0, None)):
                pres = cohomology_at(outgoing, incoming, t)
                assert pres == kernel_coordinates_oracle(outgoing, incoming, t)
                torsion += len(pres.torsion)
    assert (torsion > 0) == (g == ZZ)


def test_factored_solve_against_enumeration_over_f3():
    rng = random.Random(17)
    for _ in range(40):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        M = ExactMatrix(F3, [[rng.randint(0, 2) for _ in range(c)] for _ in range(r)])
        image = {frozenset(M.apply(dict(enumerate(x))).items())
                 for x in itertools.product(range(3), repeat=c)}
        sf = factor(M)
        for b in itertools.product(range(3), repeat=r):
            b = {i: x for i, x in enumerate(b) if x}
            x = sf.solve(b)
            assert (x is None) == (frozenset(b.items()) not in image)
            if x is not None:
                assert M.apply(x) == b


def test_factored_solve_over_z():
    rng = random.Random(23)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        M = ExactMatrix(ZZ, [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)])
        sf = smith_normal_form(M)
        for _ in range(8):
            b = M.apply(dict(enumerate(rng.randint(-6, 6) for _ in range(c))))
            x = sf.solve(b)
            assert x is not None and M.apply(x) == b


def test_smith_form_answers_rank_kernel_cokernel():
    # row 3 = row 1 + row 2: rank 2, d1 = gcd of entries, d1*d2 = gcd of 2x2 minors
    M = ExactMatrix(ZZ, [[2, 4, 6], [6, 6, 12], [8, 10, 18]])
    sf = smith_normal_form(M)
    assert sf.diagonal() == [2, 6, 0]
    assert sf.rank == rank(M) == 2
    (v,) = sf.kernel()
    assert sf.kernel() == kernel_basis(M) and M.apply(v) == {}
    assert sf.cokernel() == factor(M).cokernel()
    assert (sf.cokernel().free_rank, sf.cokernel().torsion) == (1, (2, 6))


def test_normalize_keeps_canonical_types():
    F5 = GroundRing.prime_field(5)
    assert type(QQ.normalize(3)) is Fraction
    assert QQ.normalize(Fraction(1, 2)) == Fraction(1, 2)
    assert F5.normalize(-7) == 3
    assert F5.normalize(Fraction(1, 2)) == 3
    assert ZZ.normalize(-7) == -7
    assert ZZ.normalize(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        ZZ.normalize(Fraction(1, 2))


def test_trusted_constructors_over_q_hold_fractions():
    A = ExactMatrix(QQ, [[1, 2], [3, 4]])
    made = [ExactMatrix(QQ, [[0, 0, 0], [0, 0, 0]]), ExactMatrix.identity(QQ, 3),
            A.mul(A), A.mul(ExactMatrix(QQ, [[0, 0], [0, 0]]))]
    for m in made:
        assert all(type(x) is Fraction for row in m.data for x in row)


# -- the field echelon against the integer Smith form and against itself ---------------

F5 = GroundRing.prime_field(5)


def test_echelon_ranks_by_universal_coefficients():
    # rank over F_p counts the invariant factors prime to p, rank over Q the nonzero ones
    rng = random.Random(41)
    for _ in range(60):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
        diag = smith_normal_form(ExactMatrix(ZZ, rows)).diagonal()
        assert rank(ExactMatrix(QQ, rows)) == sum(1 for d in diag if d != 0)
        for p in (2, 3, 5):
            Mp = ExactMatrix(GroundRing.prime_field(p), rows)
            assert rank(Mp) == sum(1 for d in diag if d % p != 0)


def random_field_rows(rng, g, r, c, density):
    def entry():
        if rng.random() >= density:
            return 0
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4)) if g == QQ else rng.randint(0, g.p - 1)
    return [[entry() for _ in range(c)] for _ in range(r)]


@pytest.mark.parametrize("g", [F2, F3, F5, QQ], ids=str)
def test_echelon_form_self_consistency(g):
    rng = random.Random(43)
    for density in (0.1, 0.9):
        for _ in range(4):
            r, c = rng.randint(1, 40), rng.randint(1, 40)
            rows = random_field_rows(rng, g, r, c, density)
            M = ExactMatrix(g, rows)
            fm = factor(M)
            ker = fm.kernel()
            assert len(ker) == c - fm.rank
            assert all(M.apply(v) == {} for v in ker)
            assert rank(ExactMatrix(g, [list(col) for col in zip(*rows)])) == fm.rank
            x0 = dict(enumerate(g.normalize(rng.randint(-3, 3)) for _ in range(c)))
            b = M.apply(x0)
            assert M.apply(fm.solve(b)) == b
            b = [g.normalize(rng.randint(-3, 3)) for _ in range(r)]
            extended = ExactMatrix(g, [row + [x] for row, x in zip(rows, b)])
            b = {i: x for i, x in enumerate(b) if x != 0}
            if rank(extended) > fm.rank:
                assert fm.solve(b) is None
            else:
                assert M.apply(fm.solve(b)) == b


def echelon_form_oracle(M):
    """(rank, kernel, solve) of M over a field from one tagged echelon.

    Column j enters an `Echelon` as (M e_j) + e_{rows + j}: every vector of
    the span is (M x, x), so a row pivoted in the tag block is a kernel
    vector, and the normal form of (b, 0) is (0, -x) with M x = b exactly
    when b is in the image.  The kernel is the reduced echelon basis of
    ker(M) in order of pivot.
    """
    g, n = M.ground, M.rows
    span = Echelon(g)
    for j, col in enumerate(M.columns):
        span.add({**col, n + j: g.one})
    kernel = [{i - n: c for i, c in row.items()}
              for p, row in sorted(span.rows.items()) if p >= n]

    def solve(b):
        x = {}
        for i, c in span.reduce({i: g.normalize(v) for i, v in b.items()}).items():
            if i < n:
                return None
            x[i - n] = g.normalize(-c)
        return x

    return sum(1 for p in span.rows if p < n), kernel, solve


@pytest.mark.parametrize("g", [F2, F3, F5, QQ], ids=str)
def test_field_smith_forms_match_the_echelon_oracle(g):
    # rank and kernel exactly; solvability of images and of random targets
    rng = random.Random(53)
    for density in (0.1, 0.9):
        for _ in range(8):
            r, c = rng.randint(1, 40), rng.randint(1, 40)
            M = ExactMatrix(g, random_field_rows(rng, g, r, c, density))
            rank_, kernel, oracle_solve = echelon_form_oracle(M)
            sf = factor(M)
            assert (sf.rank, sf.kernel()) == (rank_, kernel)
            targets = [M.apply({j: g.normalize(rng.randint(-3, 3)) for j in range(c)})]
            targets += [{i: x for i in range(r) if (x := g.normalize(rng.randint(-3, 3))) != 0}
                        for _ in range(3)]
            for b in targets:
                x = sf.solve(b)
                assert (x is None) == (oracle_solve(b) is None)
                assert x is None or M.apply(x) == b
            assert sf.solve(targets[0]) is not None


def test_echelon_reduce_is_the_full_normal_form():
    span = Echelon(F3)
    assert span.add({1: 1, 2: 1}) and span.add({2: 2, 3: 1})
    assert not span.add({1: 2, 2: 2})
    assert span.rows == {1: {1: 1, 3: 1}, 2: {2: 1, 3: 2}}
    # the least coordinate is not a pivot, later ones are: all pivots cleared
    assert span.reduce({0: 1, 1: 1, 2: 1}) == {0: 1}
    assert span.reduce({1: 1, 3: 2}) == {3: 1}
    assert span.rank == 2


def gauss_jordan_oracle(g, vectors, n):
    """{pivot: row} of the reduced row echelon basis of the vectors' span,
    by dense Gauss-Jordan elimination on n columns, pivots least first."""
    def canon(x):
        return x % g.p if g.p else Fraction(x)

    def inv(x):
        return pow(x, g.p - 2, g.p) if g.p else 1 / x

    rows = [[canon(v.get(j, 0)) for j in range(n)] for v in vectors]
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        f = inv(rows[r][col])
        rows[r] = [canon(x * f) for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col]:
                c = row[col]
                rows[i] = [canon(a - c * b) for a, b in zip(row, rows[r])]
        r += 1
    return {next(j for j, x in enumerate(row) if x): {j: x for j, x in enumerate(row) if x}
            for row in rows[:r]}


def assert_canonical_echelon(g, span):
    pivots = set(span.rows)
    for p, row in span.rows.items():
        assert min(row) == p and row[p] == 1 and not (pivots - {p}) & set(row)
        assert all(x and type(x) is type(g.one) and g.normalize(x) == x for x in row.values())


@pytest.mark.parametrize("g, ints", [(F2, True), (F3, True), (F5, True), (QQ, False),
                                     (QQ, True)], ids=["F2", "F3", "F5", "Q", "Q-int-input"])
def test_echelon_matches_a_dense_gauss_jordan_oracle(g, ints):
    # add and reduce against the oracle on seeded sparse vectors, given as
    # they come: over F_p ints, the combinations below out of range, and
    # over Q Fractions, or ints that the echelon must take to Fractions
    rng = random.Random(67)

    def scalar():
        if g.p:
            return rng.randint(1, g.p - 1)
        return rng.randint(-4, 4) if ints else Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    for trial in range(40):
        n, k = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.choice((0.15, 0.4, 0.9))
        vectors = [{j: x for j in range(n) if rng.random() < density and (x := scalar())}
                   for _ in range(k)]
        # dependent vectors: combinations of earlier ones
        vectors += [{j: sum(rng.randint(-2, 2) * v.get(j, 0) for v in vectors[:3])
                     for j in range(n)} for _ in range(2)]
        vectors = [g.canonical(v) if not ints else {j: x for j, x in v.items() if x}
                   for v in vectors]
        ranks = [len(gauss_jordan_oracle(g, vectors[:i], n)) for i in range(len(vectors) + 1)]
        span = Echelon(g)
        for i, v in enumerate(vectors):
            assert span.add(v) == (ranks[i + 1] > ranks[i])
        want = gauss_jordan_oracle(g, vectors, n)
        assert span.rows == want and span.rank == len(want)
        assert_canonical_echelon(g, span)
        # one reduced basis: any order of the same vectors gives the same rows
        shuffled = Echelon(g)
        for v in rng.sample(vectors, len(vectors)):
            shuffled.add(v)
        assert shuffled.rows == span.rows
        # reduce is v minus v's pivot entries times the pivot rows: zero at every pivot
        for _ in range(4):
            v = {j: x for j in range(n) if rng.random() < 0.5 and (x := scalar())}
            nf = {j: (g.normalize(v.get(j, 0)) - sum(g.normalize(v.get(p, 0)) * row.get(j, 0)
                                                     for p, row in want.items()))
                  for j in range(n)}
            out = span.reduce(v)
            assert out == g.canonical(nf) and not set(out) & set(want)
            assert all(type(x) is type(g.one) and g.normalize(x) == x for x in out.values())


# -- the two constructors --------------------------------------------------------------

@pytest.mark.parametrize("g", [F2, F3, F5, QQ, ZZ], ids=str)
def test_dense_rows_and_sparse_columns_build_the_same_matrix(g):
    rng = random.Random(47)
    shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(25)]
    for r, c in shapes:
        rows = [[g.normalize(rng.choice((0, 0, 0, 1, -1, 2, 3))) for _ in range(c)]
                for _ in range(r)]
        dense = ExactMatrix(g, rows, cols=c)
        sparse = ExactMatrix.from_columns(
            g, r, [{i: rows[i][j] for i in range(r) if rows[i][j] != 0} for j in range(c)])
        assert dense == sparse and (sparse.rows, sparse.cols) == (r, c)
        fd, fs = factor(dense), factor(sparse)
        assert fd.rank == fs.rank
        assert fd.kernel() == fs.kernel()
        assert fd.cokernel() == fs.cokernel()
        for _ in range(4):
            b = dense.apply({j: g.normalize(rng.randint(-3, 3)) for j in range(c)})
            x = fd.solve(b)
            assert x == fs.solve(b) and dense.apply(x) == b
            b = {i: x for i in range(r) if (x := g.normalize(rng.randint(-3, 3))) != 0}
            assert fd.solve(b) == fs.solve(b)
