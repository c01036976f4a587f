"""Exact linear algebra over Z, F_p and Q.

Everything the homology and Ext machinery needs reduces to four primitives
on exact matrices: rank, kernel bases, cokernel presentations and linear
solving.  `ExactMatrix` stores a matrix as sparse columns, one dict
{row: scalar} per column, because the slices of graded maps are sparse and
arrive column by column.  This module is the only one that knows how a
matrix is stored: vectors go in and come out as sparse dicts
{index: scalar}, and dense rows exist only as the scratch copy that the
integer Smith form and determinant work on.

Over a field there is one elimination: `Echelon`, a span of sparse dict
vectors in reduced echelon form with least-index pivots.  Over Z the Smith
normal form stays, because it carries the torsion; it uses minimal
absolute value pivoting with alternating row/column sweeps, which keeps
coefficient growth tame at this scale.

A matrix is factored once: `factor(M)` returns an `EchelonForm` over a
field and a `SmithForm` over Z, and both keep M and answer its rank,
kernel, cokernel and any number of solves against it.  `EchelonForm` adds
M's columns to the echelon as they are stored.  The module functions
`rank`, `kernel_basis`, `cokernel` and `solve` are one-shot calls on it.
`subquotient` presents ker(A)/im(B) from the factorizations of A and B by
rank arithmetic, factoring nothing itself.  Callers that solve against one
matrix many times keep the factored form instead of calling `solve` in a
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ground import GroundRing


class ExactMatrix:
    """A rows x cols matrix over a GroundRing, stored as sparse columns.

    columns[j] is {i: scalar}, the nonzero entries of column j in canonical
    form.  A matrix is built from dense rows (a literal matrix, normalized
    here) or by `from_columns` from sparse columns that are already
    canonical, as slices of a HomogeneousMap are.
    """

    __slots__ = ("ground", "rows", "cols", "columns")

    def __init__(self, ground: GroundRing, data, *, cols=None):
        """The matrix with these dense rows; cols is read off the rows when there are any."""
        self.ground = ground
        self.rows = len(data)
        self.cols = len(data[0]) if data else (cols or 0)
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged matrix")
        self.columns = _columns_of([[ground.normalize(x) for x in row] for row in data], self.cols)

    @staticmethod
    def from_columns(ground: GroundRing, rows: int, columns) -> "ExactMatrix":
        """Wrap sparse columns {row: scalar} whose entries are canonical and nonzero."""
        m = object.__new__(ExactMatrix)
        m.ground, m.rows, m.columns = ground, rows, list(columns)
        m.cols = len(m.columns)
        return m

    @staticmethod
    def identity(ground: GroundRing, n: int) -> "ExactMatrix":
        return ExactMatrix.from_columns(ground, n, [{j: ground.one} for j in range(n)])

    @property
    def data(self):
        """A fresh dense copy of the rows, zeros included.

        The integer Smith form and determinant eliminate on it in place.
        """
        z = self.ground.zero
        return [[col.get(i, z) for col in self.columns] for i in range(self.rows)]

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.ground == other.ground
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.columns == other.columns
        )

    def __getitem__(self, ij):
        return self.columns[ij[1]].get(ij[0], self.ground.zero)

    def apply(self, vec: dict) -> dict:
        """M times a sparse column vector {j: scalar}, as a sparse vector."""
        g = self.ground
        out = {}
        for j, x in vec.items():
            if not 0 <= j < self.cols:
                raise ValueError("dimension mismatch")
            for i, c in self.columns[j].items():
                out[i] = g.add(out.get(i, g.zero), g.mul(c, x))
        return {i: v for i, v in out.items() if v != 0}

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return ExactMatrix.from_columns(self.ground, self.rows,
                                        [self.apply(col) for col in other.columns])

    def __repr__(self):
        return f"ExactMatrix({self.ground}, {self.data})"


def _columns_of(data, cols: int) -> list:
    """The sparse columns of dense rows with canonical entries."""
    return [{i: row[j] for i, row in enumerate(data) if row[j] != 0} for j in range(cols)]


class Echelon:
    """A span of sparse vectors over a field, in reduced echelon form.

    Vectors are dicts {coordinate: scalar}; zero entries are dropped.
    `rows` maps each pivot to its row: the pivot is the row's least
    coordinate and carries 1, and no row is nonzero at another row's pivot.
    """

    __slots__ = ("ground", "rows")

    def __init__(self, ground: GroundRing):
        self.ground = ground
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The normal form of vec modulo the span: zero at every pivot."""
        g = self.ground
        rows = self.rows
        out = {i: x for i, x in vec.items() if x != 0}
        # a row is zero at the other pivots, so one pass clears them all
        for p in [i for i in out if i in rows]:
            f = out[p]
            for i, c in rows[p].items():
                x = g.sub(out.get(i, 0), g.mul(f, c))
                if x == 0:
                    del out[i]
                else:
                    out[i] = x
        return out

    def add(self, vec: dict) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        g = self.ground
        r = self.reduce(vec)
        if not r:
            return False
        p = min(r)
        if r[p] != 1:
            inv = g.inv(r[p])
            r = {i: g.mul(inv, c) for i, c in r.items()}
        for q, row in self.rows.items():
            f = row.get(p)
            if f is not None:
                new = dict(row)
                for i, c in r.items():
                    x = g.sub(new.get(i, 0), g.mul(f, c))
                    if x == 0:
                        del new[i]
                    else:
                        new[i] = x
                self.rows[q] = new
        self.rows[p] = r
        return True


class EchelonForm:
    """M over a field, factored once into an Echelon of its tagged columns.

    Column j enters as (M e_j) + e_{rows + j}: every vector of the span is
    (M x, x), so a row pivoted in the tag block is a kernel vector, and the
    normal form of (b, 0) is (0, -x) with M x = b exactly when b is in the
    image.
    """

    def __init__(self, M: ExactMatrix):
        g = M.ground
        self.matrix = M
        n = self.nrows = M.rows
        self.echelon = Echelon(g)
        for j, col in enumerate(M.columns):
            self.echelon.add({**col, n + j: g.one})
        self.rank = sum(1 for p in self.echelon.rows if p < n)

    def kernel(self):
        """A basis of {v : Mv = 0} as sparse vectors, in order of pivot."""
        n = self.nrows
        return [{i - n: c for i, c in row.items()}
                for p, row in sorted(self.echelon.rows.items()) if p >= n]

    def cokernel(self) -> "SubquotientPresentation":
        return SubquotientPresentation(self.nrows - self.rank)

    def solve(self, b: dict):
        """Return a sparse x with Mx = b, or None when b is not in im(M)."""
        g, n = self.echelon.ground, self.nrows
        x = {}
        for i, c in self.echelon.reduce(_target(g, b, n)).items():
            if i < n:
                return None
            x[i - n] = g.neg(c)
        return x


def _target(g: GroundRing, b: dict, n: int) -> dict:
    """b with canonical entries, checked to be a vector of length n."""
    if any(not 0 <= i < n for i in b):
        raise ValueError("dimension mismatch")
    return {i: g.normalize(x) for i, x in b.items()}


@dataclass
class SmithForm:
    """U * M * V = D over Z, with U, V unimodular and D diagonal (d_i | d_{i+1}).

    The factorization of M, computed once by `smith_normal_form` and then
    asked for M's rank, kernel, cokernel and solutions of M x = b.  The
    nonzero diagonal entries come first, so the first `rank` columns of V
    map onto im(M) and the rest span ker(M).
    """

    matrix: ExactMatrix
    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix
    rank: int = field(init=False)

    def __post_init__(self):
        self.rank = sum(1 for d in self.diagonal() if d != 0)

    def diagonal(self):
        return [self.D[i, i] for i in range(min(self.D.rows, self.D.cols))]

    def kernel(self):
        """An independent generating set of {v : Mv = 0} (a lattice basis over Z)."""
        return [dict(col) for col in self.V.columns[self.rank:]]

    def cokernel(self) -> "SubquotientPresentation":
        """Present target/im(M) by free rank and invariant factors."""
        torsion = [abs(d) for d in self.diagonal()[:self.rank] if abs(d) > 1]
        return SubquotientPresentation(self.D.rows - self.rank, tuple(torsion))

    def solve(self, b: dict):
        """Return a sparse x with Mx = b, or None when b is not in im(M) (exactly)."""
        c = self.U.apply(_target(self.D.ground, b, self.U.cols))
        y = {}
        for i, x in c.items():
            if i >= self.rank:
                return None
            d = self.D[i, i]
            if x % d:
                return None
            y[i] = x // d
        return self.V.apply(y)


@dataclass(frozen=True)
class SubquotientPresentation:
    """A finitely generated module: free part plus invariant-factor torsion."""

    free_rank: int
    torsion: tuple = field(default_factory=tuple)

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion factors must form a divisibility chain")

    @property
    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        if self.free_rank:
            parts.append(f"free^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts)


# The integer Smith form works on a dense scratch copy of the rows.

def _swap_rows(m, i, j):
    m[i], m[j] = m[j], m[i]


def _swap_cols(m, i, j):
    for row in m:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m, dst, src, c):
    row_d = m[dst]
    for j, x in enumerate(m[src]):
        if x:
            row_d[j] += c * x


def _addmul_col(m, dst, src, c):
    for row in m:
        if row[src]:
            row[dst] += c * row[src]


def _eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def smith_normal_form(M: ExactMatrix) -> SmithForm:
    """Diagonalize M over Z as U*M*V = D with a divisibility chain on the diagonal."""
    g = M.ground
    if g.is_field:
        raise ValueError("the Smith form is taken over Z; over a field use factor()")
    rows, cols = M.rows, M.cols
    D = M.data
    U, V = _eye(rows), _eye(cols)
    n = min(rows, cols)
    t = 0
    while t < n:
        # minimal |entry| pivot in the trailing block
        piv = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = D[i][j]
                if a != 0 and (best is None or abs(a) < best):
                    best = abs(a)
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        if i != t:
            _swap_rows(D, i, t)
            _swap_rows(U, i, t)
        if j != t:
            _swap_cols(D, j, t)
            _swap_cols(V, j, t)
        # alternate row/column reduction until the cross is clear
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                a = D[i][t]
                if a != 0:
                    q = a // D[t][t]
                    _addmul_row(D, i, t, -q)
                    _addmul_row(U, i, t, -q)
                    if D[i][t] != 0:
                        _swap_rows(D, i, t)
                        _swap_rows(U, i, t)
                        dirty = True
            for j in range(t + 1, cols):
                a = D[t][j]
                if a != 0:
                    q = a // D[t][t]
                    _addmul_col(D, j, t, -q)
                    _addmul_col(V, j, t, -q)
                    if D[t][j] != 0:
                        _swap_cols(D, j, t)
                        _swap_cols(V, j, t)
                        dirty = True
            if not dirty and abs(D[t][t]) != 1:
                # pivot must divide the whole trailing block (a unit always does)
                d = D[t][t]
                for i in range(t + 1, rows):
                    if any(D[i][j] % d != 0 for j in range(t + 1, cols)):
                        _addmul_row(D, t, i, 1)
                        _addmul_row(U, t, i, 1)
                        dirty = True
                        break
        if D[t][t] < 0:
            _negate_row(D, t)
            _negate_row(U, t)
        t += 1
    # no chain repair: every later step acts inside a block d_t already divides
    return SmithForm(M, *(ExactMatrix.from_columns(g, len(m), _columns_of(m, c))
                          for m, c in ((U, rows), (D, cols), (V, cols))))


def factor(M: ExactMatrix):
    """Factor M once: an `EchelonForm` over a field, a `SmithForm` over Z."""
    if M.ground.is_field:
        return EchelonForm(M)
    return smith_normal_form(M)


def rank(M: ExactMatrix) -> int:
    return factor(M).rank


def kernel_basis(M: ExactMatrix):
    """A basis of {v : Mv = 0} as sparse vectors (a lattice basis over Z)."""
    return factor(M).kernel()


def cokernel(M: ExactMatrix) -> SubquotientPresentation:
    """Present target/im(M) by free rank and invariant factors."""
    return factor(M).cokernel()


def solve(M: ExactMatrix, b: dict):
    """Return a sparse x with Mx = b for a sparse b, or None when unsolvable (exactly).

    This factors M; to solve against one M many times, keep `factor(M)`
    and call its `solve`.
    """
    return factor(M).solve(b)


def determinant(M: ExactMatrix):
    """Exact determinant over Z (fraction-free Bareiss elimination)."""
    if M.rows != M.cols:
        raise ValueError("determinant of non-square matrix")
    if M.ground.is_field:
        raise ValueError("the determinant is taken over Z; over a field use rank")
    n = M.rows
    if n == 0:
        return 1
    # Bareiss over Z
    a = M.data
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            piv = next((i for i in range(t + 1, n) if a[i][t] != 0), None)
            if piv is None:
                return 0
            a[t], a[piv] = a[piv], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


def subquotient(outgoing, incoming=None) -> SubquotientPresentation:
    """Present ker(A)/im(B) from the factorizations of A and B (`factor`).

    outgoing factors A and incoming factors B, or is None for B = 0; B's
    rows are A's columns, and A B must be 0.  The kernel of A is a direct
    summand of its source (over Z, Z^n/ker(A) embeds in Z^m and is free),
    so ker(A)/im(B) is free of rank nullity(A) - rank(B), plus the torsion
    of coker(B).
    """
    A = outgoing.matrix
    free = A.cols - outgoing.rank
    if incoming is None:
        return SubquotientPresentation(free)
    B = incoming.matrix
    if B.rows != A.cols:
        raise ValueError("dimension mismatch")
    if any(A.apply(col) for col in B.columns):
        raise ValueError("image vector outside the kernel span")
    return SubquotientPresentation(free - incoming.rank, incoming.cokernel().torsion)
