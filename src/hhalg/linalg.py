"""Exact linear algebra over Z, F_p and Q.

Everything the homology and Ext machinery needs reduces to four primitives
on exact matrices: rank, kernel bases, cokernel presentations and linear
solving.  `ExactMatrix` holds a matrix as dense lists of rows.

Over a field there is one elimination: `Echelon`, a span of sparse dict
vectors in reduced echelon form with least-index pivots.  Over Z the Smith
normal form stays, because it carries the torsion; it uses minimal
absolute value pivoting with alternating row/column sweeps, which keeps
coefficient growth tame at this scale.

A matrix is factored once: `factor(M)` returns an `EchelonForm` over a
field and a `SmithForm` over Z, and both answer rank, kernel, cokernel and
any number of solves against M.  The module functions `rank`,
`kernel_basis`, `cokernel` and `solve` are one-shot calls on it, and
`subquotient` factors its kernel vectors once for all image vectors.
Callers that solve against one matrix many times keep the factored form
instead of calling `solve` in a loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ground import GroundRing


class ExactMatrix:
    """A rows x cols matrix with entries in a GroundRing."""

    __slots__ = ("ground", "rows", "cols", "data")

    def __init__(self, ground: GroundRing, data, rows=None, cols=None):
        self.ground = ground
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        self.rows = rows
        self.cols = cols
        self.data = [[ground.normalize(x) for x in row] for row in data]
        for row in self.data:
            if len(row) != cols:
                raise ValueError("ragged matrix")

    @staticmethod
    def _canonical(ground: GroundRing, data, rows: int, cols: int) -> "ExactMatrix":
        """Wrap rows whose entries are already canonical, without normalizing."""
        m = object.__new__(ExactMatrix)
        m.ground, m.rows, m.cols, m.data = ground, rows, cols, data
        return m

    @staticmethod
    def zero(ground: GroundRing, rows: int, cols: int) -> "ExactMatrix":
        z = ground.zero
        return ExactMatrix._canonical(ground, [[z] * cols for _ in range(rows)], rows, cols)

    @staticmethod
    def identity(ground: GroundRing, n: int) -> "ExactMatrix":
        m = ExactMatrix.zero(ground, n, n)
        for i in range(n):
            m.data[i][i] = ground.one
        return m

    def copy(self) -> "ExactMatrix":
        return ExactMatrix._canonical(self.ground, [row[:] for row in self.data],
                                      self.rows, self.cols)

    def __eq__(self, other):
        return (
            isinstance(other, ExactMatrix)
            and self.ground == other.ground
            and self.data == other.data
        )

    def __getitem__(self, ij):
        return self.data[ij[0]][ij[1]]

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        g = self.ground
        out = ExactMatrix.zero(g, self.rows, other.cols)
        for i in range(self.rows):
            ai = self.data[i]
            oi = out.data[i]
            for k in range(self.cols):
                a = ai[k]
                if a == 0:
                    continue
                bk = other.data[k]
                for j in range(other.cols):
                    if bk[j] != 0:
                        oi[j] = g.add(oi[j], g.mul(a, bk[j]))
        return out

    def apply(self, vec):
        """Matrix times column vector (a list of scalars)."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        g = self.ground
        support = [(j, v) for j, v in enumerate(vec) if v != 0]
        out = []
        for row in self.data:
            acc = g.zero
            for j, v in support:
                if row[j] != 0:
                    acc = g.add(acc, g.mul(row[j], v))
            out.append(acc)
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._canonical(
            self.ground,
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)],
            self.cols,
            self.rows,
        )

    def __repr__(self):
        return f"ExactMatrix({self.ground}, {self.data})"


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
        n = self.nrows = M.rows
        self.ncols = M.cols
        self.echelon = Echelon(g)
        data = M.data
        for j in range(M.cols):
            col = {i: data[i][j] for i in range(n) if data[i][j] != 0}
            col[n + j] = g.one
            self.echelon.add(col)
        self.rank = sum(1 for p in self.echelon.rows if p < n)

    def kernel(self):
        """A basis of {v : Mv = 0}, in order of pivot."""
        g, n = self.echelon.ground, self.nrows
        out = []
        for p in sorted(self.echelon.rows):
            if p >= n:
                v = [g.zero] * self.ncols
                for i, c in self.echelon.rows[p].items():
                    v[i - n] = c
                out.append(v)
        return out

    def cokernel(self) -> "SubquotientPresentation":
        return SubquotientPresentation(self.nrows - self.rank)

    def solve(self, b):
        """Return x with Mx = b, or None when b is not in im(M)."""
        if len(b) != self.nrows:
            raise ValueError("dimension mismatch")
        g, n = self.echelon.ground, self.nrows
        x = [g.zero] * self.ncols
        for i, c in self.echelon.reduce(dict(enumerate(map(g.normalize, b)))).items():
            if i < n:
                return None
            x[i - n] = g.neg(c)
        return x


@dataclass
class SmithForm:
    """U * M * V = D over Z, with U, V unimodular and D diagonal (d_i | d_{i+1}).

    The factorization of M, computed once by `smith_normal_form` and then
    asked for M's rank, kernel, cokernel and solutions of M x = b.  The
    nonzero diagonal entries come first, so the first `rank` columns of V
    map onto im(M) and the rest span ker(M).
    """

    U: ExactMatrix
    D: ExactMatrix
    V: ExactMatrix
    rank: int = field(init=False)

    def __post_init__(self):
        self.rank = sum(1 for d in self.diagonal() if d != 0)

    def diagonal(self):
        n = min(self.D.rows, self.D.cols)
        return [self.D.data[i][i] for i in range(n)]

    def kernel(self):
        """An independent generating set of {v : Mv = 0} (a lattice basis over Z)."""
        V = self.V
        return [[V.data[i][j] for i in range(V.rows)] for j in range(self.rank, V.cols)]

    def cokernel(self) -> "SubquotientPresentation":
        """Present target/im(M) by free rank and invariant factors."""
        torsion = [abs(d) for d in self.diagonal()[:self.rank] if abs(d) > 1]
        return SubquotientPresentation(self.D.rows - self.rank, tuple(torsion))

    def solve(self, b):
        """Return x with Mx = b, or None when b is not in im(M) (exactly)."""
        U, D = self.U, self.D
        if len(b) != U.cols:
            raise ValueError("dimension mismatch")
        g = D.ground
        c = U.apply([g.normalize(x) for x in b])
        r = self.rank
        if any(x != 0 for x in c[r:]):
            return None
        y = [0] * D.cols
        for i in range(r):
            if c[i] % D.data[i][i]:
                return None
            y[i] = c[i] // D.data[i][i]
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


def _swap_rows(m: ExactMatrix, i, j):
    m.data[i], m.data[j] = m.data[j], m.data[i]


def _swap_cols(m: ExactMatrix, i, j):
    for row in m.data:
        row[i], row[j] = row[j], row[i]


def _addmul_row(m: ExactMatrix, dst, src, c):
    g = m.ground
    row_d, row_s = m.data[dst], m.data[src]
    for j in range(m.cols):
        if row_s[j] != 0:
            row_d[j] = g.add(row_d[j], g.mul(c, row_s[j]))


def _addmul_col(m: ExactMatrix, dst, src, c):
    g = m.ground
    for row in m.data:
        if row[src] != 0:
            row[dst] = g.add(row[dst], g.mul(c, row[src]))


def _scale_row(m: ExactMatrix, i, u):
    g = m.ground
    m.data[i] = [g.mul(u, x) for x in m.data[i]]


def smith_normal_form(M: ExactMatrix) -> SmithForm:
    """Diagonalize M over Z as U*M*V = D with a divisibility chain on the diagonal."""
    g = M.ground
    if g.is_field:
        raise ValueError("the Smith form is taken over Z; over a field use factor()")
    D = M.copy()
    U = ExactMatrix.identity(g, M.rows)
    V = ExactMatrix.identity(g, M.cols)
    n = min(M.rows, M.cols)
    t = 0
    while t < n:
        # minimal |entry| pivot in the trailing block
        piv = None
        best = None
        for i in range(t, D.rows):
            for j in range(t, D.cols):
                a = D.data[i][j]
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
            for i in range(t + 1, D.rows):
                a = D.data[i][t]
                if a != 0:
                    q = a // D.data[t][t]
                    _addmul_row(D, i, t, -q)
                    _addmul_row(U, i, t, -q)
                    if D.data[i][t] != 0:
                        _swap_rows(D, i, t)
                        _swap_rows(U, i, t)
                        dirty = True
            for j in range(t + 1, D.cols):
                a = D.data[t][j]
                if a != 0:
                    q = a // D.data[t][t]
                    _addmul_col(D, j, t, -q)
                    _addmul_col(V, j, t, -q)
                    if D.data[t][j] != 0:
                        _swap_cols(D, j, t)
                        _swap_cols(V, j, t)
                        dirty = True
            if not dirty and abs(D.data[t][t]) != 1:
                # pivot must divide the whole trailing block (a unit always does)
                d = D.data[t][t]
                for i in range(t + 1, D.rows):
                    if any(D.data[i][j] % d != 0 for j in range(t + 1, D.cols)):
                        _addmul_row(D, t, i, 1)
                        _addmul_row(U, t, i, 1)
                        dirty = True
                        break
        if D.data[t][t] < 0:
            _scale_row(D, t, -1)
            _scale_row(U, t, -1)
        t += 1
    # enforce the divisibility chain (minimal pivoting usually guarantees it,
    # but keep the invariant explicit and robust)
    changed = True
    while changed:
        changed = False
        for i in range(n - 1):
            a, b = D.data[i][i], D.data[i + 1][i + 1]
            if a != 0 and b % a != 0:
                _addmul_col(D, i, i + 1, 1)
                _addmul_col(V, i, i + 1, 1)
                _smith_integer_block(D, U, V, i)
                changed = True
    return SmithForm(U, D, V)


def _smith_integer_block(D, U, V, t):
    """Clear the cross at position t after a chain-fix column add."""
    dirty = True
    while dirty:
        dirty = False
        for i in range(D.rows):
            if i != t and D.data[i][t] != 0:
                d = D.data[t][t]
                q = D.data[i][t] // d
                _addmul_row(D, i, t, -q)
                _addmul_row(U, i, t, -q)
                if D.data[i][t] != 0:  # remainder: smaller pivot found
                    _swap_rows(D, i, t)
                    _swap_rows(U, i, t)
                    dirty = True
        for j in range(D.cols):
            if j != t and D.data[t][j] != 0:
                d = D.data[t][t]
                q = D.data[t][j] // d
                _addmul_col(D, j, t, -q)
                _addmul_col(V, j, t, -q)
                if D.data[t][j] != 0:
                    _swap_cols(D, j, t)
                    _swap_cols(V, j, t)
                    dirty = True
    if D.data[t][t] < 0:
        _scale_row(D, t, -1)
        _scale_row(U, t, -1)


def factor(M: ExactMatrix):
    """Factor M once: an `EchelonForm` over a field, a `SmithForm` over Z."""
    if M.ground.is_field:
        return EchelonForm(M)
    return smith_normal_form(M)


def rank(M: ExactMatrix) -> int:
    return factor(M).rank


def kernel_basis(M: ExactMatrix):
    """A basis of {v : Mv = 0} (a lattice basis over Z)."""
    return factor(M).kernel()


def cokernel(M: ExactMatrix) -> SubquotientPresentation:
    """Present target/im(M) by free rank and invariant factors."""
    return factor(M).cokernel()


def solve(M: ExactMatrix, b):
    """Return x with Mx = b, or None when unsolvable (exactly).

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
    a = [row[:] for row in M.data]
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


def subquotient(ground: GroundRing, kernel_vectors, image_vectors) -> SubquotientPresentation:
    """Present span(kernel_vectors)/span(image_vectors).

    Every image vector must lie in the span of the kernel vectors (over Z,
    in their integer span), which are taken to be independent.  Over a
    field the presentation is a difference of two echelon ranks.  Over Z
    the image is rewritten in kernel coordinates and the presentation is
    the cokernel of that coordinate matrix; the kernel matrix is factored
    once and every image vector is solved against it.
    """
    if not kernel_vectors:
        return SubquotientPresentation(0)
    if not image_vectors:
        return SubquotientPresentation(len(kernel_vectors))
    if ground.is_field:
        spans = Echelon(ground), Echelon(ground)
        for span, vectors in zip(spans, (kernel_vectors, image_vectors)):
            for v in vectors:
                span.add({i: x for i, x in enumerate(map(ground.normalize, v)) if x != 0})
        if any(spans[0].reduce(row) for row in spans[1].rows.values()):
            raise ValueError("image vector outside the kernel span")
        return SubquotientPresentation(spans[0].rank - spans[1].rank)
    dim = len(kernel_vectors[0])
    K = ExactMatrix(ground, [[kernel_vectors[j][i] for j in range(len(kernel_vectors))] for i in range(dim)])
    sf = smith_normal_form(K)
    cols = []
    for v in image_vectors:
        x = sf.solve(v)
        if x is None:
            raise ValueError("image vector outside the kernel span")
        cols.append(x)
    R = ExactMatrix(ground, [[cols[j][i] for j in range(len(cols))] for i in range(len(kernel_vectors))])
    return cokernel(R)
