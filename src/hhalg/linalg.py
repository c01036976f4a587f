"""Exact linear algebra over Z, F_p and Q.

Everything the homology and Ext machinery needs reduces to four primitives
on exact matrices: rank, kernel bases, cokernel presentations and linear
solving.  `ExactMatrix` stores a matrix as sparse columns, one dict
{row: scalar} per column, because the slices of graded maps are sparse and
arrive column by column.  This module is the only one that knows how a
matrix is stored: vectors go in and come out as sparse dicts
{index: scalar}, and dense rows exist only as the scratch copy that the
determinant works on.

A matrix is factored once, by one elimination on every ground ring: the
Smith normal form, which over Z carries the torsion and over a field is
1^rank 0^rest.  It eliminates on sparse rows: first unit pivots from the
sparsest columns, then the small core left without units, by least-|entry|
pivots whose column is cleared before their row.  Over Z the units are ±1,
which is nearly every pivot of the bar and action slices; over F_p and Q
every nonzero entry is a unit, so the first phase factors the whole matrix
and no core is left.  The factorization keeps the invariant factors and the
list of steps; U and V are built from the steps only for a caller that
reads them, so rank-only callers never build them.

`factor(M)` returns that `SmithForm`, which keeps M and answers its rank,
kernel, cokernel and any number of solves against it.  The module
functions `rank`, `kernel_basis` and `solve` are one-shot calls on it.  `subquotient` presents ker(A)/im(B) from the factorizations
of A and B by rank arithmetic, factoring nothing itself.  Callers that
solve against one matrix many times keep the factored form instead of
calling `solve` in a loop.

`Echelon` is the incremental span: a span of sparse dict vectors over a
field in reduced echelon form with least-index pivots, grown one vector at
a time by the resolutions, the algebra and Morita code.  A field kernel is
the reduced echelon basis of ker(M), taken by adding V's kernel columns to
an `Echelon`: V's columns depend on the pivot order, while the reduced
basis is unique and sparse, and the resolutions' generator search reduces
against the kernel vectors it is given.

Scalars follow the ground module's one policy: sums are plain arithmetic,
reduced only where a value is stored or tested for zero.
`ExactMatrix.apply` reduces its result once with `GroundRing.canonical`;
`Echelon` tests each step for zero, so it reduces its input and
`a - f * c` as it goes: over F_p by an inline `% p`, which is what
`GroundRing.normalize` does to an int there, without a call per entry, and
over Q (and Z) by `normalize`, which also turns an int into a Fraction.
The Smith form's row operations reduce by `mod` (p over F_p; over Z and Q
the sums are exact as they stand).
"""

from __future__ import annotations

from .ground import GroundRing
from .tables import SubquotientPresentation


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
        self.columns = [ground.canonical({i: row[j] for i, row in enumerate(data)})
                        for j in range(self.cols)]

    @staticmethod
    def from_columns(ground: GroundRing, rows: int, columns) -> "ExactMatrix":
        """Wrap sparse columns {row: scalar} whose entries are canonical and nonzero.

        The empty matrix is filled in place: the columns are taken as they
        are, without the dense constructor's normalization.
        """
        m = ExactMatrix(ground, ())
        m.rows, m.columns = rows, list(columns)
        m.cols = len(m.columns)
        return m

    @staticmethod
    def identity(ground: GroundRing, n: int) -> "ExactMatrix":
        return ExactMatrix.from_columns(ground, n, [{j: ground.one} for j in range(n)])

    @property
    def data(self):
        """A fresh dense copy of the rows, zeros included.

        The determinant eliminates on it in place.
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
        out = {}
        for j, x in vec.items():
            if not 0 <= j < self.cols:
                raise ValueError("dimension mismatch")
            for i, c in self.columns[j].items():
                out[i] = out.get(i, 0) + c * x
        return self.ground.canonical(out)

    def mul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return ExactMatrix.from_columns(self.ground, self.rows,
                                        [self.apply(col) for col in other.columns])

    def __repr__(self):
        return f"ExactMatrix({self.ground}, {self.data})"


class Echelon:
    """A span of sparse vectors over a field, in reduced echelon form.

    Vectors are dicts {coordinate: scalar}; `reduce` takes them to
    canonical form as it reads them (`% p` over F_p, `GroundRing.canonical`
    over Q), so every row and every normal form holds canonical nonzero
    scalars, whatever int or Fraction entries came in.  `rows` maps each
    pivot to its row: the pivot is the row's least coordinate and carries 1,
    and no row is nonzero at another row's pivot.  A subspace has one such
    basis, whatever order its vectors are added in.
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
        mod, norm = g.p, g.normalize
        rows = self.rows
        out = {i: y for i, x in vec.items() if (y := x % mod)} if mod else g.canonical(vec)
        # a row is zero at the other pivots, so one pass clears them all
        for p in [i for i in out if i in rows]:
            f = out[p]
            for i, c in rows[p].items():
                x = out.get(i, 0) - f * c
                x = x % mod if mod else norm(x)
                if x:
                    out[i] = x
                else:
                    del out[i]
        return out

    def add(self, vec: dict) -> bool:
        """Extend the span by vec; False when vec already lies in it."""
        g = self.ground
        mod, norm = g.p, g.normalize
        r = self.reduce(vec)
        if not r:
            return False
        p = min(r)
        if r[p] != 1:
            inv = g.inv(r[p])
            r = {i: inv * c % mod if mod else norm(inv * c) for i, c in r.items()}
        for q, row in self.rows.items():
            f = row.get(p)
            if f is not None:
                new = dict(row)
                for i, c in r.items():
                    x = new.get(i, 0) - f * c
                    x = x % mod if mod else norm(x)
                    if x:
                        new[i] = x
                    else:
                        del new[i]
                self.rows[q] = new
        self.rows[p] = r
        return True


def _target(g: GroundRing, b: dict, n: int) -> dict:
    """b with canonical entries, checked to be a vector of length n."""
    if any(not 0 <= i < n for i in b):
        raise ValueError("dimension mismatch")
    return g.canonical(b)


class SmithForm:
    """U * M * V = D with U, V invertible and D diagonal (d_i | d_{i+1}).

    The factorization of M over Z, F_p or Q, computed once by
    `smith_normal_form` and then asked for M's rank, kernel, cokernel and
    solutions of M x = b.  The nonzero diagonal entries come first, so the
    first `rank` columns of V map onto im(M) and the rest span ker(M).
    Over a field every invariant factor is 1.

    `rank`, `diagonal()` and `cokernel()` read the invariant factors alone.
    U and V, and with them `kernel()` and `solve()`, are lazy: the first
    request builds both by replaying the recorded elimination steps on
    identity matrices, and keeps them; `transforms_built` says whether that
    has happened.  Over a field `kernel()` is the reduced echelon basis of
    ker(M), which does not depend on the pivot order.
    """

    def __init__(self, matrix: ExactMatrix, invariants, pivots, row_ops, col_ops):
        self.matrix = matrix
        self.invariants = tuple(invariants)  # d_1 | d_2 | ..., all positive
        self.rank = len(self.invariants)
        self._pivots = pivots    # (row, column, scale) of each d_k, in diagonal order
        self._row_ops = row_ops  # (dst, src, c): row dst += c * row src, in order
        self._col_ops = col_ops  # (dst, src, c): column dst += c * column src
        self._UV = None

    def diagonal(self):
        M = self.matrix
        return list(self.invariants) + [M.ground.zero] * (min(M.rows, M.cols) - self.rank)

    @property
    def D(self) -> ExactMatrix:
        M = self.matrix
        return ExactMatrix.from_columns(M.ground, M.rows, [
            {j: self.invariants[j]} if j < self.rank else {} for j in range(M.cols)])

    @property
    def transforms_built(self) -> bool:
        return self._UV is not None

    @property
    def U(self) -> ExactMatrix:
        return self._transforms()[0]

    @property
    def V(self) -> ExactMatrix:
        return self._transforms()[1]

    def _transforms(self):
        """(U, V): the recorded row and column operations applied to identities.

        Pivot k's row of U becomes row k, scaled by the pivot's scale (its
        sign over Z, its inverse over a field), and its column of V becomes
        column k; the rows and columns that carried no pivot follow in index
        order.
        """
        if self._UV is None:
            M = self.matrix
            g = M.ground
            U = [{i: g.one} for i in range(M.rows)]  # rows of U
            for dst, src, c in self._row_ops:
                _addmul(U[dst], U[src], c, g.p)
            V = [{j: g.one} for j in range(M.cols)]  # columns of V
            for dst, src, c in self._col_ops:
                _addmul(V[dst], V[src], c, g.p)
            prows = {p for p, _, _ in self._pivots}
            pcols = {q for _, q, _ in self._pivots}
            urows = ([U[p] if s == 1 else {j: g.normalize(s * x) for j, x in U[p].items()}
                      for p, _, s in self._pivots]
                     + [U[i] for i in range(M.rows) if i not in prows])
            ucols = [{} for _ in range(M.rows)]
            for k, row in enumerate(urows):
                for j, x in row.items():
                    ucols[j][k] = x
            vcols = [V[q] for _, q, _ in self._pivots] + [V[j] for j in range(M.cols) if j not in pcols]
            self._UV = (ExactMatrix.from_columns(g, M.rows, ucols),
                        ExactMatrix.from_columns(g, M.cols, vcols))
        return self._UV

    def kernel(self):
        """A basis of {v : Mv = 0} as sparse vectors: a lattice basis over Z,
        the reduced echelon basis in order of pivot over a field."""
        g = self.matrix.ground
        columns = self.V.columns[self.rank:]
        if not g.is_field:
            return [dict(col) for col in columns]
        span = Echelon(g)
        for col in columns:
            span.add(col)
        return [row for _, row in sorted(span.rows.items())]

    def cokernel(self) -> "SubquotientPresentation":
        """Present target/im(M) by free rank and invariant factors."""
        torsion = [d for d in self.invariants if d > 1]
        return SubquotientPresentation(self.matrix.rows - self.rank, tuple(torsion))

    def solve(self, b: dict):
        """Return a sparse x with Mx = b, or None when b is not in im(M) (exactly)."""
        c = self.U.apply(_target(self.matrix.ground, b, self.matrix.rows))
        y = {}
        for i, x in c.items():
            if i >= self.rank:
                return None
            d = self.invariants[i]
            if d != 1:  # over Q, x % 1 is the fractional part of x
                if x % d:
                    return None
                x //= d
            y[i] = x
        return self.V.apply(y)


# The Smith form eliminates on sparse rows {column: scalar}, with a column
# index {column: set of rows} kept alongside.  mod is p over F_p and None
# over Z and Q, whose sums are exact as they stand.

def _addmul(dst: dict, src: dict, c, mod=None):
    """dst += c * src on sparse vectors, reduced mod `mod` when it is set."""
    for k, x in src.items():
        v = dst.get(k, 0) + c * x
        if mod:
            v %= mod
        if v:
            dst[k] = v
        else:
            del dst[k]


def _row_op(rows, at, dst, src, c, ops, mod=None):
    """Row dst += c * row src, keeping the column index; recorded in ops."""
    if not c:
        return
    row = rows[dst]
    for j, x in rows[src].items():
        v = row.get(j, 0) + c * x
        if mod:
            v %= mod
        if v:
            row[j] = v
            at[j].add(dst)
        else:
            del row[j]
            at[j].discard(dst)
    ops.append((dst, src, c))


def _col_op(rows, at, dst, src, c, ops):
    """Column dst += c * column src, keeping the column index; recorded in ops."""
    if not c:
        return
    col = at[dst]
    for i in at[src]:
        row = rows[i]
        v = row.get(dst, 0) + c * row[src]
        if v:
            row[dst] = v
            col.add(i)
        else:
            del row[dst]
            col.discard(i)
    ops.append((dst, src, c))


def _unit_phase(rows, at, g, pivots, row_ops, col_ops):
    """Eliminate unit pivots, each from the sparsest column that holds one.

    Units are ±1 over Z and every stored entry over F_p and Q, where this
    phase factors the whole matrix.  Each step scans the active columns in
    index order, stopping at one with a single entry, and pivots in its
    sparsest unit row, the lower on ties (Duff, Erisman and Reid, "Direct
    Methods for Sparse Matrices").  Pivot (p, q) with entry u clears column
    q by row operations with multiples of u⁻¹; the column operations that
    clear row p then change row p alone, so they are recorded, not applied.
    """
    field, mod = g.is_field, g.p
    while True:
        q = None
        for j, col in at.items():
            if col and (q is None or len(col) < len(at[q])) and (
                    field or any(rows[i][j] in (1, -1) for i in col)):
                q = j
                if len(col) == 1:
                    break
        if q is None:
            return
        p = min((i for i in at[q] if field or rows[i][q] in (1, -1)), key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        w = g.inv(prow[q]) if field else prow[q]  # u⁻¹
        for i in at[q] - {p}:
            _row_op(rows, at, i, p, -rows[i][q] * w, row_ops, mod)
        del rows[p], at[q]
        for j, x in prow.items():
            if j != q:
                at[j].discard(p)
                col_ops.append((j, q, -x * w))
        pivots.append((p, q, w))


def _core_phase(rows, at, pivots, row_ops, col_ops):
    """Finish the matrix left without ±1 entries; return its invariant factors.

    Each step pivots on an entry of least absolute value.  Its column is
    cleared first, by row operations that always pivot on the column's
    least entry, so the column operations that sweep the pivot row then
    change that row alone.  A nonzero remainder in the row becomes the new
    pivot and its column is cleared in turn; the pivot shrinks every time.
    Once the cross is clear, a pivot that fails to divide some remaining
    entry takes that entry's row into its own and the sweeps go on, so each
    d_k divides everything left after it and the factors form a
    divisibility chain.
    """
    invariants = []
    while True:
        best = min(((abs(x), i, j) for i, row in rows.items() for j, x in row.items()),
                   default=None)
        if best is None:
            return invariants
        _, p, q = best
        while True:
            while len(at[q]) > 1:
                p = min(at[q], key=lambda i: (abs(rows[i][q]), i))
                d = rows[p][q]
                for i in sorted(at[q] - {p}):
                    _row_op(rows, at, i, p, -(rows[i][q] // d), row_ops)
            d = rows[p][q]
            for j in sorted(set(rows[p]) - {q}):
                _col_op(rows, at, j, q, -(rows[p][j] // d), col_ops)
            rest = set(rows[p]) - {q}
            if rest:
                q = min(rest, key=lambda j: (abs(rows[p][j]), j))
                continue
            if abs(d) != 1:
                bad = next((i for i in sorted(rows)
                            if i != p and any(x % d for x in rows[i].values())), None)
                if bad is not None:
                    _row_op(rows, at, p, bad, 1, row_ops)
                    continue
            break
        rows.pop(p)
        del at[q]
        pivots.append((p, q, 1 if d > 0 else -1))
        invariants.append(abs(d))


def smith_normal_form(M: ExactMatrix) -> SmithForm:
    """Diagonalize M over Z, F_p or Q as U*M*V = D with a divisibility chain
    on the diagonal: unit pivots first (`_unit_phase`), as in Dumas,
    Saunders and Villard, "On efficient sparse integer matrix Smith normal
    form computations" (J. Symbolic Comput. 32, 2001), then over Z the core
    left without ±1 entries (`_core_phase`).  U and V are built from the
    recorded steps when first asked for (`SmithForm`).
    """
    g = M.ground
    rows = {}
    at = {j: set(col) for j, col in enumerate(M.columns)}
    for j, col in enumerate(M.columns):
        for i, x in col.items():
            rows.setdefault(i, {})[j] = x
    pivots, row_ops, col_ops = [], [], []
    _unit_phase(rows, at, g, pivots, row_ops, col_ops)
    core = _core_phase(rows, at, pivots, row_ops, col_ops)
    return SmithForm(M, [g.one] * (len(pivots) - len(core)) + core, pivots, row_ops, col_ops)


def factor(M: ExactMatrix) -> SmithForm:
    """Factor M once, on every ground ring: its `SmithForm`.

    Rank, cokernel and subquotients read the invariant factors alone;
    kernels and solves build U and V on first request.
    """
    return smith_normal_form(M)


def rank(M: ExactMatrix) -> int:
    return factor(M).rank


def kernel_basis(M: ExactMatrix):
    """A basis of {v : Mv = 0} as sparse vectors (a lattice basis over Z)."""
    return factor(M).kernel()


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
