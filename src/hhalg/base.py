"""Graded base rings and free graded modules.

A BaseRing is a ground ring, optionally extended by a single invertible
Laurent generator v of even positive degree.  Because v is invertible and
central, a homogeneous map between free graded modules is determined by one
ground-ring scalar per generator pair: the power of v on each entry is
forced by the degree bookkeeping.  HomogeneousMap therefore stores plain
ground scalars, and every kernel/cokernel question reduces to ground-ring
matrices per degree (or per residue class mod |v| when a Laurent generator
is present).
"""

from __future__ import annotations

from functools import cached_property

from .ground import GroundRing, Value
from .linalg import ExactMatrix, factor, subquotient
from .tables import BigradedTable, SubquotientPresentation


class LaurentGenerator(Value):
    _fields = ("name", "degree")

    def __init__(self, name: str, degree: int):
        self._init(name, degree)
        if self.degree <= 0 or self.degree % 2 != 0:
            raise ValueError(
                f"Laurent generator degree must be positive and even, got {self.degree}"
            )


class BaseRing(Value):
    """A ground ring, optionally with one invertible even-degree generator."""

    _fields = ("ground", "laurent")

    def __init__(self, ground: GroundRing, laurent: LaurentGenerator | None = None):
        self._init(ground, laurent)

    @property
    def period(self) -> int | None:
        return self.laurent.degree if self.laurent else None

    def degree_key(self, t: int) -> int:
        """Canonical slice key: t itself, or its residue mod |v|."""
        return t % self.period if self.laurent else t

    def compatible(self, src_degree: int, map_degree: int, tgt_degree: int) -> bool:
        """May a map of this degree carry src generator to tgt generator?"""
        gap = src_degree + map_degree - tgt_degree
        if self.laurent:
            return gap % self.period == 0
        return gap == 0

    def __str__(self):
        if self.laurent:
            return f"{self.ground}[{self.laurent.name}^±1; |{self.laurent.name}|={self.laurent.degree}]"
        return str(self.ground)


class GradedFreeModule(Value):
    """A finite-rank free graded module with named generators."""

    _fields = ("base", "generators")

    def __init__(self, base: BaseRing, generators):  # generators: (name, degree) pairs
        self._init(base, tuple((str(n), int(d)) for n, d in generators))

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def degrees(self):
        return [d for _, d in self.generators]

    @cached_property
    def _slices(self) -> dict:
        """Generator positions by slice key, ascending, built once.

        Not a field, so equality and hashing ignore it.
        """
        by_key = {}
        for i, (_, d) in enumerate(self.generators):
            by_key.setdefault(self.base.degree_key(d), []).append(i)
        return {k: tuple(v) for k, v in by_key.items()}

    def slice_indices(self, t: int):
        """Generator indices contributing to internal degree t, ascending."""
        return self._slices.get(self.base.degree_key(t), ())

    def degree_support(self):
        """Sorted canonical slice keys where this module is nonzero."""
        return sorted({self.base.degree_key(d) for _, d in self.generators})


class HomogeneousMap:
    """A degree-homogeneous map between free graded modules.

    entries[(i, j)] is the ground scalar carrying source generator j to
    target generator i, weighted by the implied power of the Laurent
    generator.  Entries are present only for degree-compatible pairs.

    The constructor is the store point: it normalizes every entry and drops
    the zeros, so add, scale, compose and the tensor and Hom of maps hand
    it plain sums and products.
    The entries are fixed once built (add, scale and compose return new
    maps), so the map keeps a per-source-column index {j: [(i, c), ...]},
    built once on first use, that apply_coords, compose, slice_matrix and
    algebra.check_action read instead of scanning every entry.  For the
    same reason it keeps each slice's factorization (`factored`).
    """

    __slots__ = ("source", "target", "degree", "entries", "_columns", "_factored")

    def __init__(self, source: GradedFreeModule, target: GradedFreeModule, degree: int, entries):
        if source.base != target.base:
            raise ValueError("source and target over different bases")
        self.source = source
        self.target = target
        self.degree = degree
        base = source.base
        g = base.ground
        clean = {}
        for (i, j), c in entries.items():
            c = g.normalize(c)
            if c == 0:
                continue
            if not base.compatible(source.generators[j][1], degree, target.generators[i][1]):
                raise ValueError(
                    f"entry ({i},{j}) violates degree homogeneity for a degree-{degree} map"
                )
            clean[(i, j)] = c
        self.entries = clean
        self._columns = None
        self._factored = {}

    def by_column(self) -> dict:
        """{source index j: [(target index i, scalar), ...]}, built once."""
        if self._columns is None:
            cols = {}
            for (i, j), c in self.entries.items():
                cols.setdefault(j, []).append((i, c))
            self._columns = cols
        return self._columns

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(source, target, degree):
        return HomogeneousMap(source, target, degree, {})

    @staticmethod
    def identity(module):
        return HomogeneousMap(
            module, module, 0, {(i, i): module.base.ground.one for i in range(module.rank)}
        )

    # -- algebra ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.entries

    def add(self, other: "HomogeneousMap") -> "HomogeneousMap":
        if (self.source, self.target, self.degree) != (other.source, other.target, other.degree):
            raise ValueError("map shape mismatch")
        out = dict(self.entries)
        for k, c in other.entries.items():
            out[k] = out.get(k, 0) + c
        return HomogeneousMap(self.source, self.target, self.degree, out)

    def scale(self, c) -> "HomogeneousMap":
        return HomogeneousMap(self.source, self.target, self.degree,
                              {k: c * v for k, v in self.entries.items()})

    def neg(self) -> "HomogeneousMap":
        return self.scale(-1)

    def compose(self, first: "HomogeneousMap") -> "HomogeneousMap":
        """self o first (apply `first`, then self)."""
        if first.target != self.source:
            raise ValueError("composition mismatch")
        out = {}
        columns = self.by_column()
        # one column of the composite at a time
        for j, col in first.by_column().items():
            acc = {}
            for k, c in col:
                for i, d in columns.get(k, ()):
                    acc[i] = acc.get(i, 0) + d * c
            for i, x in acc.items():
                out[(i, j)] = x
        return HomogeneousMap(first.source, self.target, self.degree + first.degree, out)

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousMap)
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def apply_coords(self, coeffs: dict) -> dict:
        """Apply to a coordinate dict {source index: scalar}."""
        columns = self.by_column()
        out = {}
        for j, x in coeffs.items():
            for i, c in columns.get(j, ()):
                out[i] = out.get(i, 0) + c * x
        return self.source.base.ground.canonical(out)

    # -- slicing ------------------------------------------------------
    def slice_matrix(self, t: int):
        """The ground matrix from degree-t source slice to degree-(t+deg) target slice.

        Returns (matrix, source_indices, target_indices).  Column a of the
        matrix is source generator source_indices[a], read off the column
        index, with its entries keyed by position in target_indices.
        """
        src = self.source.slice_indices(t)
        tgt = self.target.slice_indices(t + self.degree)
        pos = {i: r for r, i in enumerate(tgt)}
        by_column = self.by_column()
        columns = [{pos[i]: c for i, c in by_column.get(j, ())} for j in src]
        return ExactMatrix.from_columns(self.source.base.ground, len(tgt), columns), src, tgt

    def factored(self, t: int):
        """`factor` of the degree-t slice matrix, computed once per slice key."""
        key = self.source.base.degree_key(t)
        f = self._factored.get(key)
        if f is None:
            f = self._factored[key] = factor(self.slice_matrix(t)[0])
        return f

    def is_iso(self) -> bool:
        """Whether the map is bijective, slice by slice.

        Every source and target slice key is visited; a slice passes when
        its factorization has full column rank and a zero cokernel, so over
        Z its invariant factors must be units.
        """
        key = self.source.base.degree_key
        keys = ({key(d) for d in self.source.degrees}
                | {key(d - self.degree) for d in self.target.degrees})
        for t in sorted(keys):
            f = self.factored(t)
            if f.rank != f.matrix.cols or not f.cokernel().is_zero:
                return False
        return True

    def __repr__(self):
        return f"HomogeneousMap(deg={self.degree}, entries={self.entries})"


def slice_keys(module: GradedFreeModule, window):
    """The slice keys to visit on a module: every residue class over a
    Laurent base, otherwise the generator degrees inside the window."""
    base = module.base
    if base.laurent:
        return list(range(base.period))
    lo, hi = window
    return [t for t in sorted(set(module.degrees)) if lo <= t <= hi]


def cohomology_at(outgoing: HomogeneousMap, incoming: HomogeneousMap | None,
                  t: int) -> SubquotientPresentation:
    """ker(outgoing) / im(incoming) on the degree-t slice of outgoing.source.

    incoming is read on its slice t - incoming.degree, so a degree -1
    differential and a degree-0 cochain map are handled alike; None means
    there is no incoming map.  Because incoming.target is outgoing.source,
    both slices index the same generators in the same order.  Both slices
    come factored from their maps, so in a complex each slice is factored
    once: degree n's incoming map is degree n-1's outgoing map.
    """
    if incoming is None:
        return subquotient(outgoing.factored(t))
    if incoming.target != outgoing.source:
        raise ValueError("incoming map does not land in the source of the outgoing map")
    return subquotient(outgoing.factored(t), incoming.factored(t - incoming.degree))


def cohomology_table(maps, top: int, window) -> BigradedTable:
    """Cohomology of the cochain complex maps[0], maps[1], ... keyed (n, t).

    Degree n is ker(maps[n]) / im(maps[n - 1]) for n = 0..top; maps[top]
    must exist, so the top reported degree has its outgoing map.  The maps
    are degree-0 cochain maps built for this table: it runs slice key by
    slice key, setting every degree, then drops that key's factorizations,
    so only one key's factorizations are held at a time.
    """
    table = BigradedTable()
    keys = [set(slice_keys(maps[n].source, window)) for n in range(top + 1)]
    for key in sorted(set().union(*keys)):
        for n in range(top + 1):
            if key in keys[n]:
                table.set(n, key, cohomology_at(maps[n], maps[n - 1] if n else None, key))
        for m in maps[:top + 1]:
            m._factored.pop(key, None)
    return table


def tensor_module(M: GradedFreeModule, N: GradedFreeModule) -> GradedFreeModule:
    """M (x) N: the pair (i, j) is generator i * rank(N) + j, named "m|n"."""
    if M.base != N.base:
        raise ValueError("modules over different bases")
    return GradedFreeModule(M.base, tuple(
        (f"{mn}|{nn}", md + nd) for mn, md in M.generators for nn, nd in N.generators))


def tensor_maps(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    """f (x) g, sending x (x) y to (-1)^{|g||x|} f(x) (x) g(y).

    This is the one place the Koszul sign of a tensor of maps is written.
    """
    source = tensor_module(f.source, g.source)
    target = tensor_module(f.target, g.target)
    n_src, n_tgt = g.source.rank, g.target.rank
    gens, odd = f.source.generators, g.degree % 2
    entries = {}
    for (k, i), c in f.entries.items():
        sign = odd and gens[i][1] % 2
        for (l, j), d in g.entries.items():
            entries[(k * n_tgt + l, i * n_src + j)] = -c * d if sign else c * d
    return HomogeneousMap(source, target, f.degree + g.degree, entries)


def graded_hom_module(M: GradedFreeModule, N: GradedFreeModule, degree: int = 0) -> GradedFreeModule:
    """The free module of homomorphisms M -> N, shifted by `degree`.

    One generator per generator pair; the pair (i -> j) sits in degree
    deg(N_j) - deg(M_i) + degree.
    """
    if M.base != N.base:
        raise ValueError("modules over different bases")
    gens = []
    for i, (mn, md) in enumerate(M.generators):
        for j, (nn, nd) in enumerate(N.generators):
            gens.append((f"[{mn}->{nn}]", nd - md + degree))
    return GradedFreeModule(M.base, tuple(gens))


def hom_pair_index(M: GradedFreeModule, N: GradedFreeModule, i: int, j: int) -> int:
    """Index of the generator (M_i -> N_j) inside graded_hom_module(M, N)."""
    return i * N.rank + j


def hom_maps(f: HomogeneousMap, g: HomogeneousMap) -> HomogeneousMap:
    """Hom(f, g), sending phi to (-1)^{|f|(|phi|+|g|)} g o phi o f.

    It maps Hom(f.target, g.source) to Hom(f.source, g.target), both in
    graded_hom_module coordinates.  This is the one place the Koszul sign
    of a Hom of maps is written.
    """
    source = graded_hom_module(f.target, g.source)
    target = graded_hom_module(f.source, g.target)
    n_src, n_tgt = g.source.rank, g.target.rank
    gens, odd = source.generators, f.degree % 2
    entries = {}
    for (i, k), c in f.entries.items():
        for (l, j), d in g.entries.items():
            phi = i * n_src + j
            sign = odd and (gens[phi][1] + g.degree) % 2
            entries[(k * n_tgt + l, phi)] = -d * c if sign else d * c
    return HomogeneousMap(source, target, f.degree + g.degree, entries)
