"""Modules, free resolutions and bigraded Ext tables over graded algebras.

AModule is the one class of finite modules: left or right modules, and
through the enveloping algebra bimodules (hochschild) and Morita data
(morita).  Its axioms are checked by the one action check,
algebra.check_action.  FreeAModule is a free module given by its generator
degrees, the stages of a resolution; it answers `module` and `act_map` like
an AModule, so a generator chooser takes either.  An AModuleMap out of it
is stored as its generator images; `flatten` is the one A-linear extension.

A minimal resolution acts through the algebra's generating monomials
alone.  Every monomial is e_m = c^-1 s e_k for a generator s and a monomial
k reached before it (GradedAlgebra.generation_steps), so in any left module
e_m . v = c^-1 s . (e_k . v): `flatten` builds the column of e_m . g_j from
that of e_k . g_j this way, and `_minimal_generators` spans I*K by the s . K,
which is exact because each stage kernel K is taken on every slice the
stage reaches, a whole A-submodule, so e_k . v never leaves K.  A
FreeAModule therefore builds an act map only when asked for it: the
generators' in a minimal resolution, every monomial's in the greedy one,
which spans whole orbits.

One resolution loop, _resolve, covers a module and then each stage kernel;
the two builders differ only in how they choose each cover's generators:

  * minimal_resolution: the trivial module of an augmented algebra with
    nilpotent augmentation ideal, by _minimal_generators (a complement of
    I*K in each kernel K), so Ext reads off generator counts.
  * free_resolution: any finite left module, by the seeded
    _greedy_generators, which keep stage ranks small; Ext and completion
    data are then the cohomology of the dualized complex.

A window is not a parameter of a resolution: a stage is a finite free
module over a finite-dimensional algebra, so it has finitely many slices,
and the tables (ext_table, ext_with_coefficients) only choose which of
them they report.

Bidegree convention: the Ext class dual to a stage-s generator of internal
degree t is recorded at (s, t).
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cached_property

from .algebra import GradedAlgebra, check_action, ideal_closure, quotient_by_ideal, radical
from .base import (GradedFreeModule, HomogeneousMap, cohomology_at, cohomology_table,
                   graded_hom_module, hom_pair_index)
from .ground import BudgetExceededError, InvariantError, Record, Value
from .linalg import Echelon
from .tables import BigradedTable, SubquotientPresentation


class ResolutionError(ValueError):
    pass


# random in-slice combinations tried per slice and round of the greedy choice
GREEDY_TRIALS = 6


# ---------------------------------------------------------------------------
# free modules over an algebra


class FreeAModule(Value):
    """Free left module over a GradedAlgebra with generators in given degrees.

    Like an AModule it has `module` (here the flattened module) and
    `act_map(m)`, so a generator chooser takes either.  The module is built
    once, and each act map on its first request, and both are kept in the
    instance dict, past the frozen `__setattr__`; equality and hashing read
    the two fields alone.  Building act maps on request is what lets a
    minimal resolution, which reads the generators' only (see the module
    docstring), skip the other rank(A) - |generators| maps per stage.
    """

    _fields = ("algebra", "gen_degrees")

    def __init__(self, algebra: GradedAlgebra, gen_degrees: tuple):
        self._init(algebra, gen_degrees)

    @property
    def rank(self):
        return len(self.gen_degrees)

    @cached_property
    def module(self) -> GradedFreeModule:
        """Ground-level free module: one generator per (module gen, monomial)."""
        A = self.algebra
        gens = []
        for i, t in enumerate(self.gen_degrees):
            for mname, md in A.monomials:
                gens.append((f"g{i}.{mname}", t + md))
        return GradedFreeModule(A.base, tuple(gens))

    def flat_index(self, i, m):
        return i * self.algebra.rank + m

    @cached_property
    def _acts(self) -> dict:
        return {}  # monomial -> its act map, filled by act_map

    def act_map(self, m) -> HomogeneousMap:
        """Left multiplication by basis monomial m on the flattened module."""
        act = self._acts.get(m)
        if act is None:
            A = self.algebra
            act = self._acts[m] = HomogeneousMap(self.module, self.module, A.degree(m), {
                (self.flat_index(i, k), self.flat_index(i, m2)): c
                for i in range(self.rank) for m2 in range(A.rank)
                for k, c in A.mul_basis(m, m2).items()})
        return act


class AModuleMap:
    """A-linear map from a free A-module, stored as its generator images.

    images[j] is generator j's image on target.module (a FreeAModule's, or an
    AModule's for a module's cover), stored through GroundRing.canonical.
    `flatten` is the one A-linear extension, m . g_j |-> m . images[j].
    """

    def __init__(self, source: FreeAModule, target: FreeAModule | AModule, images, degree=0):
        self.source = source
        self.target = target
        self.degree = degree
        canonical = source.algebra.base.ground.canonical
        self.images = [canonical(v) for v in images]
        self._flat = None

    def flatten(self) -> HomogeneousMap:
        """The map on flattened modules, built once and kept with its slice factorizations.

        Column (j, unit) is images[j], and each step (m, s, k, c) of
        A.generation_steps() gives column (j, m) as c^-1 act_map(s) applied
        to column (j, k), so only the generators' act maps are read.  This
        is exact: s e_k = c e_m, so e_m . v = c^-1 s . (e_k . v) in any left
        module, and the steps reach every monomial from one reached before.
        """
        if self._flat is None:
            src, tgt = self.source, self.target
            A = src.algebra
            g = A.base.ground
            columns = {A.unit_index: self.images}  # monomial m -> the columns (j, m)
            for m, s, k, c in A.generation_steps():
                act, inv = tgt.act_map(s), g.inv(c)
                columns[m] = cols = []
                for col in columns[k]:
                    if col and inv != 1:
                        col = {i: inv * x for i, x in col.items()}
                    cols.append(act.apply_coords(col) if col else {})
            self._flat = HomogeneousMap(src.module, tgt.module, self.degree, {
                (i, src.flat_index(j, m)): x for m, cols in columns.items()
                for j, col in enumerate(cols) for i, x in col.items()})
        return self._flat


class AModule:
    """A finite left or right module over a GradedAlgebra.

    action maps monomial indices to HomogeneousMaps on the ground module
    (absent monomials act by zero); unitality and associativity are
    checked by algebra.check_action unless check=False.  A bimodule is a
    left module over tensor(A, opposite(A)) (see hochschild.bimodule).
    """

    def __init__(self, algebra: GradedAlgebra, module: GradedFreeModule, action,
                 side: str = "left", check: bool = True):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.module = module
        self.action = dict(action)  # monomial index -> HomogeneousMap
        self.side = side
        if check:
            check_action(algebra, module, self.action, side)

    def act_map(self, m) -> HomogeneousMap:
        if m in self.action:
            return self.action[m]
        return HomogeneousMap.zero(self.module, self.module, self.algebra.degree(m))

    def action_map(self) -> HomogeneousMap:
        """The degree-0 map algebra -> Hom(M, M) sending e_i to its action."""
        M = self.module
        entries = {}
        for src, hm in self.action.items():
            for (k, m), c in hm.entries.items():
                entries[(hom_pair_index(M, M, m, k), src)] = c
        return HomogeneousMap(self.algebra.module, graded_hom_module(M, M), 0, entries)

    @staticmethod
    def regular(algebra: GradedAlgebra, side: str = "left") -> "AModule":
        mult = algebra.left_mult if side == "left" else algebra.right_mult
        act = {m: mult(m) for m in range(algebra.rank)}
        return AModule(algebra, algebra.module, act, side, check=False)

    @staticmethod
    def trivial(algebra: GradedAlgebra, side: str = "left") -> "AModule":
        """The augmentation module: rank 1, non-unit monomials act by zero."""
        M = GradedFreeModule(algebra.base, (("k", 0),))
        act = {algebra.unit_index: HomogeneousMap.identity(M)}
        return AModule(algebra, M, act, side, check=False)


# ---------------------------------------------------------------------------
# resolutions


class Resolution(Record):
    """Stages F_0 <- F_1 <- ... with maps[s] = d_{s+1}: F_{s+1} -> F_s.

    Any resolution gives Ext through hom_cochains.
    """

    _fields = ("algebra", "stages", "maps")

    def __init__(self, algebra: GradedAlgebra, stages: list, maps: list):
        self.algebra, self.stages, self.maps = algebra, stages, maps


def _flat_kernel(fmap: HomogeneousMap):
    """Homogeneous kernel vectors of a degree-0 flattened map, with degrees,
    on every slice of its source."""
    out = []
    for key in fmap.source.degree_support():
        src_idx = fmap.source.slice_indices(key)
        for v in fmap.factored(key).kernel():
            vec = {src_idx[a]: c for a, c in v.items()}
            deg = min(fmap.source.generators[i][1] for i in vec)
            out.append((deg, vec))
    return out


def _resolve(A: GradedAlgebra, M: AModule, s_max, choose) -> Resolution:
    """The one stage loop: cover M, then the kernel of each stage map.

    choose(target, vectors) picks generators (degree, vector) of the
    A-submodule of target (M or a stage) spanned by the homogeneous vectors:
    M's generators, then each stage kernel, whole.  No kernel follows the
    last stage.
    """

    def cover(target, vectors) -> AModuleMap:
        chosen = choose(target, vectors)
        return AModuleMap(FreeAModule(A, tuple(d for d, _ in chosen)), target,
                          [vec for _, vec in chosen])

    g = A.base.ground
    covers = [cover(M, [(d, {i: g.one}) for i, (_, d) in enumerate(M.module.generators)])]
    for _ in range(s_max):
        covers.append(cover(covers[-1].source, _flat_kernel(covers[-1].flatten())))
    return Resolution(A, [d.source for d in covers], covers[1:])


def _augmentation_checks(A: GradedAlgebra):
    """ResolutionError unless I, the span of the non-unit monomials, is a nilpotent
    ideal.  Both tests multiply by the generating monomials s alone: along
    A.generation_steps(), e_m . I = c^-1 s . (e_k . I) lies in I when every s . I
    does, from e_unit . I = I on; and I^{k+1} = I . I^k is the sum of the s . I^k,
    as e_m x = c^-1 s (e_k x) with e_k x in I^k."""
    g = A.base.ground
    u = A.unit_index
    nonunit = [m for m in range(A.rank) if m != u]
    for s in A.generating_monomials:
        for j in nonunit:
            if u in A.mul_basis(s, j):
                raise ResolutionError(
                    "algebra is not augmented: product of ideal elements hits the unit"
                )
    # nilpotency of the augmentation ideal
    current = [{m: g.one} for m in nonunit]
    for _ in range(A.rank + 1):
        if not current:
            return
        nxt = []
        step = Echelon(g)
        for x in current:
            for s in A.generating_monomials:
                y = A.mul_coords({s: g.one}, x)
                if y and step.add(y):
                    nxt.append(y)
        current = nxt
    if current:
        raise ResolutionError("augmentation ideal is not nilpotent")


def minimal_resolution(A: GradedAlgebra, s_max: int = 8) -> Resolution:
    """Minimal resolution of the trivial module over an augmented algebra."""
    if not A.base.ground.is_field:
        raise ResolutionError("resolutions require a field ground")
    _augmentation_checks(A)
    res = _resolve(A, AModule.trivial(A), s_max, _minimal_generators)
    _audit(res)
    return res


def _minimal_generators(target, vectors):
    """Complement of I*K inside K: the minimal generators of the span K.

    K is a whole A-submodule (the vectors span it on every slice), and I*K
    is spanned by s . K for s in A.generating_monomials: each monomial is
    e_m = c^-1 s e_k, so e_m . v = c^-1 s . (e_k . v) with e_k . v in K.
    """
    A = target.algebra
    span = Echelon(A.base.ground)
    if vectors:
        for s in A.generating_monomials:
            act = target.act_map(s)
            for _, vec in vectors:
                span.add(act.apply_coords(vec))
    gens = target.module.generators
    chosen = []
    for _, vec in sorted(vectors, key=lambda t: (t[0], sorted(t[1]))):
        r = span.reduce(vec)
        if r:
            span.add(r)
            chosen.append((min(gens[i][1] for i in r), r))
    return chosen


def free_resolution(A: GradedAlgebra, M: AModule, s_max: int = 8, seed: int = 0) -> Resolution:
    """Resolution of M by free modules, greedy small stage ranks (seeded)."""
    if not A.base.ground.is_field:
        raise ResolutionError("resolutions require a field ground")
    if M.side != "left":
        raise ValueError("free_resolution takes a left module")
    rng = random.Random(seed)
    return _resolve(A, M, s_max,
                    lambda target, vectors: _greedy_generators(A, target, vectors, rng))


def _greedy_generators(A: GradedAlgebra, target, vectors, rng):
    """Pick generators whose A-spans fill the span of the given vectors.

    The vectors must be linearly independent and span K, an A-submodule:
    `_resolve` passes a module's generators or `_flat_kernel`'s per-slice
    kernel bases on every slice of a stage.  An orbit's parts in slices
    holding no input vector lie in K there, so they are zero and are not
    computed, and the span is counted slice by slice: the loop ends when
    every slice holds as many span rows as input vectors.  A dependent
    input never fills its slice and ends in "generator selection stalled".

    Candidates are, per degree, the first vector not yet in the span plus
    GREEDY_TRIALS seeded random combinations of those not in it; each round
    keeps the first candidate adding the largest A-span, which keeps stage
    ranks near-minimal in practice.  The work is done on normal forms modulo
    the span, each vector reduced once per round.  This is exact:

      (a) a reduced echelon's normal form is the unique vector of v + span
          zero at every pivot, so reducing last round's residue gives this
          round's, and reduce only visits the new pivots in its support;
      (b) the span is a sum of A-orbits, a graded A-submodule, so the
          orbit of v modulo it is the orbit of v's residue;
      (c) the residue of a combination is the same combination of residues:
          the coefficients are drawn as for the vectors, and the combination
          of the vectors themselves is built for the winner only (a zero
          combination adds nothing, while the first candidate adds at
          least its own residue, so a zero combination cannot win);
      (d) a subspace has one reduced echelon, so adding the winner's orbit
          residues gives the rows its raw orbit would;
      (e) a degree-d residue's orbit lies in the slices t = key(d + |m|),
          inside K_t, so it adds at most sum_t min(#{m landing in t},
          dim K_t - span rows in t); a candidate whose bound is at most the
          best gain so far cannot be the first with the largest gain, and
          is skipped (its coefficients are drawn all the same, so the rng
          ends where it would).  Orbit parts in full slices are zero and
          are not computed.
    """
    g = A.base.ground
    key = A.base.degree_key
    room = {}  # slice key -> input vectors there minus span rows there
    by_deg = {}  # degree -> [(vector, residue)] for the vectors not in the span
    for deg, vec in sorted(vectors, key=lambda t: (t[0], sorted(t[1]))):
        by_deg.setdefault(deg, []).append((vec, vec))
        room[key(deg)] = room.get(key(deg), 0) + 1
    actions = [target.act_map(m) for m in range(A.rank)]
    # per degree, the orbit's (slice, action) pairs that land on input
    # slices, and how many land on each
    lands = {deg: [(t, act) for m, act in enumerate(actions)
                   if (t := key(deg + A.degree(m))) in room] for deg in by_deg}
    landing = {deg: Counter(t for t, _ in pairs) for deg, pairs in lands.items()}
    span = Echelon(g)
    chosen = []
    while any(room.values()):
        candidates = []  # (degree, live pairs, coefficients or None)
        bound = {}  # degree -> the most rank a residue of that degree adds, (e)
        for deg, pairs in by_deg.items():
            pairs = by_deg[deg] = [(v, r) for v, r in
                                   ((v, span.reduce(r)) for v, r in pairs) if r]
            if pairs:
                candidates.append((deg, pairs, None))
                bound[deg] = sum(min(n, room[t]) for t, n in landing[deg].items())
        for deg, pairs in by_deg.items():
            if len(pairs) > 1:
                for _ in range(GREEDY_TRIALS):
                    cs = [rng.randrange(g.p) if g.kind == "Fp" else rng.randint(0, 1)
                          for _ in pairs]
                    candidates.append((deg, pairs, cs))
        best = None
        for deg, pairs, cs in candidates:
            if best is not None and bound[deg] <= best[0]:
                continue
            residue = pairs[0][1] if cs is None else _combination(g, [r for _, r in pairs], cs)
            # the orbit's residues on slices not yet full, and the rank they add
            orbit = [(t, span.reduce(act.apply_coords(residue)))
                     for t, act in lands[deg] if room[t]]
            fresh = Echelon(g)
            gained = sum(fresh.add(w) for _, w in orbit)
            if best is None or gained > best[0]:
                best = (gained, orbit, pairs, cs)
        if best is None:
            raise ResolutionError("generator selection stalled")
        _, orbit, pairs, cs = best
        for t, w in orbit:
            room[t] -= span.add(w)
        vec = pairs[0][0] if cs is None else _combination(g, [v for v, _ in pairs], cs)
        gen_deg = min(target.module.generators[i][1] for i in vec)
        chosen.append((gen_deg, vec))
    return chosen


def _combination(g, vecs, coeffs) -> dict:
    """sum c * v over the vectors, reduced once at the end."""
    out = {}
    for v, c in zip(vecs, coeffs):
        if c:
            for i, x in v.items():
                out[i] = out.get(i, 0) + c * x
    return g.canonical(out)


def _audit(res: Resolution):
    """Hard exactness and minimality checks on a minimal resolution: exact
    at every stage on every slice, at F_0 too (ker of the augmentation is
    im d_1)."""
    A = res.algebra
    u = A.unit_index
    for d in res.maps:
        if any(idx % A.rank == u for image in d.images for idx in image):
            raise ResolutionError("resolution is not minimal: unit entry in d")
    # the augmentation F_0 -> k, then flats[s + 1]: F_{s+1} -> F_s
    F0, k = res.stages[0], AModule.trivial(A).module
    flats = [HomogeneousMap(F0.module, k, 0, {(0, F0.flat_index(0, u)): A.base.ground.one})]
    flats += [d.flatten() for d in res.maps]
    for s, (outer, inner) in enumerate(zip(flats, flats[1:])):
        for key in outer.source.degree_support():
            if not cohomology_at(outer, inner, key).is_zero:
                raise ResolutionError(f"exactness fails at stage {s}, slice {key}")


# ---------------------------------------------------------------------------
# Ext tables


def ext_table(A: GradedAlgebra, s_max: int = 8, t_window=(-16, 16)) -> BigradedTable:
    """Ext_A(k, k) as generator counts of the minimal resolution, reported
    in the internal degrees lo <= t <= hi of the window (all over a Laurent
    base)."""
    res = minimal_resolution(A, s_max)
    lo, hi = t_window
    table = BigradedTable()
    for s, st in enumerate(res.stages):
        counts = Counter(t for t in st.gen_degrees if A.base.laurent or lo <= t <= hi)
        for t, n in counts.items():
            table.set(s, t, SubquotientPresentation(n, ()))
    return table


def hom_cochains(res: Resolution, N: AModule):
    """Hom_A(F_*, N): its terms, and its differentials d_s^* dual to res.maps.

    Term s has one generator per (stage generator, N generator); the
    functional dual to a stage generator of internal degree t, valued on
    the degree-d generator of N, sits in degree t - d, so trivial
    coefficients land the class at (s, t).  N must be a left module.
    """
    if N.side != "left":
        raise ValueError("hom_cochains takes a left module")
    base = res.algebra.base
    terms = [GradedFreeModule(base, tuple(
        (f"h{i}.{name}", t - d) for i, t in enumerate(st.gen_degrees)
        for name, d in N.module.generators)) for st in res.stages]
    nN, r = N.module.rank, res.algebra.rank
    acts = [N.act_map(m).entries for m in range(r)]
    maps = []
    for s, dmap in enumerate(res.maps):
        entries = {}
        for j, image in enumerate(dmap.images):
            for idx, c in image.items():
                i, m = divmod(idx, r)
                for (a, b), v in acts[m].items():
                    key = (j * nN + a, i * nN + b)
                    entries[key] = entries.get(key, 0) + c * v
        maps.append(HomogeneousMap(terms[s], terms[s + 1], 0, entries))
    return terms, maps


def ext_with_coefficients(res: Resolution, N: AModule, window=(-16, 16)) -> BigradedTable:
    """Cohomology of Hom_A(F_*, N) (hom_cochains) per (s, t).

    Works for any resolution; derived_hom, behind the completion tables
    and the enveloping-algebra path, reads its free resolutions with it.
    A resolution with no map would report no degree, an empty table that
    reads as zero, and raises BudgetExceededError instead.
    """
    if not res.maps:
        raise BudgetExceededError("derived Hom needs s_max >= 1 to report degree 0, "
                                  f"got {len(res.stages) - 1}")
    _, maps = hom_cochains(res, N)
    # the top stage has no outgoing differential, so its kernel would be
    # overcounted; report strictly below it
    return cohomology_table(maps, len(maps) - 1, window)


def derived_hom(E: AModule, Y: AModule, window, s_max: int, seed: int = 0) -> BigradedTable:
    """Derived Hom(E, Y) over E's algebra, for left modules: the seeded
    free_resolution of E through stage s_max, read by ext_with_coefficients
    over the window in degrees 0..s_max - 1, so s_max >= 1.
    """
    if Y.side != "left":
        raise ValueError("derived Hom takes left modules")
    res = free_resolution(E.algebra, E, s_max=s_max, seed=seed)
    return ext_with_coefficients(res, Y, window)


# ---------------------------------------------------------------------------
# base change


def ext_base_change(A: GradedAlgebra, S: GradedAlgebra, inclusion: HomogeneousMap,
                    s_max: int = 8, t_window=(-16, 16)) -> BigradedTable:
    """Ext of the base-changed algebra A (x)_S k, computed and cross-checked.

    S must be semisimple and A free over S (verified by dimension count).
    The quotient of A by the two-sided ideal of S's augmentation ideal is
    built explicitly; its Ext table is computed via the minimal resolution
    and cross-checked against derived_hom(k, k) with seed 1, the cohomology
    of a non-minimal resolution.
    """
    g = A.base.ground
    if radical(S):
        raise ResolutionError("base change requires a semisimple subalgebra")
    Q = quotient_by_ideal(A, ideal_closure(A, [
        inclusion.apply_coords({m: g.one}) for m in range(S.rank) if m != S.unit_index]))
    if Q.rank * S.rank != A.rank:
        raise ResolutionError(
            f"A is not free over S: {A.rank} != {S.rank} * {Q.rank}"
        )
    table = ext_table(Q, s_max, t_window)
    k = AModule.trivial(Q)
    other = derived_hom(k, k, t_window, s_max, seed=1)
    # the non-minimal table stops below its top stage, which has no
    # outgoing differential
    key = Q.base.degree_key
    if table.by_slice(key, s_max - 1) != other.by_slice(key, s_max - 1):
        raise ResolutionError("base change cross-check failed")
    return table


# ---------------------------------------------------------------------------
# Yoneda squares


def yoneda_square(res: Resolution, cls: dict, t: int) -> dict:
    """Square of an Ext^1 class in the table basis.

    cls maps stage-1 generator indices (of internal degree t) to scalars;
    the result maps stage-2 generator indices (degree 2t) to scalars.  It
    reads the lift f2 (d1 f2 = f1 d2) on the stage-2 generators alone.
    """
    if len(res.stages) < 3:
        raise ValueError("need s_max >= 2 stages for a Yoneda square")
    A = res.algebra
    g, u = A.base.ground, A.unit_index
    F0, F1 = res.stages[0], res.stages[1]
    d1f = res.maps[0].flatten()
    # f1 with augmentation(f1(g_j)) = cls[j]; internal degree -t
    f1 = AModuleMap(F1, F0, [{F0.flat_index(0, u): cls[j]} if j in cls else {}
                             for j in range(F1.rank)], degree=-t).flatten()
    out = {}
    for jj, (image, deg) in enumerate(zip(res.maps[1].images, res.stages[2].gen_degrees)):
        # solve d1 x = f1(d2(g_jj)) in the degree deg - t slices
        pos = {i: r for r, i in enumerate(d1f.target.slice_indices(deg - t))}
        x = d1f.factored(deg - t).solve({pos[i]: c for i, c in f1.apply_coords(image).items()})
        if x is None:
            raise InvariantError("cocycle lift failed on an exact resolution")
        src_idx = d1f.source.slice_indices(deg - t)
        for r, v in x.items():
            i, m = divmod(src_idx[r], A.rank)
            if m == u and i in cls:
                out[jj] = out.get(jj, 0) + cls[i] * v
    return g.canonical(out)
