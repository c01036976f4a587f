"""Finite-window Morita machinery: F, G, completion, and round-trips.

The setting is a MoritaContext (R, A, E), built from E_R and E_A: E as a
left R-module and as a left A-module on the same generators, with
commuting actions (the bimodule of the Morita pair), as a definition's
morita task names them (defs.parse_definition checks the task).  Every module here,
E included, is a resolve.AModule tagged left or right.  F sends a right
R-module X to the left A-module X (x)_R E; G sends a left A-module Y to
the derived Hom_A(E, Y); the completion of X is G(F(X)).  T and S are the
same pair with the roles of R and A swapped: F and T share one balanced
tensor, _tensor_E, and G and S are resolve.derived_hom, the one derived
Hom, which raises BudgetExceededError when s_max < 1.  G, S and the
completion are plain BigradedTables of homology over an explicit window;
completion_matches compares one with its module over an explicit range.

For semisimple A the derived Hom collapses to the plain one, and the plain
kit is the adjunction's maps: the unit eta: X -> G(F X) and the counit
epsilon: F(G Y) -> Y are HomogeneousMaps, F on maps reduces tensor_maps on
the balanced pairs, and G on maps reads g o z in the target's hom basis.
The retract and triangle identities then compare composites with the
identity, exactly rather than at the level of ranks.
"""

from __future__ import annotations

from .algebra import GradedAlgebra, radical
from .base import (GradedFreeModule, HomogeneousMap, graded_hom_module, hom_maps, hom_pair_index,
                   tensor_maps)
from .linalg import Echelon, ExactMatrix, kernel_basis
from .resolve import AModule, derived_hom
from .tables import BigradedTable


class MoritaContext:
    """The bimodule datum: E a left R-module and a left A-module, commuting.

    Built from the two checked left modules E_R and E_A on the same
    generators; R, A and E are read off them.
    """

    def __init__(self, E_R: AModule, E_A: AModule):
        if E_R.module.generators != E_A.module.generators:
            raise ValueError("E_R and E_A must present the same underlying module")
        if E_R.side != "left" or E_A.side != "left":
            raise ValueError("a Morita context takes E as a left R- and A-module")
        for r, fr in E_R.action.items():
            for a, fa in E_A.action.items():
                if fr.compose(fa) != fa.compose(fr):
                    raise ValueError(f"R and A actions fail to commute on ({r},{a})")
        self.E_R, self.E_A = E_R, E_A
        self.R, self.A, self.E = E_R.algebra, E_A.algebra, E_R.module


# ---------------------------------------------------------------------------
# balanced tensor over a field ground


class BalancedTensor:
    """X (x)_S E for a right S-module X and a left S-action on E.

    Pair coordinates (i, j) = i * rank(E) + j are echelon-reduced modulo
    the balancing relations (x.s (x) e) - (x (x) s.e); the surviving
    non-pivot pairs form the basis of the quotient.
    """

    def __init__(self, X: AModule, E: GradedFreeModule, s_action_on_E):
        S = X.algebra
        g = S.base.ground
        if not g.is_field:
            raise ValueError("balanced tensor requires a field ground")
        if X.side != "right":
            raise ValueError("tensor takes a right module on the left")
        self.X = X
        self.E = E
        nE = E.rank
        span = Echelon(g)
        for m in range(S.rank):
            if m == S.unit_index:
                continue
            rho = X.act_map(m)
            lam = s_action_on_E.get(m)
            for i in range(X.module.rank):
                for j in range(nE):
                    rel = {i2 * nE + j: c for i2, c in rho.apply_coords({i: g.one}).items()}
                    if lam is not None:
                        for j2, c in lam.apply_coords({j: g.one}).items():
                            rel[i * nE + j2] = rel.get(i * nE + j2, 0) - c
                    span.add(g.canonical(rel))
        self.span = span
        self.kept = [
            p for p in range(X.module.rank * nE) if p not in span.rows
        ]
        self.position = {p: a for a, p in enumerate(self.kept)}
        gens = []
        for p in self.kept:
            i, j = divmod(p, nE)
            gens.append((
                f"{X.module.generators[i][0]}*{E.generators[j][0]}",
                X.module.generators[i][1] + E.generators[j][1],
            ))
        self.module = GradedFreeModule(S.base, tuple(gens))

    def reduce(self, pairvec: dict) -> dict:
        """Class of a pair-coordinate vector, in kept-basis coordinates."""
        r = self.span.reduce(pairvec)
        return {self.position[p]: c for p, c in r.items()}

    def induced(self, f: HomogeneousMap, g: HomogeneousMap,
                target: "BalancedTensor") -> HomogeneousMap:
        """f (x) g on the quotients: tensor_maps(f, g) on each kept pair,
        reduced in `target`."""
        columns = tensor_maps(f, g).by_column()
        return HomogeneousMap(self.module, target.module, f.degree + g.degree, {
            (pos2, pos): c for pos, p in enumerate(self.kept)
            for pos2, c in target.reduce(dict(columns.get(p, ()))).items()})


def _tensor_E(X: AModule, over: AModule, acting: AModule) -> AModule:
    """X (x)_S E for a right S-module X, where `over` is E as an S-module.

    The result is a left module over the algebra of `acting`: a acts as
    tensor_maps(1, a), with the Koszul sign (-1)^{|a||x|}, on the pairs
    x (x) e, which are then reduced to the kept basis.
    """
    B = acting.algebra
    T = BalancedTensor(X, over.module, over.action)
    one_X = HomogeneousMap.identity(X.module)
    action = {}
    for a in range(B.rank):
        hm = T.induced(one_X, acting.act_map(a), T)
        if not hm.is_zero():
            action[a] = hm
    out = AModule(B, T.module, action)
    out.tensor = T
    return out


def functor_F(ctx: MoritaContext, X: AModule) -> AModule:
    """X (x)_R E as a left A-module."""
    return _tensor_E(X, ctx.E_R, ctx.E_A)


def functor_G(ctx: MoritaContext, Y: AModule, window=(-16, 16),
              s_max: int = 8) -> BigradedTable:
    """G(Y) = derived Hom_A(E, Y) for a left A-module Y."""
    return derived_hom(ctx.E_A, Y, window, s_max)


def completion(ctx: MoritaContext, M: AModule, window=(-16, 16),
               s_max: int = 8) -> BigradedTable:
    """The completion G(F(M)) of a right R-module M."""
    return functor_G(ctx, functor_F(ctx, M), window, s_max)


# ---------------------------------------------------------------------------
# table utilities


def collapsed_ranks(table: BigradedTable) -> dict:
    """Total rank per internal degree; the class at (s, t) sits in degree -t."""
    out = {}
    for (_, t), p in table.entries.items():
        out[-t] = out.get(-t, 0) + p.free_rank
    return {d: r for d, r in out.items() if r}


def degree_ranks(module: GradedFreeModule, lo=None, hi=None) -> dict:
    out = {}
    for d in module.degrees:
        if (lo is None or d >= lo) and (hi is None or d <= hi):
            out[d] = out.get(d, 0) + 1
    return out


def completion_matches(table: BigradedTable, M: GradedFreeModule, compare) -> bool:
    """Whether a completion table of M has M's collapsed degree ranks: the
    in-window test that the canonical map M -> G(F(M)) is an equivalence.

    Compared over the explicit range `compare`; nothing is claimed outside it.
    """
    lo, hi = compare
    got = {d: r for d, r in collapsed_ranks(table).items() if lo <= d <= hi}
    return got == degree_ranks(M, lo, hi)


# ---------------------------------------------------------------------------
# the plain (underived) kit, for semisimple A


class HomBasis:
    """A basis of maps E -> Y, kept as vectors of graded_hom_module(E, Y).

    `module` is free on the basis maps `maps`, each generator in its map's
    degree, and `pairs` carries a generator to its map's generator-pair
    vector.  Reading a map in the basis solves against the slice
    factorizations of `pairs`, each made once per slice key.
    """

    def __init__(self, E: GradedFreeModule, Y: GradedFreeModule, maps):
        self.maps = list(maps)
        self.module = GradedFreeModule(
            E.base, tuple((f"w{a}", z.degree) for a, z in enumerate(self.maps)))
        self.pairs = HomogeneousMap(self.module, graded_hom_module(E, Y), 0, {
            (hom_pair_index(E, Y, i, j), a): c
            for a, z in enumerate(self.maps) for (j, i), c in z.entries.items()})

    def coords(self, z: HomogeneousMap) -> dict:
        """{a: c} with z the sum of c * maps[a]; ValueError off the span."""
        pairs = self.pairs
        position = {p: r for r, p in enumerate(pairs.target.slice_indices(z.degree))}
        x = pairs.factored(z.degree).solve({
            position[hom_pair_index(z.source, z.target, i, j)]: c
            for (j, i), c in z.entries.items()})
        if x is None:
            raise ValueError("map does not lie in the hom module")
        basis = pairs.source.slice_indices(z.degree)
        return {basis[r]: c for r, c in x.items()}

    def read(self, source: GradedFreeModule, degree: int, images) -> HomogeneousMap:
        """The map source -> module whose column i is images[i] in the basis."""
        return HomogeneousMap(source, self.module, degree, {
            (a, i): c for i, z in enumerate(images) for a, c in self.coords(z).items()})


def _hom_basis(E: AModule, Y: AModule) -> HomBasis:
    """Hom_A(E, Y) for left A-modules: the kernel, slice by slice, of the
    maps z |-> lambda_Y(a) o z - (-1)^{|a||z|} z o lambda_E(a), a != 1."""
    if E.side != "left" or Y.side != "left":
        raise ValueError("hom takes left modules; got the wrong handedness")
    A = E.algebra
    g = A.base.ground
    one_E, one_Y = HomogeneousMap.identity(E.module), HomogeneousMap.identity(Y.module)
    constraints = [hom_maps(one_E, Y.act_map(a)).add(hom_maps(E.act_map(a), one_Y).neg())
                   for a in range(A.rank) if a != A.unit_index]
    H = graded_hom_module(E.module, Y.module)
    nY = Y.module.rank
    maps = []
    for key in H.degree_support():
        idxs = H.slice_indices(key)
        columns = [{} for _ in idxs]
        nrows = 0
        for h in constraints:
            m = h.slice_matrix(key)[0]
            for col, mc in zip(columns, m.columns):
                col.update((nrows + r, x) for r, x in mc.items())
            nrows += m.rows
        for v in kernel_basis(ExactMatrix.from_columns(g, nrows, columns)):
            maps.append(HomogeneousMap(E.module, Y.module, key, {
                (idxs[r] % nY, idxs[r] // nY): c for r, c in v.items()}))
    return HomBasis(E.module, Y.module, maps)


def endo_algebra(E: AModule) -> GradedAlgebra:
    """Hom_R(E, E) under composition, as a graded algebra.

    The basis is the commutant of the action, re-based so the identity map
    is the unit monomial: the identity replaces the last basis map it has a
    coordinate on.  Structure constants come from composing basis maps and
    reading the composites back.  This is the plain (underived)
    endomorphism algebra -- for non-projective E the derived one must be
    supplied separately, as in the adic corpus contexts.
    """
    one = HomogeneousMap.identity(E.module)
    commutant = _hom_basis(E, E)
    drop = max(commutant.coords(one), default=None)
    basis = HomBasis(E.module, E.module, [one] + [
        z for a, z in enumerate(commutant.maps) if a != drop])
    monomials = [("id", 0)] + [(f"f{a}", z.degree) for a, z in enumerate(basis.maps[1:])]
    mult = {}
    for i, zi in enumerate(basis.maps):
        for j, zj in enumerate(basis.maps):
            vec = basis.coords(zi.compose(zj))
            if vec:
                mult[(i, j)] = vec
    return GradedAlgebra(E.algebra.base, monomials, 0, mult)


def plain_hom_A(ctx: MoritaContext, Y: AModule) -> AModule:
    """G(Y) = Hom_A(E, Y) as a right R-module, for semisimple A (underived).

    r acts by plain precomposition, (w . r)(e) = w(r . e); the basis is
    kept on the module as `hom_basis`.
    """
    if radical(ctx.A):
        raise ValueError("plain Hom is only honest for semisimple A")
    basis = _hom_basis(ctx.E_A, Y)
    action = {}
    for m in range(ctx.R.rank):
        rho = ctx.E_R.act_map(m)
        hm = basis.read(basis.module, ctx.R.degree(m), [z.compose(rho) for z in basis.maps])
        if not hm.is_zero():
            action[m] = hm
    W = AModule(ctx.R, basis.module, action, "right")
    W.hom_basis = basis
    return W


def roundtrip_FG(ctx: MoritaContext, Y: AModule,
                 compare=(-16, 16)) -> bool:
    """Whether F(G(Y)) has the same degree ranks as Y (semisimple A)."""
    FW = functor_F(ctx, plain_hom_A(ctx, Y))
    lo, hi = compare
    return degree_ranks(FW.module, lo, hi) == degree_ranks(Y.module, lo, hi)


def _unit(FX: AModule, GFX: AModule) -> HomogeneousMap:
    """eta_X: X -> G(F X), x |-> (e |-> x (x) e), for FX = F(X), GFX = G(FX)."""
    T = FX.tensor
    nE, one = T.E.rank, T.E.base.ground.one
    images = []
    for i, (_, d) in enumerate(T.X.module.generators):
        entries = {}
        for j in range(nE):
            for pos, c in T.reduce({i * nE + j: one}).items():
                entries[(pos, j)] = c
        images.append(HomogeneousMap(T.E, FX.module, d, entries))
    return GFX.hom_basis.read(T.X.module, 0, images)


def _counit(FGY: AModule, Y: AModule) -> HomogeneousMap:
    """epsilon_Y: F(G Y) -> Y, w (x) e |-> w(e), for FGY = F(G(Y))."""
    T = FGY.tensor
    maps = T.X.hom_basis.maps
    entries = {}
    for pos, p in enumerate(T.kept):
        a, j = divmod(p, T.E.rank)
        for y, c in maps[a].by_column().get(j, ()):
            entries[(y, pos)] = c
    return HomogeneousMap(FGY.module, Y.module, 0, entries)


def retract_identity(ctx: MoritaContext, X: AModule) -> bool:
    """Triangle 1, exactly (semisimple A): epsilon_{FX} o F(eta_X) = 1 on F(X)."""
    FX = functor_F(ctx, X)
    GFX = plain_hom_A(ctx, FX)
    FGFX = functor_F(ctx, GFX)
    F_eta = FX.tensor.induced(_unit(FX, GFX), HomogeneousMap.identity(ctx.E), FGFX.tensor)
    return _counit(FGFX, FX).compose(F_eta) == HomogeneousMap.identity(FX.module)


def adjunction_triangles(ctx: MoritaContext, X: AModule,
                         Y: AModule) -> bool:
    """Both triangle identities, exactly, for semisimple A.

    Triangle 1 (on F) is the retract identity for X; triangle 2 (on G) is
    G(epsilon_Y) o eta_{GY} = 1 on G(Y), where G(epsilon_Y) reads
    epsilon_Y o z in the hom basis of G(Y).
    """
    if not retract_identity(ctx, X):
        return False
    GY = plain_hom_A(ctx, Y)
    FGY = functor_F(ctx, GY)
    GFGY = plain_hom_A(ctx, FGY)
    eps = _counit(FGY, Y)
    G_eps = GY.hom_basis.read(GFGY.module, 0, [eps.compose(z) for z in GFGY.hom_basis.maps])
    return G_eps.compose(_unit(FGY, GFGY)) == HomogeneousMap.identity(GY.module)


# ---------------------------------------------------------------------------
# the torsion side: T and S


def torsion_T(ctx: MoritaContext, X: AModule) -> AModule:
    """T(X) = X (x)_A E as a left R-module, for a right A-module X."""
    return _tensor_E(X, ctx.E_A, ctx.E_R)


def torsion_S(ctx: MoritaContext, M: AModule, window=(-16, 16),
              s_max: int = 8) -> BigradedTable:
    """S(M) = derived Hom_R(E, M) for a left R-module M."""
    return derived_hom(ctx.E_R, M, window, s_max)


def torsion_roundtrip(ctx: MoritaContext, compare, window=(-16, 16),
                      s_max: int = 8) -> bool:
    """Whether S(T(A)) recovers A, as collapsed degree ranks over `compare`."""
    TA = torsion_T(ctx, AModule.regular(ctx.A, "right"))
    return completion_matches(torsion_S(ctx, TA, window, s_max), ctx.A.module, compare)
