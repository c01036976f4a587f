"""Finite-window Morita machinery: F, G, completion, and round-trips.

The setting is a triple (R, A, E): E is simultaneously a left R-module and
a left A-module with commuting actions (the bimodule of the Morita pair).
Every module here, E included, is a resolve.AModule tagged left or right.
F sends a right R-module X to the left A-module X (x)_R E; G sends a left
A-module Y to the derived Hom_A(E, Y), reported as a bigraded homology
table over an explicit window; the completion of X is G(F(X)).  T and S
are the same pair with the roles of R and A swapped.

For semisimple A the derived Hom collapses to the plain one, and the
adjunction unit/counit are materialized as explicit matrices, so the
retract and triangle identities are verified exactly rather than at the
level of ranks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import GradedAlgebra, radical
from .base import GradedFreeModule, HomogeneousMap, graded_hom_module, tensor_maps
from .linalg import Echelon, ExactMatrix, kernel_basis, solve
from .resolve import AModule, ext_with_coefficients, free_resolution
from .tables import BigradedTable


@dataclass
class MoritaContext:
    """The bimodule datum: E a left R-module and left A-module, commuting.

    E_R and E_A are E with the R-action and with the A-action, built (and
    checked) at construction, or taken as already checked by `of_modules`.
    """

    R: GradedAlgebra
    A: GradedAlgebra
    E: GradedFreeModule
    r_action: dict
    a_action: dict

    def __post_init__(self):
        self._adopt(AModule(self.R, self.E, self.r_action),
                    AModule(self.A, self.E, self.a_action))

    @classmethod
    def of_modules(cls, E_R: AModule, E_A: AModule) -> "MoritaContext":
        """The context on two left modules over one E, whose axioms hold."""
        if E_R.side != "left" or E_A.side != "left":
            raise ValueError("a Morita context takes E as a left R- and A-module")
        ctx = object.__new__(cls)
        ctx.R, ctx.A, ctx.E = E_R.algebra, E_A.algebra, E_R.module
        ctx.r_action, ctx.a_action = E_R.action, E_A.action
        ctx._adopt(E_R, E_A)
        return ctx

    def _adopt(self, E_R: AModule, E_A: AModule):
        self.E_R, self.E_A = E_R, E_A
        for r, fr in E_R.action.items():
            for a, fa in E_A.action.items():
                if fr.compose(fa) != fa.compose(fr):
                    raise ValueError(f"R and A actions fail to commute on ({r},{a})")


@dataclass
class CompletionResult:
    subject: str
    table: BigradedTable
    window: tuple
    notes: tuple = ()


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
                    rel = {}
                    for i2, c in rho.apply_coords({i: g.one}).items():
                        rel[i2 * nE + j] = c
                    if lam is not None:
                        for j2, c in lam.apply_coords({j: g.one}).items():
                            rel[i * nE + j2] = g.sub(rel.get(i * nE + j2, g.zero), c)
                            if rel[i * nE + j2] == 0:
                                del rel[i * nE + j2]
                    if rel:
                        span.add(rel)
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
        columns = tensor_maps(one_X, acting.act_map(a)).by_column()
        entries = {}
        for pos, p in enumerate(T.kept):
            for pos2, c in T.reduce(dict(columns.get(p, ()))).items():
                entries[(pos2, pos)] = c
        hm = HomogeneousMap(T.module, T.module, B.degree(a), entries)
        if not hm.is_zero():
            action[a] = hm
    out = AModule(B, T.module, action)
    out.tensor = T
    return out


def functor_F(ctx: MoritaContext, X: AModule) -> AModule:
    """X (x)_R E as a left A-module."""
    return _tensor_E(X, ctx.E_R, ctx.E_A)


def functor_G(ctx: MoritaContext, Y: AModule, window=(-16, 16),
              s_max: int = 8, notes=()) -> CompletionResult:
    """Derived Hom_A(E, Y) as a bigraded homology table over the window."""
    if Y.side != "left":
        raise ValueError("G takes a left A-module")
    res = free_resolution(ctx.A, ctx.E_A, s_max=s_max, t_window=window)
    table = ext_with_coefficients(res, Y, window)
    return CompletionResult("G", table, tuple(window), tuple(notes))


def completion(ctx: MoritaContext, M: AModule, window=(-16, 16),
               s_max: int = 8, notes=()) -> CompletionResult:
    """The completion G(F(M)) of a right R-module M."""
    if M.module.rank == 0:
        return CompletionResult("completion", BigradedTable(window=tuple(window)),
                                tuple(window), tuple(notes))
    out = functor_G(ctx, functor_F(ctx, M), window, s_max, notes=notes)
    return CompletionResult("completion", out.table, out.window, tuple(notes))


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
    """Whether a completion table of M has M's collapsed degree ranks.

    Compared over the explicit range `compare`; nothing is claimed outside it.
    """
    lo, hi = compare
    got = {d: r for d, r in collapsed_ranks(table).items() if lo <= d <= hi}
    return got == degree_ranks(M, lo, hi)


def completion_is_equivalence(ctx: MoritaContext, M: AModule,
                              compare, window=(-16, 16), s_max: int = 8) -> bool:
    """Whether the canonical map M -> completion(M) is a homology iso.

    Compared as collapsed degree ranks over the explicit range `compare`;
    nothing is claimed outside it.
    """
    return completion_matches(completion(ctx, M, window, s_max).table, M.module, compare)


# ---------------------------------------------------------------------------
# the plain (underived) kit, for semisimple A


def _hom_basis(E: AModule, Y: AModule):
    """Basis of Hom_A(E, Y) for left A-modules, as (degree, HomogeneousMap)."""
    if E.side != Y.side:
        raise ValueError("hom takes modules of the same handedness")
    A = E.algebra
    g = A.base.ground
    H = graded_hom_module(E.module, Y.module)
    nY = Y.module.rank
    basis = []
    for key in sorted(set(H.degree_support())):
        idxs = H.slice_indices(key)
        if not idxs:
            continue
        # constraint: z o lambda_E(a) = lambda_Y(a) o z for all monomials a
        columns = [{} for _ in idxs]
        nrows = 0
        for a in range(A.rank):
            if a == A.unit_index:
                continue
            lamE, lamY = E.act_map(a), Y.act_map(a)
            diffs = []
            for idx in idxs:
                i, j = divmod(idx, nY)
                z = HomogeneousMap(E.module, Y.module, key, {(j, i): g.one})
                diffs.append(z.compose(lamE).add(lamY.compose(z).neg()))
            # stack the entry coordinates of the differences
            row = {ek: nrows + r for r, ek in
                   enumerate(sorted({k for d in diffs for k in d.entries}))}
            for col, d in zip(columns, diffs):
                for ek, c in d.entries.items():
                    col[row[ek]] = c
            nrows += len(row)
        for v in kernel_basis(ExactMatrix.from_columns(g, nrows, columns)):
            entries = {}
            for a, c in v.items():
                i, j = divmod(idxs[a], nY)
                entries[(j, i)] = c
            basis.append((key, HomogeneousMap(E.module, Y.module, key, entries)))
    return basis


def _in_basis(g, basis, target: HomogeneousMap) -> dict:
    """Coordinates of a map in a compatible-degree subset of the basis."""
    cands = [(a, z) for a, (d, z) in enumerate(basis)
             if z.source.base.degree_key(d) == z.source.base.degree_key(target.degree)]
    keys = sorted({k for _, z in cands for k in z.entries} | set(target.entries))
    row = {k: r for r, k in enumerate(keys)}
    mat = ExactMatrix.from_columns(
        g, len(keys), [{row[k]: c for k, c in z.entries.items()} for _, z in cands])
    sol = solve(mat, {row[k]: c for k, c in target.entries.items()})
    if sol is None:
        raise ValueError("map does not lie in the hom module")
    return {cands[a][0]: c for a, c in sol.items()}


def endo_algebra(E: AModule) -> GradedAlgebra:
    """Hom_R(E, E) under composition, as a graded algebra.

    The basis is the commutant of the action, re-based so the identity map
    is the unit monomial; structure constants come from composing basis
    maps and solving back.  This is the plain (underived) endomorphism
    algebra -- for non-projective E the derived one must be supplied
    separately, as in the adic corpus contexts.
    """
    g = E.algebra.base.ground
    basis = [(0, HomogeneousMap.identity(E.module))]
    for d, z in _hom_basis(E, E):
        try:
            _in_basis(g, basis, z)
        except ValueError:
            basis.append((d, z))
    monomials = [("id", 0)] + [(f"f{a}", d) for a, (d, _) in enumerate(basis[1:])]
    mult = {}
    for i, (_, zi) in enumerate(basis):
        for j, (_, zj) in enumerate(basis):
            vec = _in_basis(g, basis, zi.compose(zj))
            if vec:
                mult[(i, j)] = vec
    return GradedAlgebra(E.algebra.base, monomials, 0, mult)


def plain_hom_A(ctx: MoritaContext, Y: AModule) -> AModule:
    """Hom_A(E, Y) as a right R-module, for semisimple A (underived case)."""
    if radical(ctx.A):
        raise ValueError("plain Hom is only honest for semisimple A")
    g = ctx.R.base.ground
    basis = _hom_basis(ctx.E_A, Y)
    M = GradedFreeModule(
        ctx.R.base, tuple((f"w{a}", d) for a, (d, _) in enumerate(basis))
    )
    action = {}
    for m in range(ctx.R.rank):
        rho = ctx.E_R.act_map(m)
        entries = {}
        for a, (_, z) in enumerate(basis):
            img = z.compose(rho)  # (w . r)(e) = w(r . e)
            for b, c in _in_basis(g, basis, img).items():
                entries[(b, a)] = c
        hm = HomogeneousMap(M, M, ctx.R.degree(m), entries)
        if not hm.is_zero():
            action[m] = hm
    W = AModule(ctx.R, M, action, "right")
    W.hom_basis = basis
    return W


def roundtrip_FG(ctx: MoritaContext, Y: AModule,
                 compare=(-16, 16)) -> bool:
    """Whether F(G(Y)) has the same degree ranks as Y (semisimple A)."""
    if Y.module.rank == 0:
        return functor_F(ctx, plain_hom_A(ctx, Y)).module.rank == 0
    W = plain_hom_A(ctx, Y)
    FW = functor_F(ctx, W)
    lo, hi = compare
    return degree_ranks(FW.module, lo, hi) == degree_ranks(Y.module, lo, hi)


def retract_identity(ctx: MoritaContext, X: AModule) -> bool:
    """Exact check that F(X) -> F(completion X) -> F(X) is the identity.

    Builds the adjunction unit under F and the counit as matrices
    (semisimple A, so the completion is the plain G(F(X))).
    """
    g = ctx.R.base.ground
    FX = functor_F(ctx, X)
    T = FX.tensor
    nE = ctx.E.rank
    W = plain_hom_A(ctx, FX)       # Hom_A(E, X (x) E) as right R-module
    basis = W.hom_basis
    TW = BalancedTensor(W, ctx.E, ctx.r_action)   # W (x)_R E

    def unit_of(i):
        # eta(x_i) = (e_j |-> class(x_i (x) e_j)) as coordinates in the W basis
        entries = {}
        for j in range(nE):
            for pos, c in T.reduce({i * nE + j: g.one}).items():
                entries[(pos, j)] = c
        z = HomogeneousMap(ctx.E, FX.module, X.module.generators[i][1], entries)
        return _in_basis(g, basis, z)

    # composite on each kept basis class of X (x) E
    for pos, p in enumerate(T.kept):
        i, j = divmod(p, nE)
        # F(eta): class(x_i (x) e_j) |-> class(eta(x_i) (x) e_j)
        pushed = {}
        for a, c in unit_of(i).items():
            for q, c2 in TW.reduce({a * nE + j: c}).items():
                pushed[q] = g.add(pushed.get(q, g.zero), c2)
        # counit: class(w_a (x) e_j) |-> w_a(e_j)
        out = {}
        for q, c in pushed.items():
            a, j2 = divmod(TW.kept[q], nE)
            for pos2, c2 in basis[a][1].apply_coords({j2: g.one}).items():
                out[pos2] = g.add(out.get(pos2, g.zero), g.mul(c, c2))
        out = {k: v for k, v in out.items() if v != 0}
        if out != {pos: g.one}:
            return False
    return True


def adjunction_triangles(ctx: MoritaContext, X: AModule,
                         Y: AModule) -> bool:
    """Both triangle identities, exactly, for semisimple A.

    Triangle 1 (on F): the retract identity for X.  Triangle 2 (on G):
    G(counit_Y) o unit_{G(Y)} is the identity on Hom_A(E, Y).
    """
    if not retract_identity(ctx, X):
        return False
    g = ctx.R.base.ground
    W = plain_hom_A(ctx, Y)
    basis = W.hom_basis
    TW = BalancedTensor(W, ctx.E, ctx.r_action)   # F(G(Y)) = W (x) E
    nE = ctx.E.rank
    # counit eps: class(w_a (x) e_j) |-> w_a(e_j) in Y
    FGY = functor_F(ctx, W)
    W2 = plain_hom_A(ctx, FGY)
    basis2 = W2.hom_basis
    for a, (da, za) in enumerate(basis):
        # unit at G(Y): w_a |-> (e_j |-> class(w_a (x) e_j))
        entries = {}
        for j in range(nE):
            for pos, c in TW.reduce({a * nE + j: g.one}).items():
                entries[(pos, j)] = c
        zu = HomogeneousMap(ctx.E, FGY.module, da, entries)
        coords2 = _in_basis(g, basis2, zu)
        # G(eps): postcompose each basis2 element with the counit
        total = {}
        for b, c in coords2.items():
            # eps o z_b as a map E -> Y
            comp = {}
            for (pos, j), c2 in basis2[b][1].entries.items():
                aa, j2 = divmod(TW.kept[pos], nE)
                for y, c3 in basis[aa][1].apply_coords({j2: g.one}).items():
                    comp[(y, j)] = g.add(comp.get((y, j), g.zero), g.mul(c2, c3))
            comp = {k: v for k, v in comp.items() if v != 0}
            zc = HomogeneousMap(ctx.E, Y.module, basis2[b][0], comp)
            for w, c4 in _in_basis(g, basis, zc).items():
                total[w] = g.add(total.get(w, g.zero), g.mul(c, c4))
    # identity on the W basis
        total = {k: v for k, v in total.items() if v != 0}
        if total != {a: g.one}:
            return False
    return True


# ---------------------------------------------------------------------------
# the torsion side: T and S


def torsion_T(ctx: MoritaContext, X: AModule) -> AModule:
    """T(X) = X (x)_A E as a left R-module, for a right A-module X."""
    return _tensor_E(X, ctx.E_A, ctx.E_R)


def torsion_S(ctx: MoritaContext, M: AModule, window=(-16, 16),
              s_max: int = 8) -> CompletionResult:
    """S(M) = derived Hom_R(E, M), as a bigraded table."""
    if M.side != "left":
        raise ValueError("S takes a left R-module")
    res = free_resolution(ctx.R, ctx.E_R, s_max=s_max, t_window=window)
    table = ext_with_coefficients(res, M, window)
    return CompletionResult("S", table, tuple(window))


def torsion_roundtrip(ctx: MoritaContext, compare, window=(-16, 16),
                      s_max: int = 8) -> bool:
    """Whether S(T(A)) recovers A, as collapsed degree ranks over `compare`."""
    TA = torsion_T(ctx, AModule.regular(ctx.A, "right"))
    return completion_matches(torsion_S(ctx, TA, window, s_max).table, ctx.A.module, compare)
