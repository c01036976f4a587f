"""Hochschild cohomology via the normalized bar cochain complex.

A bimodule over A is a left module (resolve.AModule) over the enveloping
algebra A (x) A^op, with (a (x) b) . x = (-1)^{|b||x|} a . x . b.  This
module computes HH^n(A, M) for a finite-rank graded algebra A and such a
bimodule M, the action map mu from A (x) A^op to Hom(A, A) (the regular
bimodule's AModule.action_map), an independent computation of HH as Ext
over the enveloping algebra with a cross-check against the bar table, and
the homology image of the alpha class under mu for the two-term quotient
DGA family.

mu is an algebra map exactly when A is a module over A (x) A^op, so its
algebra-map check is the module check of the regular bimodule, the one
action check algebra.check_action; whether mu is bijective is
HomogeneousMap.is_iso.  A (x) A^op is generated by the s (x) 1 and 1 (x) s
for s generating A, so that check compares 2 |S| r^2 pairs, not r^4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .algebra import BudgetExceededError, GradedAlgebra, opposite, tensor
from .base import GradedFreeModule, HomogeneousMap, cohomology_table, hom_pair_index
from .dg import ChainMap, DGAlgebra, QuotientDGA, hom_complex, homology_at, tensor_complex
from .linalg import ExactMatrix, SubquotientPresentation, factor
from .resolve import AModule, ext_with_coefficients, free_resolution
from .tables import BigradedTable


def _bimodule_action(A: GradedAlgebra, M: GradedFreeModule, left, right) -> dict:
    """{i * rank(A) + j: x |-> (-1)^{|e_j||x|} e_i . x . e_j} on M."""
    g = A.base.ground
    action = {}
    for i, li in left.items():
        for j, rj in right.items():
            hm = li.compose(rj)
            if A.parity(j):
                hm = HomogeneousMap(M, M, hm.degree, {
                    (k, m): g.neg(c) if M.generators[m][1] % 2 else c
                    for (k, m), c in hm.entries.items()
                })
            if not hm.is_zero():
                action[i * A.rank + j] = hm
    return action


def _regular_action(A: GradedAlgebra) -> dict:
    left = {m: A.left_mult(m) for m in range(A.rank)}
    right = {m: A.right_mult(m) for m in range(A.rank)}
    return _bimodule_action(A, A.module, left, right)


def bimodule(A: GradedAlgebra, M: GradedFreeModule, left, right) -> AModule:
    """The bimodule with the given left and right monomial actions on M.

    The module check (algebra.check_action) rejects actions that are not
    unital and associative, and left and right actions that do not commute.
    """
    return AModule(tensor(A, opposite(A)), M, _bimodule_action(A, M, left, right))


def regular_bimodule(A: GradedAlgebra, check=False) -> AModule:
    """A as a bimodule over itself."""
    return AModule(tensor(A, opposite(A)), A.module, _regular_action(A), check=check)


class BarCochainComplex:
    """Normalized bar cochains C^n = Hom(Abar^{(x)n}, M), with differentials.

    M is a bimodule: an AModule over tensor(A, opposite(A)).

    A cochain generator is (word over non-unit monomials, M-coordinate);
    its internal degree is deg(value) - deg(inputs).  d^2 = 0 is asserted
    at construction.
    """

    def __init__(self, A: GradedAlgebra, M: AModule, n_max: int = 4,
                 budget: int = 200000):
        if M.algebra.rank != A.rank ** 2:
            raise ValueError("M must be a bimodule: a module over tensor(A, opposite(A))")
        self.A = A
        self.M = M
        u = A.unit_index
        self.reduced = [m for m in range(A.rank) if m != u]
        # the nonzero actions a . x at a (x) 1 and (-1)^{|b||x|} x . b at 1 (x) b
        act, r = M.action, A.rank
        self.left = {a: act[a * r + u] for a in self.reduced if a * r + u in act}
        self.right = {b: act[u * r + b] for b in self.reduced if u * r + b in act}
        self.terms = []
        self.deltas = []
        nM = M.module.rank
        # one extra term so the top reported degree still has an outgoing
        # differential
        for n in range(n_max + 2):
            if len(self.reduced) ** n * nM > budget:
                break
            self.terms.append(self._term(n))
        self.completed = len(self.terms) - 2
        if self.completed < 0:
            raise BudgetExceededError("budget too small for any cochain degree")
        for n in range(len(self.terms) - 1):
            self.deltas.append(self._delta(n))
        for n in range(len(self.deltas) - 1):
            if not self.deltas[n + 1].compose(self.deltas[n]).is_zero():
                raise AssertionError(f"bar differential fails d^2 = 0 at n = {n}")

    def words(self, n):
        return list(itertools.product(self.reduced, repeat=n))

    def _word_index(self, n):
        return {w: i for i, w in enumerate(self.words(n))}

    def _term(self, n) -> GradedFreeModule:
        A, M = self.A, self.M
        gens = []
        for w in self.words(n):
            wdeg = sum(A.degree(a) for a in w)
            for name, d in M.module.generators:
                gens.append((f"[{','.join(str(a) for a in w)}]->{name}", d - wdeg))
        return GradedFreeModule(A.base, tuple(gens))

    def _delta(self, n) -> HomogeneousMap:
        A, M = self.A, self.M
        g = A.base.ground
        nM = M.module.rank
        u = A.unit_index
        src_words = self.words(n)
        tgt_index = self._word_index(n + 1)
        entries = {}

        def put(tword, bvec, sign_scalar):
            ti = tgt_index[tword]
            for b2, c in bvec.items():
                key = (ti * nM + b2, src)
                entries[key] = g.add(entries.get(key, g.zero), g.mul(sign_scalar, c))

        minus_one = g.normalize(-1)
        for wi, w in enumerate(src_words):
            for b in range(nM):
                src = wi * nM + b
                bpar = M.module.generators[b][1] % 2
                fpar = (bpar - sum(A.degree(a) for a in w)) % 2
                # first face: a1 . f(a2..), Koszul sign (-1)^{|a1||f|}
                for a1, lam in self.left.items():
                    val = lam.apply_coords({b: g.one})
                    if val:
                        s = minus_one if (fpar and A.parity(a1)) else g.one
                        put((a1,) + w, val, s)
                # inner faces: (-1)^i f(..., a_i a_{i+1}, ...)
                for i in range(n):
                    for x in self.reduced:
                        for y in self.reduced:
                            c = A.mul_basis(x, y).get(w[i])
                            if c is None:
                                continue
                            tword = w[:i] + (x, y) + w[i + 1:]
                            s = g.mul(c, minus_one if (i + 1) % 2 else g.one)
                            put(tword, {b: g.one}, s)
                # last face: (-1)^{n+1} f(a1..an) . a_{n+1}
                # (the right action undoes the Koszul sign of 1 (x) a_{n+1})
                slast = minus_one if (n + 1) % 2 else g.one
                for an, rho in self.right.items():
                    val = rho.apply_coords({b: g.one})
                    if val:
                        s = g.neg(slast) if (bpar and A.parity(an)) else slast
                        put(w + (an,), val, s)
        return HomogeneousMap(self.terms[n], self.terms[n + 1], 0, entries)


def hochschild_cohomology(A: GradedAlgebra, M: AModule | None = None,
                          n_max: int = 4, window=(-16, 16),
                          budget: int = 200000) -> BigradedTable:
    """HH^n(A, M) per internal degree slice, keyed (n, t); M defaults to A."""
    if M is None:
        M = regular_bimodule(A)
    bar = BarCochainComplex(A, M, n_max, budget)
    table = cohomology_table(bar.deltas, min(bar.completed, n_max), window)
    if bar.completed < n_max:
        table.notes = (f"budget exceeded: completed through n = {bar.completed}",)
    return table


# ---------------------------------------------------------------------------
# the action map


def action_map_mu(A):
    """The action map mu for a GradedAlgebra or DGAlgebra.

    Both cases read the action map of the regular bimodule E, a degree-0
    HomogeneousMap from tensor(A, A^op) to Hom(A, A).  Graded case: that
    map; building E checks it as a module over tensor(A, A^op), which is
    mu being an algebra map for the composition product.
    DG case: a ChainMap between the tensor and Hom complexes (the chain
    condition is hard-checked by the ChainMap constructor).
    """
    if isinstance(A, DGAlgebra):
        T = tensor_complex(A.complex(), A.opposite().complex())
        H = hom_complex(A.complex(), A.complex())
        return ChainMap(T, H, regular_bimodule(A.algebra).action_map())
    try:
        E = regular_bimodule(A, check=True)
    except ValueError as e:
        raise AssertionError(f"mu failed the algebra-map check: {e}") from None
    return E.action_map()


def mu_is_iso(A: GradedAlgebra) -> bool:
    """Whether mu is bijective, slice by slice (HomogeneousMap.is_iso)."""
    return action_map_mu(A).is_iso()


# ---------------------------------------------------------------------------
# the enveloping-algebra path


def hochschild_via_enveloping(A: GradedAlgebra, n_max: int = 4,
                              window=(-16, 16), seed: int = 0) -> BigradedTable:
    """Ext_{A (x) A^op}(A, A) from a seeded greedy free resolution.

    A stage generator of internal degree t is dual to a bar functional of
    degree -t, so this table's (n, t) is the bar table's (n, -t);
    check_enveloping_against_bar compares the two.
    """
    M = regular_bimodule(A, check=True)
    res = free_resolution(M.algebra, M, s_max=n_max + 1, t_window=window, seed=seed)
    return ext_with_coefficients(res, M, window)


def check_enveloping_against_bar(A: GradedAlgebra, enveloping: BigradedTable,
                                 bar: BigradedTable, n_max: int):
    """Raise AssertionError unless the two HH tables of A agree through n_max.

    Free ranks are compared per (n, slice key), with t -> -t on the
    enveloping side.
    """
    for n in range(n_max + 1):
        ranks = []
        for table, sign in ((enveloping, -1), (bar, 1)):
            by_key = {}
            for (s, t), p in table.entries.items():
                if s == n:
                    k = A.base.degree_key(sign * t)
                    by_key[k] = by_key.get(k, 0) + p.free_rank
            ranks.append(by_key)
        if ranks[0] != ranks[1]:
            raise AssertionError(
                f"enveloping path disagrees with bar complex at n = {n}: "
                f"{ranks[0]} vs {ranks[1]}"
            )


# ---------------------------------------------------------------------------
# homology image of alpha under mu


@dataclass
class MuImageResult:
    coefficient: object       # scalar c with mu_*(alpha) = c * betabar (implied powers)
    modeled_defect: object    # 2w, the commutator defect of the family
    is_unit: bool
    alpha_choice: str
    note: str = "sign of alpha (hence of c) is a normalization choice"


def mu_homology_image(Q: QuotientDGA) -> MuImageResult:
    """Push the degree-(d+1) homology class alpha through mu.

    alpha is one of y(x)1 -+ 1(x)y in H_{d+1}(A (x) A^op); the candidate
    whose image is a multiple of the betabar class (the functional y -> 1)
    is reported, together with the coefficient and whether it is a unit in
    the homology module.
    """
    A = Q.dga
    g = A.base.ground
    d1 = Q.x_degree + 1
    mu = action_map_mu(A)
    T, H = mu.source, mu.target

    names = [n for n, _ in T.module.generators]
    iy1, i1y = names.index("y|1"), names.index("1|y")
    pres = homology_at(T, d1)
    if pres.free_rank + len(pres.torsion) != 1:
        raise ValueError(f"alpha class is not rank 1: {pres}")

    minus = g.normalize(-1)
    candidates = [
        ("y|1 - 1|y", {iy1: g.one, i1y: minus}),
        ("y|1 + 1|y", {iy1: g.one, i1y: g.one}),
    ]
    # betabar: the functional y -> 1 in Hom(A, A) pair coordinates
    beta_idx = hom_pair_index(A.algebra.module, A.algebra.module, 1, 0)
    hin, _, hd1_idx = H.d.slice_matrix(d1 + 1)
    pos = {idx: r for r, idx in enumerate(hd1_idx)}
    # column 0 is betabar (zero when it lies outside degree d1), the rest
    # are the boundaries into degree d1
    beta = {pos[beta_idx]: g.one} if beta_idx in pos else {}
    sf = factor(ExactMatrix.from_columns(g, hin.rows, [beta] + hin.columns))
    for label, vec in candidates:
        # must be a cycle in the tensor complex
        if T.d.apply_coords(vec):
            continue
        img = mu.f.apply_coords(vec)
        sol = sf.solve({pos[idx]: x for idx, x in img.items()})
        if sol is None:
            continue
        c = sol.get(0, g.zero)
        # the homology module containing betabar
        c, unit = _normalize_class(g, c, homology_at(H, d1))
        return MuImageResult(c, Q.defect, unit, label)
    raise ValueError("neither alpha candidate maps to a betabar multiple")


def _normalize_class(g, c, pres: SubquotientPresentation):
    """Reduce a class coefficient and decide unit-ness in its cyclic module."""
    if pres.free_rank + len(pres.torsion) != 1:
        return c, False
    if pres.torsion:
        n = pres.torsion[0]
        if g.kind == "Z":
            c = c % n
            return c, math.gcd(c, n) == 1
        return c, c != 0
    if g.kind == "Z":
        return c, c in (1, -1)
    return c, c != 0
