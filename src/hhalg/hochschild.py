"""Hochschild cohomology as Ext over the enveloping algebra A^e = A (x) A^op.

A bimodule over A is a left module (resolve.AModule) over A^e, with
(a (x) b) . x = (-1)^{|b||x|} a . x . b, so HH^n(A, M) = Ext^n_{A^e}(A, M).
This module computes it from the normalized bar resolution, read by the
one Hom builder resolve.hom_cochains, and independently as
resolve.derived_hom(A, A) over A^e, the seeded greedy free resolution that
the Morita functors G and S also read; check_enveloping_against_bar
compares the two tables.  It also holds
the action map mu from A^e to Hom(A, A) (the regular bimodule's
AModule.action_map), and the homology image of the alpha class under mu
for the two-term quotient DGA family.

The regular bimodule reads each action off A's structure table:
e_a (x) e_b sends e_x to (-1)^{|b||x|} (e_a e_x) e_b, two mul_basis reads
per term and no composite of maps (bimodule composes them, the oracle).

mu is an algebra map exactly when A is a module over A (x) A^op, so its
algebra-map check is the module check of the regular bimodule, the one
action check algebra.check_action; whether mu is bijective is
HomogeneousMap.is_iso.  For A of rank r generated by S, that check reads
the pairs of the factors of A (x) A^op (algebra._TensorAlgebra.action_pairs),
(r - 1)^2 + 2 |S| r + |S|^2 of them, not its 2 |S| r^2 generator pairs.
Its first family, (a (x) 1, 1 (x) b), compares L_a o R_b with the table's
(e_a x) e_b, which is associativity on every triple (a, x, b).
"""

from __future__ import annotations

import itertools
import math

from .algebra import GradedAlgebra, opposite, tensor
from .base import GradedFreeModule, HomogeneousMap, cohomology_table, hom_pair_index
from .dg import ChainMap, DGAlgebra, QuotientDGA, hom_complex, homology_at, tensor_complex
from .ground import BudgetExceededError, InvariantError, Record
from .linalg import ExactMatrix, factor
from .resolve import AModule, AModuleMap, FreeAModule, Resolution, derived_hom, hom_cochains
from .tables import BigradedTable, SubquotientPresentation


def _graded_only(A, function, route="HH of a DGAlgebra is not computed; pass A.algebra"):
    """Raise a TypeError naming the function and the supported route if A is a DGAlgebra."""
    if isinstance(A, DGAlgebra):
        raise TypeError(f"{function} takes a GradedAlgebra, not a DGAlgebra: {route}")


def _regular_action(A: GradedAlgebra) -> dict:
    """{a * rank(A) + b: e_x |-> (-1)^{|b||x|} (e_a e_x) e_b} on A, read off A's table."""
    M, r = A.module, A.rank
    odd = [A.parity(x) for x in range(r)]
    right = [[A.mul_basis(y, b) for y in range(r)] for b in range(r)]  # right[b][y] = e_y e_b
    action = {}
    for a in range(r):
        left = [A.mul_basis(a, x) for x in range(r)]
        for b, yb in enumerate(right):
            entries = {}
            for x, ax in enumerate(left):
                sign = -1 if odd[b] and odd[x] else 1
                for y, c in ax.items():
                    for z, d in yb[y].items():
                        entries[(z, x)] = entries.get((z, x), 0) + sign * c * d
            if entries:
                hm = HomogeneousMap(M, M, A.degree(a) + A.degree(b), entries)
                if not hm.is_zero():
                    action[a * r + b] = hm
    return action


def bimodule(A: GradedAlgebra, M: GradedFreeModule, left, right) -> AModule:
    """The bimodule with the given left and right monomial actions on M:
    e_i (x) e_j acts by x |-> (-1)^{|e_j||x|} left[i](right[j](x)).

    The module check (algebra.check_action) rejects actions that are not
    unital and associative, and left and right actions that do not commute.
    With A's left and right multiplications on A.module it gives the action
    of regular_bimodule(A) by composing maps, the oracle the table-read
    action is tested against.
    """
    action = {}
    for i, li in left.items():
        for j, rj in right.items():
            hm = li.compose(rj)
            if A.parity(j):
                hm = HomogeneousMap(M, M, hm.degree, {
                    (k, m): -c if M.generators[m][1] % 2 else c
                    for (k, m), c in hm.entries.items()
                })
            if not hm.is_zero():
                action[i * A.rank + j] = hm
    return AModule(tensor(A, opposite(A)), M, action)


def regular_bimodule(A: GradedAlgebra, check=False) -> AModule:
    """A as a bimodule over itself, its action read off A's structure table."""
    return AModule(tensor(A, opposite(A)), A.module, _regular_action(A), check=check)


def bar_resolution(A: GradedAlgebra, Ae: GradedAlgebra, top: int) -> Resolution:
    """The normalized bar resolution B_0 <- ... <- B_top of A over Ae = tensor(A, opposite(A)).

    B_n = A (x) Abar^{(x)n} (x) A is free on the words [a1|...|an] of
    non-unit monomials (itertools.product order), in degree |a1|+...+|an|:

      d[a1|...|an] = (a1 (x) 1) [a2|...|an] + sum_{i<n} (-1)^i [...|a_i a_{i+1}|...]
                     + (-1)^{n + |an|(|a1|+...+|a_{n-1}|)} (1 (x) an) [a1|...|a_{n-1}],

    the last face being [a1|...|a_{n-1}] . an written through Ae.
    """
    r, u = A.rank, A.unit_index
    reduced = [m for m in range(r) if m != u]
    words, stages, maps = [()], [FreeAModule(Ae, (0,))], []
    for n in range(1, top + 1):
        index = {w: i for i, w in enumerate(words)}
        words = list(itertools.product(reduced, repeat=n))
        stages.append(FreeAModule(Ae, tuple(sum(map(A.degree, w)) for w in words)))
        images = []
        for w in words:
            odd = (n + A.parity(w[-1]) * sum(map(A.degree, w[:-1]))) % 2
            faces = [(w[1:], w[0] * r + u, 1), (w[:-1], u * r + w[-1], -1 if odd else 1)]
            for i in range(1, n):
                for k, c in A.mul_basis(w[i - 1], w[i]).items():
                    if k != u:
                        faces.append((w[:i - 1] + (k,) + w[i + 1:], u * r + u,
                                      -c if i % 2 else c))
            image = {}  # coordinates on B_{n-1}: (face word, Ae monomial)
            for face, m, c in faces:
                idx = stages[n - 1].flat_index(index[face], m)
                image[idx] = image.get(idx, 0) + c
            images.append(image)
        maps.append(AModuleMap(stages[n], stages[n - 1], images))
    return Resolution(Ae, stages, maps)


class BarCochainComplex:
    """Normalized bar cochains C^n = Hom_{A^e}(B_n, M), with differentials.

    M is a bimodule, an AModule over A^e.  B_n = A (x) Abar^{(x)n} (x) A,
    with the differential and signs of bar_resolution(A, M.algebra, ...),
    and the cochains are hom_cochains(B_*, M): terms[n] has one generator
    per (word, M-coordinate), in degree deg(word) - deg(coordinate), the
    negative of the bar functional's degree.  d^2 = 0 is asserted at
    construction.
    """

    def __init__(self, A: GradedAlgebra, M: AModule, n_max: int = 4,
                 budget: int = 200000):
        if M.algebra.rank != A.rank ** 2:
            raise ValueError("M must be a bimodule: a module over tensor(A, opposite(A))")
        # one extra term, so the top reported degree has its outgoing differential
        n_terms = next((n for n in range(n_max + 2)
                        if (A.rank - 1) ** n * M.module.rank > budget), n_max + 2)
        self.completed = n_terms - 2
        if self.completed < 0:
            raise BudgetExceededError("budget too small for any cochain degree")
        self.terms, self.deltas = hom_cochains(bar_resolution(A, M.algebra, n_terms - 1), M)
        for n in range(len(self.deltas) - 1):
            if not self.deltas[n + 1].compose(self.deltas[n]).is_zero():
                raise InvariantError(f"bar differential fails d^2 = 0 at n = {n}")


def hochschild_cohomology(A: GradedAlgebra, M: AModule | None = None,
                          n_max: int = 4, window=(-16, 16),
                          budget: int = 200000) -> BigradedTable:
    """HH^n(A, M) per internal degree slice, keyed (n, t); M defaults to A.

    The bar cochains sit in degree -t (BarCochainComplex), so their
    cohomology is read on the window (-hi, -lo) and keyed back by -t.
    """
    _graded_only(A, "hochschild_cohomology")
    if M is None:
        M = regular_bimodule(A)
    bar = BarCochainComplex(A, M, n_max, budget)
    lo, hi = window
    table = BigradedTable()
    for (n, t), p in cohomology_table(bar.deltas, bar.completed, (-hi, -lo)).entries.items():
        table.set(n, A.base.degree_key(-t), p)
    if bar.completed < n_max:
        table.completed_through = bar.completed
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
    condition is hard-checked by the ChainMap constructor); A^op has A's
    module and differential, so its complex is A.complex().
    """
    if isinstance(A, DGAlgebra):
        T = tensor_complex(A.complex(), A.complex())
        H = hom_complex(A.complex(), A.complex())
        return ChainMap(T, H, regular_bimodule(A.algebra).action_map())
    try:
        E = regular_bimodule(A, check=True)
    except ValueError as e:
        raise InvariantError(f"mu failed the algebra-map check: {e}") from None
    return E.action_map()


def mu_is_iso(A: GradedAlgebra) -> bool:
    """Whether mu is bijective, slice by slice (HomogeneousMap.is_iso)."""
    _graded_only(A, "mu_is_iso", "use dg.is_quasi_iso(action_map_mu(A), window)")
    return action_map_mu(A).is_iso()


# ---------------------------------------------------------------------------
# the enveloping-algebra path


def hochschild_via_enveloping(A: GradedAlgebra, n_max: int = 4,
                              window=(-16, 16), seed: int = 0) -> BigradedTable:
    """Ext_{A (x) A^op}(A, A) through n_max, as resolve.derived_hom(A, A)
    resolved through stage n_max + 1 with the given seed.

    A stage generator of internal degree t is dual to a bar functional of
    degree -t, so this table's (n, t) is the bar table's (n, -t);
    check_enveloping_against_bar compares the two.
    """
    _graded_only(A, "hochschild_via_enveloping")
    M = regular_bimodule(A, check=True)
    return derived_hom(M, M, window, n_max + 1, seed)


def check_enveloping_against_bar(A: GradedAlgebra, enveloping: BigradedTable,
                                 bar: BigradedTable, n_max: int):
    """Raise InvariantError unless the two HH tables of A agree through n_max.

    Free rank and torsion are compared per (n, slice key)
    (BigradedTable.by_slice), with t -> -t on the enveloping side.
    """
    env = enveloping.by_slice(lambda t: A.base.degree_key(-t), n_max)
    ours = bar.by_slice(A.base.degree_key, n_max)
    for n in range(n_max + 1):
        a = {k: v for (s, k), v in env.items() if s == n}
        b = {k: v for (s, k), v in ours.items() if s == n}
        if a != b:
            raise InvariantError(
                f"enveloping path disagrees with bar complex at n = {n}: {a} vs {b}")


# ---------------------------------------------------------------------------
# homology image of alpha under mu


class MuImageResult(Record):
    """c with mu_*(alpha) = c * betabar (implied powers), and the family's commutator defect 2w."""

    _fields = ("coefficient", "modeled_defect", "is_unit", "alpha_choice", "note")

    def __init__(self, coefficient, modeled_defect, is_unit: bool, alpha_choice: str,
                 note: str = "sign of alpha (hence of c) is a normalization choice"):
        self.coefficient, self.modeled_defect, self.is_unit = coefficient, modeled_defect, is_unit
        self.alpha_choice, self.note = alpha_choice, note


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

    # A has basis {1, y}; the pair (i, j) of A (x) A^op is generator i * 2 + j
    u, y = A.algebra.unit_index, 1 - A.algebra.unit_index
    iy1, i1y = y * 2 + u, u * 2 + y
    pres = homology_at(T, d1)
    if pres.free_rank + len(pres.torsion) != 1:
        raise ValueError(f"alpha class is not rank 1: {pres}")

    candidates = [
        ("y|1 - 1|y", {iy1: g.one, i1y: -1}),
        ("y|1 + 1|y", {iy1: g.one, i1y: g.one}),
    ]
    # betabar: the functional y -> 1 in Hom(A, A) pair coordinates
    beta_idx = hom_pair_index(A.algebra.module, A.algebra.module, y, u)
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
    """Reduce a class coefficient and decide unit-ness in its cyclic module
    (torsion arises over Z alone: over a field every invariant factor is 1)."""
    if pres.free_rank + len(pres.torsion) != 1:
        return c, False
    if pres.torsion:
        n = pres.torsion[0]
        c = c % n
        return c, math.gcd(c, n) == 1
    return c, g.is_unit(c)
