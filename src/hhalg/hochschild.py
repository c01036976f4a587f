"""Hochschild cohomology as Ext over the enveloping algebra A^e = A (x) A^op.

A bimodule over A is a left module (resolve.AModule) over A^e, with
(a (x) b) . x = (-1)^{|b||x|} a . x . b, so HH^n(A, M) = Ext^n_{A^e}(A, M).
hh_resolution picks the resolution of A over A^e, with cover mu, that
HH is read off, trying three routes in order:

  * a monomial algebra (monomial_words) is resolved by Bardzell's
    resolution (J. Algebra 188, 1997), free on the chains of Anick (Trans.
    AMS 296, 1986): one generator per chain, against the bar's
    (rank A - 1)^n words, so Z[y]/y^N has one in every degree;
  * a separable algebra, one with a separability witness e in A^e
    (separability_witness, verified by multiplication), is projective over
    A^e, so HH^n(A, M) = 0 for n >= 1 (Auslander-Goldman, Trans. AMS 97,
    1960) and HH^0 is read off the bar cut at n = 0;
  * every other algebra takes the normalized bar resolution through n_max.

One budget rule holds for every route: stage n is kept while its
generators times rank M fit the budget.  hochschild_cohomology reads every
route by one reader: resolve.hom_cochains, d^2 = 0, the cohomology table.
BarCochainComplex, the bar whatever the route, is the tests' cross-check.

HH is computed independently as resolve.derived_hom(A, A) over A^e, the
free resolution that the Morita functors G and S also read: minimal when A,
so A^e, is local, else seeded greedy; check_enveloping_against_bar
compares the two tables.  It also holds the action map mu from A^e to
Hom(A, A) (the regular bimodule's AModule.action_map), and the homology
image of the alpha class under mu for the two-term quotient DGA family.

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


def _multiplication(A: GradedAlgebra, F0: FreeAModule) -> HomogeneousMap:
    """mu: F_0 = Ae -> A, e_a (x) e_b |-> e_a e_b off A's table, the cover of A."""
    return HomogeneousMap(F0.module, A.module, 0, {
        (k, F0.flat_index(0, m)): c for m in range(F0.algebra.rank)
        for k, c in A.mul_basis(*divmod(m, A.rank)).items()})


def bar_resolution(A: GradedAlgebra, Ae: GradedAlgebra, top: int) -> Resolution:
    """The normalized bar resolution B_0 <- ... <- B_top of A over Ae = tensor(A, opposite(A)).

    B_n = A (x) Abar^{(x)n} (x) A is free on the words [a1|...|an] of
    non-unit monomials (itertools.product order), in degree |a1|+...+|an|:

      d[a1|...|an] = (a1 (x) 1) [a2|...|an] + sum_{i<n} (-1)^i [...|a_i a_{i+1}|...]
                     + (-1)^{n + |an|(|a1|+...+|a_{n-1}|)} (1 (x) an) [a1|...|a_{n-1}],

    the last face being [a1|...|a_{n-1}] . an written through Ae; the cover is mu.
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
    return Resolution(stages, maps, _multiplication(A, stages[0]))


def _check_bimodule(M: AModule, Ae: GradedAlgebra):
    """Raise ValueError unless M is a module over Ae = tensor(A, opposite(A)) as a table:
    a rank test would pass a module over another algebra of rank (rank A)^2."""
    if M.algebra != Ae:
        raise ValueError("M must be a bimodule: a module over tensor(A, opposite(A))")


def _within_budget(levels, size, M: AModule, top: int, budget: int) -> list:
    """The one budget rule: the leading levels, at most top + 2, each a stage
    of size(level) generators with size(level) * rank M <= budget.  Fewer
    than two stages fit no cochain degree."""
    kept = list(itertools.takewhile(lambda level: size(level) * M.module.rank <= budget,
                                    itertools.islice(levels, top + 2)))
    if len(kept) < 2:
        raise BudgetExceededError("budget too small for any cochain degree")
    return kept


def _bar_top(A: GradedAlgebra, M: AModule, top: int, budget: int) -> int:
    """The last bar stage the budget keeps: B_n has (rank A - 1)^n generators,
    counted in closed form, so no word of a stage over the budget is listed."""
    return _within_budget(itertools.count(), lambda n: (A.rank - 1) ** n, M, top, budget)[-1]


def _hh_read(A: GradedAlgebra, res: Resolution, M: AModule, route: str, top: int, window):
    """The one reader: (the terms of hom_cochains(res, M), HH^n(A, M) for n <= top).

    d^2 = 0 is asserted, naming the route.  The table is complete through
    len(res.stages) - 2, with the budget note when that is short of top.  The
    cochains sit in degree -t, so they are read on (-hi, -lo) and keyed by -t.
    """
    terms, deltas = hom_cochains(res, M)
    for n in range(len(deltas) - 1):
        if not deltas[n + 1].compose(deltas[n]).is_zero():
            raise InvariantError(f"{route} differential fails d^2 = 0 at n = {n}")
    completed, (lo, hi) = len(deltas) - 1, window
    table = BigradedTable({(n, A.base.degree_key(-t)): p for (n, t), p in
                           cohomology_table(deltas, completed, (-hi, -lo)).entries.items()})
    if completed < top:
        table.completed_through = completed
        table.notes = (f"budget exceeded: completed through n = {completed}",)
    return terms, table


class BarCochainComplex:
    """The bar cross-check: HH^n(A, M), n <= n_max, off the normalized bar
    resolution whichever route A takes, through the bimodule guard, the one
    budget rule and the one reader.  terms are hom_cochains(B_*, M), one
    generator per (word, M-coordinate) in degree deg(word) - deg(coordinate);
    table is complete through `completed`.
    """

    def __init__(self, A: GradedAlgebra, M: AModule, n_max: int = 4,
                 budget: int = 200000, window=(-16, 16)):
        _check_bimodule(M, tensor(A, opposite(A)))
        top = _bar_top(A, M, n_max, budget)
        self.completed = top - 1
        self.terms, self.table = _hh_read(A, bar_resolution(A, M.algebra, top), M, "bar",
                                          n_max, window)


# ---------------------------------------------------------------------------
# monomial algebras: Bardzell's resolution on Anick's chains


def monomial_words(A: GradedAlgebra) -> dict | None:
    """{word: monomial index} when A is a monomial algebra, None otherwise.

    A word is a tuple of generating monomials, its letters.  Each monomial's
    word is read off A.generation_steps(), s * e_k = c e_m giving
    word(m) = (s,) + word(k), so every c must be 1.  A is monomial when the
    product of two basis words is their concatenation if that is a basis
    word, and 0 otherwise: a check of the coefficients alone would pass
    t0 * t0 = v * 1.  Associativity then closes the basis words under
    subwords, so A = k<letters>/(tips), the tips being the minimal words
    outside the basis (anick_chains).
    """
    one = A.base.ground.one
    words = [()] * A.rank
    for m, s, k, c in A.generation_steps():
        if c != one:
            return None
        words[m] = (s,) + words[k]
    index = {w: m for m, w in enumerate(words)}
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            m = index.get(wi + wj)
            if A.mul_basis(i, j) != ({} if m is None else {m: one}):
                return None
    return index


def anick_chains(words: dict, letters):
    """Anick's chains AP_0, AP_1, AP_2, ... of the monomial algebra whose basis
    words are `words`, one level per step of the iteration.

    AP_0 holds the empty word, AP_1 the letters and AP_2 the tips, the words
    x u outside the basis with u and x u[:-1] in it.  An (n+1)-chain extends
    an n-chain p by a tip t that starts inside p's last piece u and ends past
    it, t = u[-k:] v, with no other tip in u v: as tips are minimal, that is
    u v[:-1] being a basis word.  The new last piece is v.
    """
    tips = [(x,) + u for u in words for x in letters
            if (x,) + u[:-1] in words and (x,) + u not in words]
    yield [()]
    level = [((x,), 1) for x in letters]  # (chain, length of its last piece)
    while True:
        yield [p for p, _ in level]
        nxt = []
        for p, last in level:
            u = p[-last:]
            for t in tips:
                for k in range(1, min(last, len(t) - 1) + 1):
                    if t[:k] == u[-k:] and u + t[k:-1] in words:
                        nxt.append((p + t[k:], len(t) - k))
        level = nxt


def bardzell_resolution(A: GradedAlgebra, Ae: GradedAlgebra, words: dict,
                        chains: list) -> Resolution:
    """Bardzell's resolution P_0 <- ... <- P_top of a monomial algebra A over
    Ae = tensor(A, opposite(A)), top = len(chains) - 1.

    P_n = A (x) k.AP_n (x) A is free on the n-chains chains[n]
    (anick_chains), each in the degree of its word.  For p = L q R with q
    an (n-1)-chain,

      odd n:  d p = L q - q' R, q the (n-1)-chain ending p, q' the one starting it
      even n: d p = sum of L q R over every occurrence of an (n-1)-chain q in p,

    with L q R = (-1)^{|R||q|} (L (x) R) q written through Ae, as
    bar_resolution writes its last face; a term whose L or R is not a
    basis word is zero.  Both differentials have degree 0, so no other
    sign enters.  The cover is mu, as bar_resolution's.
    """
    r = A.rank

    def degree(w):
        return sum(map(A.degree, w))

    stages = [FreeAModule(Ae, tuple(map(degree, level))) for level in chains]
    maps = []
    for n in range(1, len(chains)):
        index = {q: i for i, q in enumerate(chains[n - 1])}
        lengths = sorted({len(q) for q in index})
        images = []
        for p in chains[n]:
            image = {}  # coordinates on P_{n-1}: (chain q, Ae monomial L (x) R)
            for i in range(len(p) + 1):
                for length in lengths:
                    L, q, R = p[:i], p[i:i + length], p[i + length:]
                    if (i + length > len(p) or q not in index or L not in words
                            or R not in words or n % 2 and L and R):
                        continue
                    c = -1 if n % 2 and not L else 1
                    if A.parity(words[R]) and degree(q) % 2:
                        c = -c
                    idx = stages[n - 1].flat_index(index[q], words[L] * r + words[R])
                    image[idx] = image.get(idx, 0) + c
            images.append(image)
        maps.append(AModuleMap(stages[n], stages[n - 1], images))
    return Resolution(stages, maps, _multiplication(A, stages[0]))


# ---------------------------------------------------------------------------
# separable algebras: one witness for every n


def _kernel_generators(A: GradedAlgebra) -> list:
    """s (x) 1 - 1 (x) s for each generating monomial s, as Ae coordinates.

    They generate ker mu as a left ideal of Ae: for a step s e_k = c e_m,
    (s e_k) (x) 1 - 1 (x) (s e_k) = (s (x) 1)(e_k (x) 1 - 1 (x) e_k)
    + (-1)^{|s||k|} (1 (x) e_k)(s (x) 1 - 1 (x) s), and
    a (x) b = (a (x) 1)(1 (x) b) is ab (x) 1 modulo the ideal.
    """
    one, r, u = A.base.ground.one, A.rank, A.unit_index
    return [{s * r + u: one, u * r + s: -one} for s in A.generating_monomials]


def separability_witness(A: GradedAlgebra, R: AModule) -> dict | None:
    """A verified separability witness of A, or None when the solve finds none.

    R is regular_bimodule(A), over Ae = tensor(A, opposite(A)).  A witness
    is an e on Ae's degree-0 slice with mu(e) = e . 1_A = 1 and x e = 0 for
    each x of _kernel_generators(A).  Right multiplication by e, y |-> y e,
    then kills ker mu, so it factors through mu: Ae -> A and splits it: A is
    a projective Ae-module and HH^n(A, M) = 0 for every n >= 1 and every
    bimodule M (Auslander-Goldman, Trans. AMS 97, 1960).

    The system is one factor(...).solve on columns read off mul_basis, one
    per unknown monomial; over Z the solve is integral, so an algebra whose
    witnesses all have fractions (the quaternion presentation of M_2) has
    none here.  A solution counts only after is_separability_witness
    multiplies it out.
    """
    Ae, g = R.algebra, A.base.ground
    r, u, size = A.rank, A.unit_index, Ae.rank
    unknowns = [m for m in range(size) if A.base.degree_key(Ae.degree(m)) == 0]
    kills = _kernel_generators(A)
    columns = []
    for m in unknowns:
        col = dict(A.mul_basis(*divmod(m, r)))  # rows 0..r-1: mu(e_a (x) e_b) = e_a e_b
        for i, x in enumerate(kills):  # then one block of Ae coordinates per x
            for left, c in x.items():
                for k, d in Ae.mul_basis(left, m).items():
                    col[r + i * size + k] = col.get(r + i * size + k, 0) + c * d
        columns.append(g.canonical(col))
    solution = factor(ExactMatrix.from_columns(g, r + len(kills) * size, columns)).solve(
        {u: g.one})
    if solution is None:
        return None
    e = {unknowns[j]: c for j, c in solution.items()}
    return e if is_separability_witness(A, R, e) else None


def is_separability_witness(A: GradedAlgebra, R: AModule, e: dict) -> bool:
    """Whether e is a separability witness of A, by multiplication alone:
    e sits on Ae's degree-0 slice, e acting on 1_A through the regular
    bimodule R gives 1_A, and Ae.mul_coords(x, e) = 0 for each kernel
    generator x (_kernel_generators)."""
    Ae, g, u = R.algebra, A.base.ground, A.unit_index
    if any(A.base.degree_key(Ae.degree(m)) != 0 for m in e):
        return False
    one = {u: g.one}
    mu = {}
    for m, c in e.items():
        for k, x in R.act(m, one).items():
            mu[k] = mu.get(k, 0) + c * x
    return g.canonical(mu) == one and not any(Ae.mul_coords(x, e) for x in _kernel_generators(A))


def hh_resolution(A: GradedAlgebra, R: AModule, M: AModule, n_max: int = 4,
                  budget: int = 200000) -> tuple:
    """(resolution, top, route): the resolution of A over A^e, cover mu,
    that HH^n(A, M), n <= top, is read off, and the route's name.

    R is regular_bimodule(A); M must be a bimodule, and the resolution is
    over M.algebra.  The first route that applies is taken: "Bardzell" for
    a monomial algebra (monomial_words), on Anick's chains; "separable" for
    one with a verified separability_witness, the bar cut at top = 0, as
    HH^n = 0 for n >= 1; "bar" for any other.  One budget rule holds for
    every route: stage n is kept while its generators times rank M are at
    most budget, and at most top + 2 stages are kept.
    """
    _check_bimodule(M, R.algebra)
    words = monomial_words(A)
    if words is not None:
        chains = _within_budget(anick_chains(words, A.generating_monomials), len, M, n_max,
                                budget)
        return bardzell_resolution(A, M.algebra, words, chains), n_max, "Bardzell"
    top, route = (0, "separable") if separability_witness(A, R) is not None else (n_max, "bar")
    return bar_resolution(A, M.algebra, _bar_top(A, M, top, budget)), top, route


def hochschild_cohomology(A: GradedAlgebra, M: AModule | None = None,
                          n_max: int = 4, window=(-16, 16),
                          budget: int = 200000) -> BigradedTable:
    """HH^n(A, M) per internal degree slice, keyed (n, t); M defaults to A.

    hh_resolution picks the route's resolution under the one budget rule,
    stage rank times rank M, and the one reader (_hh_read) makes the table.
    """
    _graded_only(A, "hochschild_cohomology")
    R = regular_bimodule(A)
    M = R if M is None else M
    res, top, route = hh_resolution(A, R, M, n_max, budget)
    return _hh_read(A, res, M, route, top, window)[1]


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
    resolved through stage n_max + 1 (seeded if A is not local).

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

    `bar` is hochschild_cohomology's table, so on a separable A it is the
    witness route's (HH^0 alone) and on a monomial A the chains'.  Free
    rank and torsion are compared per (n, slice key)
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
