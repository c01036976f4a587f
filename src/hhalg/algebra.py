"""Finite-rank graded algebras over a BaseRing.

Algebras are presented by generators and homogeneous noncommutative
relations, realized to an explicit monomial basis by rewriting (with a
critical-pair completion pass), and manipulated through structure
constants.  Laurent powers never appear explicitly: every structure
constant is a ground scalar whose v-power is implied by the degrees of
the three monomials involved, exactly as in HomogeneousMap.

check_action is the one action check: associativity of a structure
table, the module axioms of resolve.AModule and the algebra-map property
of hochschild's action map mu all go through it.  Like the algebra
isomorphism test and dg's Leibniz check, it compares only the pairs
(generator, basis element), for the algebra's generating_monomials: a
set that reaches every monomial by left multiplication from the unit,
verified when the algebra is built.  A tensor product reads its pairs and
steps off its factors (_TensorAlgebra).
"""

from __future__ import annotations

import itertools
from functools import cached_property

from .base import BaseRing, GradedFreeModule, HomogeneousMap, tensor_module
from .ground import BudgetExceededError, GroundRing, Record, Value
from .linalg import Echelon, ExactMatrix, kernel_basis
from .tables import SubquotientPresentation


class RealizeError(ValueError):
    """Presentation cannot be realized (divergent, non-confluent, bad relation)."""


class DivergenceError(RealizeError, BudgetExceededError):
    """Rewriting or the monomial basis ran past its cap."""


# ---------------------------------------------------------------------------
# presentations and rewriting


class AlgebraPresentation(Value):
    """Generators, homogeneous relations, optional internal-degree truncation.

    Each relation is a list of terms (coeff, names, vexp) standing for
    coeff * v^vexp * product(names); the relation asserts the sum is zero.
    Without a Laurent generator all vexp must be 0.
    """

    _fields = ("base", "generators", "relations", "truncation")

    def __init__(self, base: BaseRing, generators, relations=(), truncation: int | None = None):
        self._init(base, generators, relations, truncation)


def _word_degree(word, degs):
    return sum(degs[g] for g in word)


class _Rewriter:
    """Length-lex rewriting for homogeneous noncommutative relations.

    Rules map a leading word to a scalar combination of strictly smaller
    words of the same internal degree (Laurent powers implied).  A naive
    critical-pair completion pass runs at construction; failure to
    complete within the cap is a hard error.
    """

    MAX_RULES = 2000

    def __init__(self, base: BaseRing, gen_degrees, relations, truncation):
        self.base = base
        self.g = base.ground
        self.degs = list(gen_degrees)
        self.trunc = truncation
        if truncation is not None:
            signs = {1 if d > 0 else -1 for d in self.degs if d != 0}
            if len(signs) > 1:
                raise RealizeError(
                    "truncation requires generator degrees of uniform sign"
                )
        self.rules = {}  # lead word -> rhs poly {word: scalar}
        pending = list(relations)
        for poly in pending:
            self._add_relation(poly)
        self._complete()

    # -- polynomial helpers --------------------------------------------
    def _prune(self, word):
        return self.trunc is not None and abs(_word_degree(word, self.degs)) > self.trunc

    @staticmethod
    def _key(word):
        return (len(word), word)

    def reduce(self, poly):
        """Fully reduce a {word: scalar} polynomial."""
        norm = self.g.normalize
        out = {}
        work = [(w, c) for w, c in poly.items()]
        while work:
            word, coeff = work.pop()
            if coeff == 0:
                continue
            if self._prune(word):
                continue
            hit = None
            for lead in self.rules:
                L = len(lead)
                for s in range(len(word) - L + 1):
                    if word[s:s + L] == lead:
                        hit = (s, lead)
                        break
                if hit:
                    break
            if hit is None:
                x = norm(out.get(word, 0) + coeff)
                if x:
                    out[word] = x
                else:
                    del out[word]
                continue
            s, lead = hit
            pre, post = word[:s], word[s + len(lead):]
            for w2, c2 in self.rules[lead].items():
                work.append((pre + w2 + post, norm(coeff * c2)))
        return out

    def _add_relation(self, poly) -> bool:
        poly = self.reduce(dict(poly))
        if not poly:
            return False
        lead = max(poly, key=self._key)
        lc = poly[lead]
        if not self.g.is_unit(lc):
            raise RealizeError(
                f"relation leading coefficient {lc} is not a unit; cannot orient"
            )
        if not lead:
            raise RealizeError("relations force 1 = 0")
        inv = self.g.inv(lc)
        rhs = {w: self.g.normalize(-inv * c) for w, c in poly.items() if w != lead}
        if len(self.rules) >= self.MAX_RULES:
            raise DivergenceError("rewriting system diverges (rule cap exceeded)")
        self.rules[lead] = rhs
        return True

    def _complete(self):
        """Resolve critical pairs until confluent; error if diverging."""
        changed = True
        while changed:
            changed = False
            leads = list(self.rules)
            for l1, l2 in itertools.product(leads, leads):
                for p1, p2 in self._superpositions(l1, l2):
                    r1 = self.reduce(p1)
                    r2 = self.reduce(p2)
                    if r1 == r2:
                        continue
                    diff = dict(r1)
                    for w, c in r2.items():
                        diff[w] = diff.get(w, 0) - c
                    if self._add_relation(diff):
                        changed = True

    def _superpositions(self, l1, l2):
        """The two one-step reductions of each superposition word of l1 and l2."""
        out = []
        r1, r2 = self.rules[l1], self.rules[l2]
        # proper overlap: suffix of l1 = prefix of l2
        for k in range(1, min(len(l1), len(l2))):
            if l1[-k:] == l2[:k]:
                p1 = {w + l2[k:]: c for w, c in r1.items()}
                p2 = {l1[:-k] + w: c for w, c in r2.items()}
                out.append((p1, p2))
        # containment: l2 strictly inside l1
        if l1 != l2:
            for s in range(len(l1) - len(l2) + 1):
                if l1[s:s + len(l2)] == l2:
                    p1 = dict(r1)
                    p2 = {l1[:s] + w + l1[s + len(l2):]: c for w, c in r2.items()}
                    out.append((p1, p2))
        return out

    def irreducible_words(self, n_gens, max_rank):
        """All irreducible words within the truncation bound, by BFS on length."""
        words = [()]
        level = [()]
        while level:
            nxt = []
            for w in level:
                for g in range(n_gens):
                    cand = w + (g,)
                    if self._prune(cand):
                        continue
                    # prefix is irreducible, so a lead can only occur as a suffix
                    if any(
                        len(lead) <= len(cand) and cand[-len(lead):] == lead
                        for lead in self.rules
                    ):
                        continue
                    nxt.append(cand)
            words.extend(nxt)
            if len(words) > max_rank:
                raise DivergenceError(
                    f"monomial basis diverges past {max_rank}; "
                    "add relations or a truncation bound"
                )
            level = nxt
        return words


# ---------------------------------------------------------------------------
# graded algebras


class GradedAlgebra:
    """A finite-rank graded algebra given by structure constants.

    mult[(i, j)] is the coordinate dict of e_i * e_j over the monomial
    basis; scalars carry implied Laurent powers.  The constructor is the
    store point: `_product` normalizes every structure constant, drops the
    zeros and checks degree additivity, and empty products are dropped, so
    the constructions below hand it plain sums and products; `tensor`'s
    products take the same step as they are computed.  The unit is a basis
    monomial.  Unitality is asserted at construction, and associativity as
    check_action on the left multiplications, unless check=False (used for
    constructions associative by design).

    generating_monomials are the non-unit monomials that the action checks
    pair with every basis element; by default all of them.  A declared set
    is verified whatever check says: a search from the unit, one step
    s * e_k = c e_m with c a unit, must reach every monomial.

    rewritten maps each presentation generator that the relations rewrite
    away to its normal form {monomial: scalar}; realize fills it, and every
    other construction leaves it empty.
    """

    _steps = None  # generation_steps(), once found

    def __init__(self, base: BaseRing, monomials, unit_index: int, mult, check=True,
                 generating_monomials=None, rewritten=None):
        self.base = base
        self.rewritten = dict(rewritten or {})
        self.monomials = tuple((str(n), int(d)) for n, d in monomials)
        self.unit_index = unit_index
        self.mult = {}
        for (i, j), vec in mult.items():
            if product := self._product(i, j, vec):
                self.mult[(i, j)] = product
        if self.base.degree_key(self.degree(self.unit_index)) != 0:
            raise ValueError("unit must sit in degree 0")
        if generating_monomials is None:
            self.generating_monomials = tuple(i for i in range(self.rank) if i != unit_index)
        else:
            self.generating_monomials = tuple(generating_monomials)
            self.generation_steps()
        if check:
            self._check_unit()
            # (e_i e_j) e_k = e_i (e_j e_k) for every k says that the left
            # multiplications L_i L_j = L_{e_i e_j}: a left action of A on A
            try:
                check_action(self, self.module, {i: self.left_mult(i) for i in range(self.rank)})
            except ValueError as e:
                raise ValueError(f"associativity fails: {e}") from None

    # -- basic structure ------------------------------------------------
    @property
    def rank(self):
        return len(self.monomials)

    @cached_property
    def module(self) -> GradedFreeModule:
        """The underlying free module, built once; not a field, so equality ignores it."""
        return GradedFreeModule(self.base, self.monomials)

    def degree(self, i):
        return self.monomials[i][1]

    def parity(self, i):
        return self.monomials[i][1] % 2

    def mul_basis(self, i, j):
        return self.mult.get((i, j), {})

    def mul_coords(self, x: dict, y: dict) -> dict:
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                ab = a * b
                for k, c in self.mul_basis(i, j).items():
                    out[k] = out.get(k, 0) + ab * c
        return self.base.ground.canonical(out)

    def left_mult(self, i) -> HomogeneousMap:
        M = self.module
        entries = {}
        for j in range(self.rank):
            for k, c in self.mul_basis(i, j).items():
                entries[(k, j)] = c
        return HomogeneousMap(M, M, self.degree(i), entries)

    # -- construction checks ---------------------------------------------
    def _product(self, i, j, vec) -> dict:
        """vec as the stored product e_i e_j: canonical, and degree-additive."""
        out = self.base.ground.canonical(vec)
        d = self.monomials[i][1] + self.monomials[j][1]
        for k in out:
            if not self.base.compatible(d, 0, self.monomials[k][1]):
                raise ValueError(f"structure constant ({i},{j})->{k} violates degree additivity")
        return out

    def _check_unit(self):
        u = self.unit_index
        one = self.base.ground.one
        for i in range(self.rank):
            if self.mul_basis(u, i) != {i: one} or self.mul_basis(i, u) != {i: one}:
                raise ValueError(f"unit is not two-sided at basis element {i}")

    def action_pairs(self):
        """The pairs (x, y) of monomials whose products check_action compares:
        (s, e_j) for s in generating_monomials and every basis element e_j."""
        return ((s, j) for s in self.generating_monomials for j in range(self.rank))

    def generation_steps(self) -> tuple:
        """Steps (m, s, k, c), s * e_k = c e_m with c a unit, of a search from the
        unit that reaches each other monomial m once, from a k reached before
        it; ValueError if a monomial is missed.  Searched once, then kept."""
        if self._steps is not None:
            return self._steps
        gens = self.generating_monomials
        if any(s == self.unit_index or not 0 <= s < self.rank for s in gens):
            raise ValueError("generating monomials must be non-unit monomial indices")
        g = self.base.ground
        reached, steps = {self.unit_index}, []
        level = [self.unit_index]
        while level:
            nxt = []
            for k in level:
                for s in gens:
                    vec = self.mul_basis(s, k)
                    if len(vec) == 1:
                        (m, c), = vec.items()
                        if m not in reached and g.is_unit(c):
                            reached.add(m)
                            nxt.append(m)
                            steps.append((m, s, k, c))
            level = nxt
        if len(reached) < self.rank:
            missed = min(set(range(self.rank)) - reached)
            raise ValueError(f"generating monomials do not reach monomial {missed}")
        self._steps = tuple(steps)
        return self._steps

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GradedAlgebra)
            and self.base == other.base
            and self.monomials == other.monomials
            and self.unit_index == other.unit_index
            and self.mult == other.mult
        )


def check_action(A: GradedAlgebra, M: GradedFreeModule, maps):
    """Raise ValueError unless e_i |-> maps[i] is a unital left action of A on M.

    maps holds HomogeneousMaps on M keyed by monomial index; absent
    monomials act by zero.  Every map's degree and the unit's action are
    checked, and then only the pairs (x, y) of A.action_pairs(): the action
    rho must have rho(x y) = rho(x) o rho(y).  The action of the product is
    subtracted from the composite, built off the first map's column index,
    in one entry dict, and the pair fails unless that difference is
    canonically zero.  A product may wrap a Laurent period; entries carry
    only ground scalars, so both sides are read in the degree of the pair.

    This is exact for an associative A.  A GradedAlgebra's pairs are (s, y)
    for s in A.generating_monomials.  The x with rho(x y) = rho(x) rho(y)
    for all y form a ground submodule T that holds the unit.  It is closed
    under x |-> s x for a generator s:
        rho(s x y) = rho(s) rho(x y) = rho(s) rho(x) rho(y) = rho(s x) rho(y).
    The steps of A.generation_steps() reach every monomial from the unit,
    so T = A.  On the left multiplications of a table not yet known to be
    associative, the same argument with T = {x : (x a) b = x (a b)} shows
    that the check is associativity.  A tensor product's pairs are proved
    in its action_pairs.  A right S-module is a left opposite(S)-module.
    """
    g = A.base.ground
    key = A.base.degree_key
    for i, f in maps.items():
        if f.source != M or f.target != M or key(f.degree) != key(A.degree(i)):
            raise ValueError(f"monomial {i} does not act by an endomorphism of its degree")
    unit = maps.get(A.unit_index)
    if (unit.entries if unit else {}) != {(k, k): g.one for k in range(M.rank)}:
        raise ValueError("unit does not act as identity")
    for x, y in A.action_pairs():
        diff = {}  # maps[x] o maps[y] minus the action of the product
        if x in maps and y in maps:
            columns = maps[x].by_column()
            for (t, m), c in maps[y].entries.items():
                for r, d in columns.get(t, ()):
                    diff[(r, m)] = diff.get((r, m), 0) + d * c
        for t, c in A.mul_basis(x, y).items():
            if t in maps:
                for rm, v in maps[t].entries.items():
                    diff[rm] = diff.get(rm, 0) - c * v
        if g.canonical(diff):
            raise ValueError(f"left action fails on pair ({x},{y})")


def realize(p: AlgebraPresentation, max_rank: int = 4096) -> GradedAlgebra:
    """Build the explicit algebra presented by p.

    The monomial basis is the set of irreducible words under the rewriting
    system obtained by orienting the relations length-lexicographically
    (generator order as listed) and completing critical pairs.  The
    words of length 1 generate: every suffix of an irreducible word is
    irreducible.  A generator whose one-letter word is not irreducible is
    recorded in `rewritten` with its normal form (empty when it vanishes).
    """
    base = p.base
    period = base.period
    names = [n for n, _ in p.generators]
    degs = [d for _, d in p.generators]
    name_to_idx = {n: i for i, n in enumerate(names)}
    if len(name_to_idx) != len(names):
        raise RealizeError("duplicate generator names")

    polys = []
    for rel in p.relations:
        poly = {}
        rel_deg = None
        for coeff, words, vexp in rel:
            word = tuple(name_to_idx[w] for w in words)
            d = _word_degree(word, degs) + (vexp * period if period else 0)
            if vexp and not period:
                raise RealizeError("Laurent power in relation over a plain base")
            if rel_deg is None:
                rel_deg = d
            elif d != rel_deg:
                raise RealizeError(
                    f"relation not homogeneous: term of degree {d} vs {rel_deg}"
                )
            poly[word] = poly.get(word, 0) + coeff
        polys.append(base.ground.canonical(poly))

    rw = _Rewriter(base, degs, polys, p.truncation)
    words = rw.irreducible_words(len(names), max_rank)
    words.sort(key=lambda w: (len(w), w))
    index = {w: i for i, w in enumerate(words)}

    def word_name(w):
        return "1" if not w else "*".join(names[g] for g in w)

    def normal_form(word):
        vec = {}
        for w, c in rw.reduce({word: base.ground.one}).items():
            if w not in index:
                raise RealizeError("reduction produced a non-basis word")
            vec[index[w]] = c
        return vec

    monomials = [(word_name(w), _word_degree(w, degs)) for w in words]
    mult = {}
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if vec := normal_form(wi + wj):
                mult[(i, j)] = vec
    return GradedAlgebra(base, monomials, index[()], mult,
                         generating_monomials=[i for i, w in enumerate(words) if len(w) == 1],
                         rewritten={n: normal_form((g,)) for g, n in enumerate(names)
                                    if (g,) not in index})


# ---------------------------------------------------------------------------
# functorial constructions


def opposite(A: GradedAlgebra) -> GradedAlgebra:
    """The Koszul-signed opposite: a o b = (-1)^{|a||b|} b a.  A right A-module is a
    left opposite(A)-module by a o x = (-1)^{|a||x|} x a, so A_A is its regular module."""
    mult = {}
    for (i, j), vec in A.mult.items():
        odd = A.parity(i) and A.parity(j)
        mult[(j, i)] = {k: -c for k, c in vec.items()} if odd else vec
    return GradedAlgebra(A.base, A.monomials, A.unit_index, mult, check=False,
                         generating_monomials=A.generating_monomials)


class _TensorAlgebra(GradedAlgebra):
    """A (x) B with each product computed in mul_basis on first read, then kept.

    The full table `mult` is built only when something reads it (equality,
    opposite, a tensor of this algebra), from the factors' stored pairs.
    Construction computes no product; steps and action pairs come from the factors.
    """

    def __init__(self, A: GradedAlgebra, B: GradedAlgebra):
        nB = B.rank
        self.base = A.base
        self.monomials = tensor_module(A.module, B.module).generators
        self.unit_index = A.unit_index * nB + B.unit_index
        self.rewritten = {}
        self._factors = (A, B)
        self._slots = {}
        self.generating_monomials = tuple(
            [s * nB + B.unit_index for s in A.generating_monomials]
            + [A.unit_index * nB + t for t in B.generating_monomials])

    def generation_steps(self) -> tuple:
        """A's steps lifted to (s (x) 1)(k (x) 1) = c m (x) 1, then for each monomial
        a of A, B's to (1 (x) t)(a (x) k) = (-1)^{|t||a|} c a (x) m; each is checked
        on the one product it names, rank(A) rank(B) products in all."""
        if self._steps is None:
            A, B = self._factors
            nB, uA, uB, norm = B.rank, A.unit_index, B.unit_index, self.base.ground.normalize
            steps = [(m * nB + uB, s * nB + uB, k * nB + uB, c)
                     for m, s, k, c in A.generation_steps()]
            steps += [(a * nB + m, uA * nB + t, a * nB + k,
                       norm(-c) if A.parity(a) and B.parity(t) else c)
                      for a in range(A.rank) for m, t, k, c in B.generation_steps()]
            for m, s, k, c in steps:
                if self.mul_basis(s, k) != {m: c}:
                    raise ValueError(f"generating monomials do not reach monomial {m}")
            self._steps = tuple(steps)
        return self._steps

    def action_pairs(self):
        """(a (x) 1, 1 (x) b) for non-unit a, b; (s (x) 1, a (x) 1); (1 (x) t, 1 (x) b);
        (1 (x) t, s (x) 1); for s and t generating A and B.  These suffice.

        Write alpha(a) = rho(a (x) 1) and beta(b) = rho(1 (x) b) for a left
        action rho.  The first family gives rho(a (x) b) = alpha(a) beta(b).
        The second and third make alpha and beta actions, by check_action's
        argument.  With the first, the fourth gives beta(t) alpha(s) =
        (-1)^{|s||t|} alpha(s) beta(t), which extends along A's steps,
          beta(t) alpha(s a) = +- alpha(s) beta(t) alpha(a) = +- alpha(s a) beta(t),
        then along B's to all a and b (the period is even: parities add).  So
        rho(a (x) b) rho(a' (x) b') = (-1)^{|b||a'|} alpha(a a') beta(b b'),
        which is rho((a (x) b)(a' (x) b')).  Each pair is compared through
        this algebra's own mul_basis, so a wrong composite or sign still fails.
        """
        A, B = self._factors
        nB, u = B.rank, self.unit_index
        left = [a * nB + B.unit_index for a in range(A.rank)]  # a (x) 1
        right = [A.unit_index * nB + b for b in range(B.rank)]  # 1 (x) b
        S = [left[s] for s in A.generating_monomials]
        T = [right[t] for t in B.generating_monomials]
        return itertools.chain(
            ((x, y) for x in left if x != u for y in right if y != u),
            itertools.product(S, left), itertools.product(T, right), itertools.product(T, S))

    def mul_basis(self, i, j):
        """(a (x) b)(a' (x) b') = (-1)^{|b||a'|} aa' (x) bb', the one place this sign is written."""
        vec = self._slots.get((i, j))
        if vec is None:
            A, B = self._factors
            nB = B.rank
            (i1, j1), (i2, j2) = divmod(i, nB), divmod(j, nB)
            avec = A.mul_basis(i1, i2)
            bvec = B.mul_basis(j1, j2) if avec else {}
            sign = -1 if (B.parity(j1) and A.parity(i2)) else 1
            vec = self._slots[(i, j)] = self._product(i, j, {
                ka * nB + kb: sign * ca * cb for ka, ca in avec.items() for kb, cb in bvec.items()})
        return vec

    @cached_property
    def mult(self):
        """The full table: the slot of each pair of the factors' stored products."""
        A, B = self._factors
        nB = B.rank
        table = {}
        for i1, i2 in A.mult:
            for j1, j2 in B.mult:
                ij = (i1 * nB + j1, i2 * nB + j2)
                if vec := self.mul_basis(*ij):
                    table[ij] = vec
        return table


def tensor(A: GradedAlgebra, B: GradedAlgebra) -> GradedAlgebra:
    """Graded tensor product: (a@b)(a'@b') = (-1)^{|b||a'|} aa' @ bb'.

    Products are computed as they are read (see _TensorAlgebra)."""
    if A.base != B.base:
        raise ValueError("tensor over different bases")
    return _TensorAlgebra(A, B)


# ---------------------------------------------------------------------------
# graded center


def center_basis(A: GradedAlgebra) -> dict:
    """Basis vectors of the graded center, grouped by degree slice key.

    Returns {key: list of coordinate dicts}; z is graded-central when
    z a = (-1)^{|z||a|} a z for every basis element a.
    """
    base = A.base
    g = base.ground
    by_key = {}
    for m, (_, d) in enumerate(A.monomials):
        by_key.setdefault(base.degree_key(d), []).append(m)
    out = {}
    for key, idxs in by_key.items():
        zpar = key % 2
        # one row per (basis element j, output coordinate k)
        row_map = {}
        columns = []
        for m in idxs:
            col = {}
            for j in range(A.rank):
                sign = -1 if (zpar and A.parity(j)) else 1
                diff = dict(A.mul_basis(m, j))
                for k, v in A.mul_basis(j, m).items():
                    diff[k] = diff.get(k, 0) - sign * v
                for k, v in g.canonical(diff).items():
                    col[row_map.setdefault((j, k), len(row_map))] = v
            columns.append(col)
        vecs = kernel_basis(ExactMatrix.from_columns(g, len(row_map), columns))
        out[key] = [{idxs[c]: v for c, v in vec.items()} for vec in vecs]
    return {k: v for k, v in out.items() if v}


def center(A: GradedAlgebra) -> dict:
    """Graded center of A, one SubquotientPresentation per degree slice key."""
    out = {}
    for key, vecs in center_basis(A).items():
        # kernel_basis vectors are independent (a lattice basis over Z)
        out[key] = SubquotientPresentation(len(vecs))
    return out


# ---------------------------------------------------------------------------
# radical


def _mat_pow_trace(M: ExactMatrix, e: int):
    g = M.ground
    R = ExactMatrix.identity(g, M.rows)
    B = M
    while e:
        if e & 1:
            R = R.mul(B)
        B = B.mul(B)
        e >>= 1
    return sum(R[i, i] for i in range(M.rows))


def radical(A: GradedAlgebra) -> list:
    """Basis of the Jacobson radical; ground must be a finite prime field.

    Trace-form chain with integer lifts: starting from the full algebra,
    intersect with the kernel of x -> tr(L_{xy}^{p^k}) / p^k mod p over all
    y in the current subspace, for k = 0 .. ceil(log_p rank).  The traces
    are taken over Z on canonical lifts; over F_p itself the plain trace
    form only captures the k = 0 layer.
    """
    g = A.base.ground
    if g.kind != "Fp":
        raise ValueError("radical requires a finite prime field ground")
    p = g.p
    n = A.rank
    lift = GroundRing.integers()

    def lift_left_mult(coords):
        columns = []
        for j in range(n):
            col = {}
            for i, a in coords.items():
                for k2, c in A.mul_basis(i, j).items():
                    col[k2] = col.get(k2, 0) + (a % p) * (c % p)
            columns.append(lift.canonical(col))
        return ExactMatrix.from_columns(lift, n, columns)

    basis = [{i: g.one} for i in range(n)]
    l = 0
    while p ** l < n:
        l += 1
    for k in range(l + 1):
        if not basis:
            break
        q = p ** k
        rows = []
        for y in basis:
            row = []
            for x in basis:
                xy = A.mul_coords(x, y)
                t = _mat_pow_trace(lift_left_mult(xy), q)
                if t % q != 0:
                    raise ArithmeticError("trace chain divisibility violated")
                row.append((t // q) % p)
            rows.append(row)
        new_basis = []
        for combo in kernel_basis(ExactMatrix(g, rows)):
            vec = {}
            for a, c in combo.items():
                for m, v in basis[a].items():
                    vec[m] = vec.get(m, 0) + c * v
            vec = g.canonical(vec)
            if vec:
                new_basis.append(vec)
        basis = new_basis
    return basis


# ---------------------------------------------------------------------------
# ideals and quotients (field grounds)


def ideal_closure(A: GradedAlgebra, vectors) -> list:
    """Two-sided ideal generated by the given vectors, as an echelon basis."""
    g = A.base.ground
    if not g.is_field:
        raise ValueError("ideal closure implemented over field grounds")
    span = Echelon(g)
    queue = [v for v in vectors if span.add(v)]
    while queue:
        x = queue.pop()
        for i in range(A.rank):
            for y in (A.mul_coords({i: g.one}, x), A.mul_coords(x, {i: g.one})):
                if span.add(y):
                    queue.append(y)
    return [span.rows[p] for p in sorted(span.rows)]


def quotient_by_ideal(A: GradedAlgebra, ideal_vectors) -> GradedAlgebra:
    """A / I for a two-sided homogeneous ideal given by a spanning set.

    The kept monomials are the non-pivots of I's echelon basis, and a
    product is its normal form modulo I.
    """
    g = A.base.ground
    if not g.is_field:
        raise ValueError("quotients implemented over field grounds")
    span = Echelon(g)
    for v in ideal_vectors:
        span.add(v)
    if A.unit_index in span.rows:
        raise ValueError("ideal contains the unit")
    keep = [i for i in range(A.rank) if i not in span.rows]
    position = {i: a for a, i in enumerate(keep)}
    monomials = [A.monomials[i] for i in keep]
    mult = {}
    for a, i in enumerate(keep):
        for b, j in enumerate(keep):
            vec = span.reduce(A.mul_basis(i, j))
            if vec:
                mult[(a, b)] = {position[k]: vec[k] for k in sorted(vec)}
    return GradedAlgebra(A.base, monomials, position[A.unit_index], mult)


def semisimple_quotient(A: GradedAlgebra) -> GradedAlgebra:
    rad = radical(A)
    if not rad:
        return A
    return quotient_by_ideal(A, rad)


# ---------------------------------------------------------------------------
# isomorphism search


class IsoResult(Record):
    _fields = ("isomorphic", "witness")

    def __init__(self, isomorphic: bool, witness: HomogeneousMap | None = None):
        self.isomorphic, self.witness = isomorphic, witness


def algebra_isomorphic(A: GradedAlgebra, B: GradedAlgebra, budget: int = 100000) -> IsoResult:
    """Search for a unit-preserving degree-0 algebra isomorphism A -> B.

    Enumerates all ground-scalar degree-0 linear maps over a finite prime
    field (the Laurent powers on entries are implied by degrees, so the
    scalar assignment determines the map).  Raises BudgetExceededError if
    the candidate space is larger than the budget and no witness is found
    within it, so a negative result always comes from a completed scan.
    """
    if A.base != B.base or A.rank != B.rank:
        return IsoResult(False)
    g = A.base.ground
    if g.kind != "Fp":
        raise ValueError("isomorphism search requires a finite prime field ground")
    base = A.base
    MA, MB = A.module, B.module
    positions = []
    for i in range(A.rank):
        if i == A.unit_index:
            continue
        for j in range(B.rank):
            if base.compatible(A.degree(i), 0, B.degree(j)):
                positions.append((j, i))
    total = g.p ** len(positions)
    tried = 0
    for assignment in itertools.product(range(g.p), repeat=len(positions)):
        if tried >= budget:
            raise BudgetExceededError(
                f"isomorphism search budget {budget} exhausted "
                f"({total} candidates total)"
            )
        tried += 1
        entries = {(B.unit_index, A.unit_index): g.one}
        for (j, i), c in zip(positions, assignment):
            if c:
                entries[(j, i)] = c
        f = HomogeneousMap(MA, MB, 0, entries)
        if _is_algebra_iso(A, B, f):
            return IsoResult(True, f)
    if tried < total:
        raise BudgetExceededError(
            f"isomorphism search budget {budget} exhausted ({total} candidates total)"
        )
    return IsoResult(False)


def _is_algebra_iso(A: GradedAlgebra, B: GradedAlgebra, f: HomogeneousMap) -> bool:
    """Bijective, f(1) = 1 and f(s e_j) = f(s) f(e_j) for s in A's generating set.

    Exact by check_action's argument with T = {x : f(x y) = f(x) f(y)}.
    """
    g = A.base.ground
    if not f.is_iso():
        return False
    images = [f.apply_coords({i: g.one}) for i in range(A.rank)]
    if images[A.unit_index] != {B.unit_index: g.one}:
        return False
    return all(
        f.apply_coords(A.mul_basis(s, j)) == B.mul_coords(images[s], fj)
        for s in A.generating_monomials
        for j, fj in enumerate(images)
    )


def _endomorphism_pairs(M: GradedFreeModule):
    """The elementary maps (i, j): M_i -> M_j after the identity, in basis order."""
    return [(i, j) for i in range(M.rank) for j in range(M.rank) if (i, j) != (0, 0)]


def endomorphism_action(M: GradedFreeModule) -> dict:
    """The natural action of endomorphism_algebra(M) on M, by monomial index.

    Monomial 0 is the identity and monomial k the elementary map
    _endomorphism_pairs(M)[k - 1]: M_i -> M_j.
    """
    one = M.base.ground.one
    action = {0: HomogeneousMap.identity(M)}
    for k, (i, j) in enumerate(_endomorphism_pairs(M), 1):
        action[k] = HomogeneousMap(M, M, M.degrees[j] - M.degrees[i], {(j, i): one})
    return action


def endomorphism_algebra(M: GradedFreeModule) -> GradedAlgebra:
    """End(M) of a free graded module, with composition as the product.

    The identity map must be a basis monomial, so the basis is the identity
    together with the elementary maps e_ij: M_i -> M_j for (i, j) != (0, 0);
    the missing e_00 is the identity minus the other diagonal maps.  The
    product a * b is the composite of the two maps of endomorphism_action
    (b first), rewritten on that basis.  The adjacent maps M_i -> M_{i+1}, M_{i-1}
    generate: composing them walks from any M_i to any M_j.
    """
    if M.rank == 0:
        raise ValueError("endomorphisms of the zero module have no unit monomial")
    pairs = _endomorphism_pairs(M)
    action = endomorphism_action(M)

    def to_basis(entries):
        # entries[(j, i)] is the coefficient of e_ij; e_00 = id - sum of e_ii.
        # The entries are canonical, and a difference of two canonical
        # scalars is zero only when they are equal, so the zero test is exact.
        c00 = entries.get((0, 0), 0)
        out = {0: c00} if c00 != 0 else {}
        for k, (i, j) in enumerate(pairs, 1):
            c = entries.get((j, i), 0) - (c00 if i == j else 0)
            if c != 0:
                out[k] = c
        return out

    names = [n for n, _ in M.generators]
    monomials = [("id", 0)] + [
        (f"[{names[i]}->{names[j]}]", M.degrees[j] - M.degrees[i]) for i, j in pairs
    ]
    mult = {(a, b): to_basis(fa.compose(fb).entries)
            for a, fa in action.items() for b, fb in action.items()}
    adjacent = [k for k, (i, j) in enumerate(pairs, 1) if abs(i - j) == 1]
    return GradedAlgebra(M.base, tuple(monomials), 0, mult, generating_monomials=adjacent)
