"""Azumaya certification: classical, generalized (DG), and weak flavors.

Each check returns an AzumayaReport listing named conditions with their
verdicts and witnesses; the overall verdict is the conjunction.  The heart
of every flavor is invertibility of the action map mu from A (x) A^op to
Hom(A, A) -- exactly, slice by slice, for ungraded/graded algebras, and as
a quasi-isomorphism over an explicit window in the DG case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import GradedAlgebra
from .base import GradedFreeModule, HomogeneousMap
from .dg import DGAlgebra, dg_unit_kernel, homology_at, is_quasi_iso
from .hochschild import action_map_mu, mu_is_iso
from .linalg import ExactMatrix, rank as mat_rank


@dataclass
class Condition:
    name: str
    verdict: bool
    witness: str = ""


@dataclass
class AzumayaReport:
    subject: str
    flavor: str
    conditions: list = field(default_factory=list)

    @property
    def overall(self) -> bool:
        return all(c.verdict for c in self.conditions)

    def __str__(self):
        lines = [f"{self.subject} [{self.flavor}]"]
        for c in self.conditions:
            mark = "pass" if c.verdict else "FAIL"
            tail = f"  ({c.witness})" if c.witness else ""
            lines.append(f"  {mark}  {c.name}{tail}")
        lines.append(f"  overall: {'pass' if self.overall else 'FAIL'}")
        return "\n".join(lines)


def _describe(A) -> str:
    if isinstance(A, DGAlgebra):
        return f"dg-algebra(rank={A.algebra.rank}, base={A.base})"
    return f"algebra(rank={A.rank}, base={A.base})"


def _check_window(A: DGAlgebra, window):
    lo, hi = window
    period = A.base.period
    if period and hi - lo + 1 < period:
        raise ValueError(
            f"window {window} shorter than the Laurent period {period}"
        )


def check_classical_azumaya(A, window=(-4, 4)) -> AzumayaReport:
    """Classical flavor: finite rank, zero unit kernel, mu invertible.

    Graded input (nonzero generator degrees or a Laurent base) is routed to
    the generalized check.  A DGAlgebra stands for a classical quotient of
    the ground ring: its H_0 is the algebra under test, and the unit kernel
    is computed from the differential.
    """
    if isinstance(A, GradedAlgebra):
        if A.base.laurent or any(d != 0 for d in A.module.degrees):
            zero_d = HomogeneousMap.zero(A.module, A.module, -1)
            return check_generalized_azumaya(DGAlgebra(A, zero_d), window)
        report = AzumayaReport(_describe(A), "classical")
        report.conditions.append(
            Condition("finite free rank", True, f"rank {A.rank}")
        )
        report.conditions.append(
            Condition("unit kernel zero", True, "free algebra over the base")
        )
        report.conditions.append(
            Condition("mu invertible", mu_is_iso(A), "checked per degree slice")
        )
        return report
    # DG presentation of a classical quotient
    report = AzumayaReport(_describe(A), "classical")
    report.conditions.append(
        Condition("finite free rank", True, f"rank {A.algebra.rank}")
    )
    _, gen = dg_unit_kernel(A)
    report.conditions.append(
        Condition("unit kernel zero", gen == 0, f"kernel ideal ({gen})")
    )
    mu = action_map_mu(A)
    v = is_quasi_iso(mu, window)
    report.conditions.append(
        Condition("mu invertible", v.is_quasi_iso, f"window {v.window}")
    )
    return report


def check_generalized_azumaya(A: DGAlgebra, window=(-6, 6)) -> AzumayaReport:
    """DG flavor: perfectness, the locality shadow, and mu a quasi-iso.

    The full locality condition is not decidable here; the report verifies
    the checkable consequence I * H_0(A) = 0 (I the unit-kernel ideal) and
    records whether I itself vanishes in the witness, without folding that
    open question into the verdict.
    """
    _check_window(A, window)
    report = AzumayaReport(_describe(A), "generalized_dg")
    report.conditions.append(
        Condition("perfect complex", True, f"finite free rank {A.algebra.rank}")
    )
    _, gen = dg_unit_kernel(A)
    h0 = homology_at(A.complex(), 0)
    annihilates = _ideal_annihilates(A.base.ground, gen, h0)
    report.conditions.append(
        Condition(
            "locality shadow: I * H0(A) = 0",
            annihilates,
            f"I = ({gen}); I = 0: {'true' if gen == 0 else 'false (left open)'}",
        )
    )
    mu = action_map_mu(A)
    v = is_quasi_iso(mu, window)
    report.conditions.append(
        Condition(
            "mu quasi-isomorphism",
            v.is_quasi_iso,
            f"window {v.window}" + (f", failures at {v.failures}" if v.failures else ""),
        )
    )
    return report


def _ideal_annihilates(g, gen, pres) -> bool:
    """Whether the principal ideal (gen) kills the presented module."""
    if gen == 0:
        return True
    if pres.free_rank > 0:
        return False
    if g.is_field:
        return not pres.torsion  # gen is a unit
    return all(n != 0 and gen % n == 0 for n in pres.torsion)


def _quotient_shadow_defect(A: GradedAlgebra):
    """Commutator element of a rank-2 quotient shadow, or None.

    A rank-2 algebra {1, y} with y of odd degree records the homotopy of a
    two-cell quotient's enveloping algebra: y plays the alpha class, and
    y^2 is the commutator element c with mu(alpha) = c * (beta dual).  mu
    is then invertible exactly when c is a unit -- the honest verdict for
    these shadows, where the plain tensor over the base would miss the
    derived cross term entirely.
    """
    if A.rank != 2:
        return None
    y = 1 - A.unit_index
    if A.degree(y) % 2 == 0:
        return None
    g = A.base.ground
    return A.mul_basis(y, y).get(A.unit_index, g.zero)


def check_weak_azumaya(A, window=(-6, 6)) -> AzumayaReport:
    """Weak flavor: dualizability plus mu a (quasi-)isomorphism."""
    report = AzumayaReport(_describe(A), "weak")
    if isinstance(A, DGAlgebra):
        _check_window(A, window)
        report.conditions.append(
            Condition("dualizable", True, f"finite free rank {A.algebra.rank}")
        )
        v = is_quasi_iso(action_map_mu(A), window)
        report.conditions.append(
            Condition("mu weak equivalence", v.is_quasi_iso, f"window {v.window}")
        )
        return report
    report.conditions.append(
        Condition("dualizable", True, f"finite free rank {A.rank}")
    )
    c = _quotient_shadow_defect(A)
    if c is not None:
        g = A.base.ground
        report.conditions.append(
            Condition(
                "mu weak equivalence",
                g.is_unit(c),
                f"quotient shadow: mu maps the alpha class to ({c}) * beta-dual",
            )
        )
    else:
        report.conditions.append(
            Condition("mu invertible", mu_is_iso(A), "checked per degree slice")
        )
    return report


# ---------------------------------------------------------------------------
# endomorphisms and smash products


def endo_smash_invariant(E1: GradedFreeModule, E2: GradedFreeModule) -> bool:
    """Whether End(E1) (x) End(E2) -> End(E1 (x) E2) is an algebra isomorphism.

    The canonical map sends f (x) g to x (x) y |-> (-1)^{|g||x|} f(x) (x) g(y);
    multiplicativity against the Koszul-signed tensor product and bijectivity
    are both checked on elementary-map coordinates.
    """
    if E1.base != E2.base:
        raise ValueError("modules over different bases")
    g = E1.base.ground
    r1, r2 = E1.rank, E2.rank
    d1, d2 = E1.degrees, E2.degrees
    n1, n2 = r1 * r1, r2 * r2

    def theta(a, b):
        # elementary pair ((i->j), (k->l)) in End(E1 (x) E2) coordinates
        i, j = divmod(a, r1)
        k, l = divmod(b, r2)
        sign = -1 if ((d2[l] - d2[k]) % 2 and d1[i] % 2) else 1
        src = i * r2 + k
        tgt = j * r2 + l
        return (src * (r1 * r2) + tgt), g.normalize(sign)

    def compose_pairs(p, q, r):
        # (e_{i->j} o e_{k->l}) in a rank-r endomorphism coordinate system
        i, j = divmod(p, r)
        k, l = divmod(q, r)
        return (k * r + j) if l == i else None

    # multiplicativity on all basis 4-tuples
    for a1 in range(n1):
        for b1 in range(n2):
            t1, s1 = theta(a1, b1)
            for a2 in range(n1):
                aa = compose_pairs(a1, a2, r1)
                for b2 in range(n2):
                    t2, s2 = theta(a2, b2)
                    # Koszul sign of (f1 (x) g1)(f2 (x) g2)
                    k1, l1 = divmod(b1, r2)
                    i2, j2 = divmod(a2, r1)
                    ksign = -1 if ((d2[l1] - d2[k1]) % 2
                                   and (d1[j2] - d1[i2]) % 2) else 1
                    bb = compose_pairs(b1, b2, r2)
                    lhs = {}
                    if aa is not None and bb is not None:
                        t, s = theta(aa, bb)
                        lhs = {t: g.mul(g.normalize(ksign), s)}
                    tt = compose_pairs(t1, t2, r1 * r2)
                    rhs = {}
                    if tt is not None:
                        rhs = {tt: g.mul(s1, s2)}
                    lhs = {k: v for k, v in lhs.items() if v != 0}
                    rhs = {k: v for k, v in rhs.items() if v != 0}
                    if lhs != rhs:
                        return False
    # bijectivity of the full structure matrix
    n = n1 * n2
    columns = []
    for a in range(n1):
        for b in range(n2):
            t, s = theta(a, b)
            columns.append({t: s})
    return mat_rank(ExactMatrix.from_columns(g, n, columns)) == n
