"""Azumaya certification: classical, generalized (DG), and weak flavors.

Each check returns an AzumayaReport: one list of conditions with their
verdicts and witnesses, which callers render themselves; the overall
verdict is the conjunction.  The condition names say which flavor ran: a
classical check routed to the generalized one reports its conditions.
The heart of every flavor is invertibility of the action map mu from
A (x) A^op to Hom(A, A), and every flavor takes that condition from one
helper, _mu_condition: exactly, slice by slice (hochschild.mu_is_iso), for
ungraded/graded algebras, and as a quasi-isomorphism over an explicit
window in the DG case, where the window must cover the Laurent period
(BudgetExceededError otherwise).  endo_smash_invariant decides the same two
questions, an action (algebra.check_action) and a bijective action map,
for End(E1) (x) End(E2) acting on E1 (x) E2.
"""

from __future__ import annotations

from .algebra import GradedAlgebra, endomorphism_action, endomorphism_algebra, tensor
from .base import GradedFreeModule, HomogeneousMap, tensor_maps, tensor_module
from .dg import DGAlgebra, dg_unit_kernel, homology_at, is_quasi_iso
from .ground import BudgetExceededError, Record
from .hochschild import action_map_mu, mu_is_iso
from .resolve import AModule


class Condition(Record):
    _fields = ("name", "verdict", "witness")

    def __init__(self, name: str, verdict: bool, witness: str = ""):
        self.name, self.verdict, self.witness = name, verdict, witness


class AzumayaReport(Record):
    _fields = ("conditions",)

    def __init__(self, conditions: list):
        self.conditions = conditions

    @property
    def overall(self) -> bool:
        return all(c.verdict for c in self.conditions)


def _rank(A) -> int:
    return A.algebra.rank if isinstance(A, DGAlgebra) else A.rank


def _check_window(A: DGAlgebra, window):
    lo, hi = window
    period = A.base.period
    if period and hi - lo + 1 < period:
        raise BudgetExceededError(
            f"window {window} shorter than the Laurent period {period}"
        )


def _mu_condition(name, A, window, failures=False) -> Condition:
    """The mu condition of every flavor: exact per degree slice on a
    GradedAlgebra, a quasi-isomorphism over the window on a DGAlgebra.

    The window must cover the Laurent period; `failures` appends the
    failing degrees to a DG witness.
    """
    if isinstance(A, GradedAlgebra):
        return Condition(name, mu_is_iso(A), "checked per degree slice")
    _check_window(A, window)
    v = is_quasi_iso(action_map_mu(A), window)
    witness = f"window {tuple(window)}"
    if failures and v.failures:
        witness += f", failures at {v.failures}"
    return Condition(name, v.is_quasi_iso, witness)


def check_classical_azumaya(A, window=(-4, 4)) -> AzumayaReport:
    """Classical flavor: finite rank, zero unit kernel, mu invertible.

    Graded input (nonzero generator degrees or a Laurent base) is routed to
    the generalized check.  A DGAlgebra stands for a classical quotient of
    the ground ring: its H_0 is the algebra under test, and the unit kernel
    is computed from the differential.
    """
    if isinstance(A, GradedAlgebra):
        if A.base.laurent or any(d != 0 for d in A.module.degrees):
            return check_generalized_azumaya(A, window)
        unit = Condition("unit kernel zero", True, "free algebra over the base")
    else:
        gen = dg_unit_kernel(A)
        unit = Condition("unit kernel zero", gen == 0, f"kernel ideal ({gen})")
    return AzumayaReport([
        Condition("finite free rank", True, f"rank {_rank(A)}"),
        unit,
        _mu_condition("mu invertible", A, window),
    ])


def check_generalized_azumaya(A, window=(-6, 6)) -> AzumayaReport:
    """DG flavor: perfectness, the locality shadow, and mu a quasi-iso.

    A GradedAlgebra is checked as a DGAlgebra with zero differential.  The
    full locality condition is not decidable here; the report verifies the
    checkable consequence I * H_0(A) = 0 (I the unit-kernel ideal) and
    records whether I itself vanishes in the witness, without folding that
    open question into the verdict.
    """
    if isinstance(A, GradedAlgebra):
        A = DGAlgebra(A, HomogeneousMap.zero(A.module, A.module, -1))
    gen = dg_unit_kernel(A)
    h0 = homology_at(A.complex(), 0)
    return AzumayaReport([
        Condition("perfect complex", True, f"finite free rank {_rank(A)}"),
        Condition(
            "locality shadow: I * H0(A) = 0",
            _ideal_annihilates(A.base.ground, gen, h0),
            f"I = ({gen}); I = 0: {'true' if gen == 0 else 'false (left open)'}",
        ),
        _mu_condition("mu quasi-isomorphism", A, window, failures=True),
    ])


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
    c = _quotient_shadow_defect(A) if isinstance(A, GradedAlgebra) else None
    if c is not None:
        mu = Condition("mu weak equivalence", A.base.ground.is_unit(c),
                       f"quotient shadow: mu maps the alpha class to ({c}) * beta-dual")
    elif isinstance(A, DGAlgebra):
        mu = _mu_condition("mu weak equivalence", A, window)
    else:
        mu = _mu_condition("mu invertible", A, window)
    return AzumayaReport([
        Condition("dualizable", True, f"finite free rank {_rank(A)}"),
        mu,
    ])


# ---------------------------------------------------------------------------
# endomorphisms and smash products


def endo_smash_invariant(E1: GradedFreeModule, E2: GradedFreeModule) -> bool:
    """Whether End(E1) (x) End(E2) -> End(E1 (x) E2) is an algebra isomorphism.

    f (x) g acts on E1 (x) E2 as tensor_maps(f, g), x (x) y |-> (-1)^{|g||x|}
    f(x) (x) g(y).  The map is multiplicative against the Koszul-signed
    tensor algebra exactly when these maps are an action (check_action, run
    by AModule), and it is the module's action map, so bijectivity is
    action_map().is_iso().
    """
    act1, act2 = endomorphism_action(E1), endomorphism_action(E2)
    n2 = len(act2)
    action = {a * n2 + b: tensor_maps(f, g) for a, f in act1.items() for b, g in act2.items()}
    T = tensor(endomorphism_algebra(E1), endomorphism_algebra(E2))
    try:
        M = AModule(T, tensor_module(E1, E2), action)
    except ValueError:
        return False
    return M.action_map().is_iso()
