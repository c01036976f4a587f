"""The four benchmark workloads: inputs made from a seed, jobs, canonical results.

Every job returns a JSON-compatible canonical form of its result (table rows
with torsion, Azumaya condition verdicts, CLI stdout/stderr and exit code),
which run.py compares against references.json.  The results are
mathematical invariants, so one reference set holds for every seed; the seed
only changes the generated inputs (sampled End(E) degrees, greedy resolution
seeds, CLI command order).

Importing this module imports hhalg, so the set-up probe times both.
"""

from __future__ import annotations

import json
import os
import random

# Engine functions are called through their modules, so that the tracer's
# rebinding of module attributes reaches calls made from here.
from hhalg import algebra, azumaya, defs, hochschild, resolve
from hhalg.base import BaseRing, GradedFreeModule, LaurentGenerator
from hhalg.ground import GroundRing, ZZ

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
DATA = os.path.join(SRC, "hhalg", "data")

# The bundled corpus commands.  Three longer ones are left out and their
# times recorded in README.md: hochschild on polytrunc --nmax 2, hochschild
# on exterior_n --nmax 3, and weak azumaya on k1k1_trunc.
CLI_COMMANDS = (
    "ext --file exterior1.def",
    "ext --file exterior_n.def --smax 6",
    "ext --file exterior_n.def --smax 6 --format json",
    "ext --file polytrunc.def --smax 5",
    "ext --file ku2.def",
    "ext --file k1k1_trunc.def",
    "hochschild --file matrix.def --nmax 3",
    "hochschild --file ku2.def --nmax 4",
    "hochschild --file exterior_n.def --nmax 2",
    "azumaya --file matrix.def",
    "azumaya --file azumaya_dg.def --flavor generalized",
    "azumaya --file azumaya_dg.def --flavor weak",
    "azumaya --file ku2.def --flavor weak",
    "morita --file etale.def --check completion",
    "morita --file etale.def --check roundtrip",
    "morita --file etale.def --check torsion",
    "homology --file azumaya_dg.def",
    "mu-image --file azumaya_dg.def",
)


# ---------------------------------------------------------------------------
# canonical results


def table_canon(table):
    return {"rows": [[s, t, fr, list(tors)] for s, t, fr, tors in table.rows()],
            "notes": list(table.notes)}


def report_canon(report):
    """Condition names and verdicts; witnesses carry seed-dependent ranks."""
    return {"conditions": [[c.name, bool(c.verdict)] for c in report.conditions],
            "overall": bool(report.overall)}


# ---------------------------------------------------------------------------
# inputs, built through the definition parser where a presentation exists


def _definition(ground, algebras, laurent=None):
    base = {"ground": ground}
    if laurent:
        base["laurent"] = {"name": "v", "degree": 2}
    return json.dumps({"base": base, "algebras": algebras})


def _build_one(text, name):
    return defs.build_algebra(defs.parse_definition(text), name)


def exterior(n, ground="F3"):
    names = [f"x{i}" for i in range(1, n + 1)]
    rels = [f"{a}^2" for a in names]
    rels += [f"{a}*{b} + {b}*{a}" for i, a in enumerate(names) for b in names[i + 1:]]
    text = _definition(ground, {"lam": {"generators": [[a, -1] for a in names],
                                        "relations": rels}})
    return _build_one(text, "lam")


def truncated_line_over_z(k):
    """Z[y]/y^k with |y| = 1."""
    text = _definition("Z", {"P": {"generators": [["y", 1]],
                                   "relations": [f"y^{k}"]}})
    return _build_one(text, "P")


def matrix_algebras():
    with open(os.path.join(DATA, "matrix.def")) as fh:
        df = defs.parse_definition(fh.read())
    return defs.build_algebra(df, "M2_F3"), defs.build_algebra(df, "M2_F5")


def quotient_dgas():
    """The two-cell quotient family over Z[v^±1], x in {2, 3, 5}, w in {0, 1}."""
    algs = {f"A{x}_{w}": {"dg": {"x": x, "w": w}} for x in (2, 3, 5) for w in (0, 1)}
    df = defs.parse_definition(_definition("Z", algs, laurent=True))
    return [(name, defs.build_algebra(df, name)) for name, _ in df.algebras]


def free_module(base, degrees):
    return GradedFreeModule(base, tuple((f"e{j}", d) for j, d in enumerate(degrees)))


def sampled_endomorphism_algebras(rng):
    """The criterion-7 family: 20 End(E), E free of rank 1 + i % 3.

    Alternates F5 and F2[v^±1]; the degrees are drawn from the seed.  The
    rank pattern is fixed so that the amount of work does not depend on it.
    """
    F5 = BaseRing(GroundRing.prime_field(5))
    KU2 = BaseRing(GroundRing.prime_field(2), LaurentGenerator("v", 2))
    out = []
    for i in range(20):
        base = F5 if i % 2 == 0 else KU2
        degs = [rng.randint(-3, 3) for _ in range(1 + i % 3)]
        out.append(algebra.endomorphism_algebra(free_module(base, degs)))
    return out


# ---------------------------------------------------------------------------
# job lists: (name, thunk) pairs; a thunk returns the canonical result


def ext_resolve_jobs(seed):
    rng = random.Random(seed)
    L3, L4 = exterior(3), exterior(4)
    k3 = resolve.AModule.trivial(L3)
    res_seed = rng.randrange(1 << 30)

    def greedy():
        res = resolve.free_resolution(L3, k3, s_max=6, seed=res_seed)
        return table_canon(resolve.ext_with_coefficients(res, k3))

    return [
        ("ext_table lam3/F3 s<=6", lambda: table_canon(resolve.ext_table(L3, s_max=6))),
        ("ext_table lam4/F3 s<=4", lambda: table_canon(resolve.ext_table(L4, s_max=4))),
        ("free_resolution lam3/F3 trivial s<=6", greedy),
    ]


def hochschild_bar_jobs(seed):
    rng = random.Random(seed)
    M3, M5 = matrix_algebras()
    Z3, Z4 = truncated_line_over_z(3), truncated_line_over_z(4)
    jobs = []
    for label, A in (("M2(F3)", M3), ("M2(F5)", M5)):
        env_seed = rng.randrange(1 << 30)
        jobs.append((f"bar {label} n<=3",
                     lambda A=A: table_canon(hochschild.hochschild_cohomology(A, n_max=3))))
        jobs.append((f"enveloping {label} n<=3",
                     lambda A=A, s=env_seed: table_canon(
                         hochschild.hochschild_via_enveloping(A, n_max=3, seed=s))))
    jobs.append(("bar Z[y]/y^3 n<=6",
                 lambda: table_canon(hochschild.hochschild_cohomology(Z3, n_max=6))))
    jobs.append(("bar Z[y]/y^4 n<=4",
                 lambda: table_canon(hochschild.hochschild_cohomology(Z4, n_max=4))))
    return jobs


def azumaya_mu_jobs(seed):
    rng = random.Random(seed)
    sampled = sampled_endomorphism_algebras(rng)
    end_f5_4 = algebra.endomorphism_algebra(free_module(BaseRing(GroundRing.prime_field(5)),
                                                [0, 0, 0, 0]))
    end_z_3 = algebra.endomorphism_algebra(free_module(BaseRing(ZZ), [0, 0, 0]))
    dgas = quotient_dgas()
    M3, _ = matrix_algebras()

    def dg_verdicts():
        return [[name, report_canon(azumaya.check_generalized_azumaya(q.dga)),
                 report_canon(azumaya.check_weak_azumaya(q.dga))] for name, q in dgas]

    return [
        ("weak End(E) x20 sampled",
         lambda: [report_canon(azumaya.check_weak_azumaya(E)) for E in sampled]),
        ("weak End(F5^4)", lambda: report_canon(azumaya.check_weak_azumaya(end_f5_4))),
        ("classical End(Z^3)", lambda: report_canon(azumaya.check_classical_azumaya(end_z_3))),
        ("generalized+weak quotient DGAs", dg_verdicts),
        ("classical M2(F3)", lambda: report_canon(azumaya.check_classical_azumaya(M3))),
    ]


def cli_argv(command):
    """The argv of one corpus command, with the data file resolved."""
    argv = command.split()
    i = argv.index("--file") + 1
    argv[i] = os.path.join(DATA, argv[i])
    return argv


def cli_order(seed):
    """The corpus commands in a seed-dependent order."""
    order = list(CLI_COMMANDS)
    random.Random(seed).shuffle(order)
    return order


IN_PROCESS = {
    "ext_resolve": ext_resolve_jobs,
    "hochschild_bar": hochschild_bar_jobs,
    "azumaya_mu": azumaya_mu_jobs,
}
