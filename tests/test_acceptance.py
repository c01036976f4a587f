"""End-to-end acceptance gate: eleven criteria, one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
pass/fail lines; each criterion also carries its own runtime bound.
"""

import itertools
import random
import time
from math import comb

from hhalg.algebra import (
    AlgebraPresentation,
    algebra_isomorphic,
    endomorphism_algebra,
    opposite,
    realize,
)
from hhalg.azumaya import check_generalized_azumaya, check_weak_azumaya
from hhalg.base import BaseRing, GradedFreeModule, HomogeneousMap, LaurentGenerator
from hhalg.dg import make_quotient_dga
from hhalg.ground import GroundRing, ZZ
from hhalg.hochschild import (
    check_enveloping_against_bar,
    hochschild_cohomology,
    hochschild_via_enveloping,
    mu_homology_image,
)
from hhalg.linalg import ExactMatrix, factor, smith_normal_form
from hhalg.morita import (
    MoritaContext,
    collapsed_ranks,
    completion,
    completion_matches,
    retract_identity,
    roundtrip_FG,
)
from hhalg.resolve import AModule, ext_base_change, ext_table, minimal_resolution, yoneda_square

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
F5 = GroundRing.prime_field(5)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))
KUZ = BaseRing(ZZ, LaurentGenerator("v", 2))


def _run(n, desc, limit, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"criterion {n:2d}: FAIL - {desc}")
        raise
    dt = time.perf_counter() - t0
    print(f"criterion {n:2d}: pass ({dt:.2f}s) - {desc}")
    assert dt < limit, f"criterion {n} exceeded its {limit}s budget ({dt:.2f}s)"


def exterior(base, names_degrees):
    gens = tuple(names_degrees)
    names = [na for na, _ in gens]
    rels = [[(1, (a, a), 0)] for a in names]
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            rels.append([(1, (b, a), 0), (1, (a, b), 0)])
    return realize(AlgebraPresentation(base, gens, tuple(rels)))


def matrix_algebra(p):
    base = BaseRing(GroundRing.prime_field(p))
    return realize(AlgebraPresentation(base, (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def b2():
    return realize(AlgebraPresentation(KU2, (("t0", 1),),
                                       ([(1, ("t0", "t0"), 0), (-1, (), 1)],)))


def lam_tau():
    return exterior(KU2, (("t0", 1),))


def local_ctx(R, A):
    E = GradedFreeModule(BaseRing(F3), (("e", 0),))
    ident = HomogeneousMap.identity(E)
    return MoritaContext(AModule(R, E, {R.unit_index: ident}),
                         AModule(A, E, {A.unit_index: ident}))


def test_criterion_1_exterior_ext_is_power_series():
    def body():
        A = exterior(BaseRing(F3), (("x", -1),))
        t = ext_table(A, s_max=6)
        assert set(t.entries) == {(s, -s) for s in range(7)}
        assert all(p.free_rank == 1 for p in t.entries.values())
    _run(1, "Ext over a rank-2 exterior line is one class per stage", 1, body)


def test_criterion_2_truncated_polynomial_window_limited():
    def body():
        A = realize(AlgebraPresentation(BaseRing(F3), (("y", 1),),
                                        ([(1, ("y",) * 20, 0)],)))
        t = ext_table(A, s_max=5, t_window=(-16, 16))
        ranks = [sum(p.free_rank for (s, _), p in t.entries.items() if s == n)
                 for n in range(6)]
        assert ranks == [1, 1, 0, 0, 0, 0]
    _run(2, "window-limited Ext over a degree-20 truncated polynomial line", 1, body)


def test_criterion_3_binomial_pattern_and_yoneda_squares():
    def body():
        for n in (2, 3):
            A = exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(n)))
            t = ext_table(A, s_max=6)
            for s in range(7):
                assert t.entries[(s, -s)].free_rank == comb(s + n - 1, n - 1)
            res = minimal_resolution(A, s_max=2)
            for j in range(len(res.stages[1].gen_degrees)):
                assert yoneda_square(res, {j: 1}, -1) != {}
    _run(3, "binomial Ext ranks and nonzero Yoneda squares, n = 2, 3", 10, body)


def test_criterion_4_periodic_diagonal_and_base_change():
    def body():
        t = ext_table(lam_tau(), s_max=8)
        assert set(t.entries) == {(s, s) for s in range(9)}
        assert all(p.free_rank == 1 for p in t.entries.values())
        # truncated two-generator presentation through its semisimple part
        A = realize(AlgebraPresentation(KU2, (("a0", 1), ("t1", 2)), (
            [(1, ("a0", "a0"), 0), (-1, ("t1",), 0)],
            [(1, ("t1", "t1"), 0), (-1, ("t1",), 1)],
            [(1, ("t1", "a0"), 0), (-1, ("a0", "t1"), 0)],
        )))
        S = realize(AlgebraPresentation(KU2, (("t1", 2),), (
            [(1, ("t1", "t1"), 0), (-1, ("t1",), 1)],
        )))
        t1_idx = [na for na, _ in A.monomials].index("t1")
        inc = HomogeneousMap(S.module, A.module, 0, {(0, 0): 1, (t1_idx, 1): 1})
        assert ext_base_change(A, S, inc, s_max=8) == t
    _run(4, "diagonal Ext over the periodic exterior line, two routes", 30, body)


def test_criterion_5_generalized_azumaya_verdicts():
    def body():
        for p in (3, 5):
            r = check_generalized_azumaya(make_quotient_dga(KUZ, p, 1).dga,
                                          window=(-6, 6))
            assert r.overall and r.conditions[2].verdict
        for x, w in ((2, 1), (3, 0)):
            r = check_generalized_azumaya(make_quotient_dga(KUZ, x, w).dga,
                                          window=(-6, 6))
            assert not r.conditions[2].verdict
    _run(5, "generalized verdicts for the two-cell quotient family", 10, body)


def test_criterion_6_mu_image_coefficient():
    def body():
        r = mu_homology_image(make_quotient_dga(KUZ, 3, 1))
        assert r.is_unit
        assert r.coefficient in (r.modeled_defect, -r.modeled_defect)
        r0 = mu_homology_image(make_quotient_dga(KUZ, 3, 0))
        assert r0.coefficient == 0
    _run(6, "mu sends the alpha class to the modeled commutator defect", 5, body)


def test_criterion_7_weak_azumaya_corpus():
    def body():
        assert check_weak_azumaya(b2()).overall
        assert not check_weak_azumaya(lam_tau()).overall
        rng = random.Random(2026)
        for i in range(20):
            base = BaseRing(F5) if i % 2 == 0 else KU2
            degs = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))]
            E = GradedFreeModule(base, tuple((f"e{j}", d)
                                             for j, d in enumerate(degs)))
            assert check_weak_azumaya(endomorphism_algebra(E)).overall
    _run(7, "weak verdicts: quotient shadows and 20 sampled endomorphism "
            "algebras", 30, body)


def test_criterion_8_non_isomorphism():
    def body():
        r = algebra_isomorphic(lam_tau(), b2())
        # a negative verdict comes only from a completed scan: a budget
        # short of it raises BudgetExceededError
        assert not r.isomorphic
    _run(8, "exhaustive non-isomorphism of the two rank-2 shadows", 10, body)


def test_criterion_9_hochschild_of_matrix_algebras():
    def body():
        for p in (3, 5):
            A = matrix_algebra(p)
            bar = hochschild_cohomology(A, n_max=3)
            env = hochschild_via_enveloping(A, n_max=3)
            check_enveloping_against_bar(A, env, bar, 3)
            for t in (bar, env):
                assert t.entries[(0, 0)].free_rank == 1
                assert all(s == 0 for (s, _) in t.entries)
            assert {k: v.free_rank for k, v in bar.entries.items()} == \
                   {k: v.free_rank for k, v in env.entries.items()}
    _run(9, "Hochschild of 2x2 matrix algebras is the center, both paths", 60, body)


def test_criterion_10_morita_roundtrips():
    def body():
        # the split corpus: R = F3 x F3, E = the first factor, A = F3
        R = realize(AlgebraPresentation(BaseRing(F3), (("t", 0),),
                                        ([(1, ("t", "t"), 0), (-1, ("t",), 0)],)))
        A = realize(AlgebraPresentation(BaseRing(F3), (), ()))
        E = GradedFreeModule(BaseRing(F3), (("e", 0),))
        ident = HomogeneousMap.identity(E)
        tmon = [i for i in range(R.rank) if i != R.unit_index][0]
        ctx = MoritaContext(AModule(R, E, {R.unit_index: ident, tmon: ident}),
                            AModule(A, E, {A.unit_index: ident}))
        for Y in (AModule.regular(A), ctx.E_A):
            assert roundtrip_FG(ctx, Y)
        # right R-modules are left modules over opposite(R)
        for X in (AModule.regular(opposite(R)),
                  AModule(opposite(R), E, ctx.E_R.action)):
            assert retract_identity(ctx, X)
        # adic shadows: truncated polynomial and exterior lines
        trunc = lambda T: realize(AlgebraPresentation(
            BaseRing(F3), (("y", 1),), ([(1, ("y",) * T, 0)],)))
        lam = exterior(BaseRing(F3), (("x", -1),))
        ctx1, ctx2 = local_ctx(trunc(20), lam), local_ctx(lam, trunc(20))
        reg = lambda c: AModule.regular(opposite(c.R))
        # the exterior line is already complete: in-window equivalence
        X2 = reg(ctx2)
        assert completion_matches(completion(ctx2, X2), X2.module, compare=(-10, 10))
        # idempotence in-window: ex:2 materializes to itself; ex:1's
        # completed pattern, realized by a deeper truncation, re-completes
        # to the same table
        c1 = completion(ctx1, reg(ctx1), window=(-12, 12), s_max=8)
        deep = local_ctx(trunc(24), lam)
        c1b = completion(deep, reg(deep), window=(-12, 12), s_max=8)
        take = lambda t: {d: r for d, r in collapsed_ranks(t).items()
                          if 0 <= d <= 6}
        assert take(c1) == take(c1b)
        assert all(take(c1).get(d) == 1 for d in range(7))
        c2 = completion(ctx2, reg(ctx2), window=(-12, 12), s_max=8)
        c2b = completion(ctx2, reg(ctx2), window=(-12, 12), s_max=8)
        assert c2 == c2b
    _run(10, "split-corpus round trips, retract identity, adic completions",
         30, body)


def test_criterion_11_substrate_smith_forms():
    def body():
        rng = random.Random(2024)
        p = 3
        for _ in range(200):
            r, c = rng.randint(1, 5), rng.randint(1, 5)
            rows = [[rng.randint(-5, 5) for _ in range(c)] for _ in range(r)]
            M = ExactMatrix(ZZ, rows)
            sf = smith_normal_form(M)
            assert sf.U.mul(M).mul(sf.V) == sf.D
            Mp = ExactMatrix(GroundRing.prime_field(p), rows)
            images = {frozenset(Mp.apply(dict(enumerate(v))).items())
                      for v in itertools.product(range(p), repeat=c)}
            size = p ** r // len(images)
            assert p ** factor(Mp).cokernel().free_rank == size
    _run(11, "Smith identities and cokernels against enumeration, 200 "
             "seeded matrices", 10, body)
