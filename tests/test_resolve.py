import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hhalg import resolve
from hhalg.algebra import (AlgebraPresentation, BudgetExceededError, GradedAlgebra, opposite,
                           realize, tensor)
from hhalg.base import BaseRing, HomogeneousMap, LaurentGenerator, cohomology_at, slice_keys
from hhalg.ground import QQ, GroundRing
from hhalg.hochschild import regular_bimodule
from hhalg.linalg import Echelon, SmithForm
from hhalg.resolve import (
    AModule,
    AModuleMap,
    FreeAModule,
    ResolutionError,
    derived_hom,
    ext_base_change,
    ext_table,
    ext_with_coefficients,
    free_resolution,
    minimal_resolution,
    yoneda_square,
)

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))


def exterior(base, names_degrees):
    gens = tuple(names_degrees)
    rels = []
    names = [n for n, _ in gens]
    for a in names:
        rels.append([(1, (a, a), 0)])
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            rels.append([(1, (b, a), 0), (1, (a, b), 0)])
    return realize(AlgebraPresentation(base, gens, tuple(rels)))


def lam_x():
    return exterior(BaseRing(F3), (("x", -1),))


def lam_tau():
    return exterior(KU2, (("t", 1),))


def trunc_poly(T, deg, p=3):
    base = BaseRing(GroundRing.prime_field(p))
    return realize(AlgebraPresentation(base, (("y", deg),), (
        [(1, ("y",) * T, 0)],
    )))


def k1k1_op_trunc():
    # gens a0 (deg 1), t1 (deg 2); a0^2 = t1, t1^2 = v t1, commutative
    return realize(AlgebraPresentation(KU2, (("a0", 1), ("t1", 2)), (
        [(1, ("a0", "a0"), 0), (-1, ("t1",), 0)],
        [(1, ("t1", "t1"), 0), (-1, ("t1",), 1)],
        [(1, ("t1", "a0"), 0), (-1, ("a0", "t1"), 0)],
    )))


def sigma1():
    return realize(AlgebraPresentation(KU2, (("t1", 2),), (
        [(1, ("t1", "t1"), 0), (-1, ("t1",), 1)],
    )))


# -- minimal resolutions ------------------------------------------------------

def test_resolution_exterior_negative_degree():
    res = minimal_resolution(lam_x(), s_max=6)
    assert [st.rank for st in res.stages] == [1] * 7
    # stage-s generator sits in internal degree -s
    for s, st in enumerate(res.stages):
        assert st.gen_degrees == (-s,)


def test_resolution_truncated_polynomial_koszul():
    T, deg = 3, 2
    res = minimal_resolution(trunc_poly(T, deg), s_max=4)
    assert [st.rank for st in res.stages] == [1] * 5
    # alternating shifts: deg, (T-1)*deg, deg, ...
    degs = [st.gen_degrees[0] for st in res.stages]
    diffs = [b - a for a, b in zip(degs, degs[1:])]
    assert diffs == [deg, (T - 1) * deg, deg, (T - 1) * deg]


def test_resolution_of_base_algebra():
    one = realize(AlgebraPresentation(BaseRing(F3), (), ()))
    res = minimal_resolution(one, s_max=3)
    assert [st.rank for st in res.stages] == [1, 0, 0, 0]


def test_resolution_rejects_non_augmented():
    b2 = realize(AlgebraPresentation(KU2, (("t", 1),), (
        [(1, ("t", "t"), 0), (-1, (), 1)],
    )))
    with pytest.raises(ResolutionError):
        minimal_resolution(b2)


def test_resolution_rejects_non_nilpotent_ideal():
    with pytest.raises(ResolutionError):
        minimal_resolution(sigma1())


def b2():
    # F2[v^±1][t]/(t^2 - v): t t hits the unit
    return realize(AlgebraPresentation(KU2, (("t", 1),), ([(1, ("t", "t"), 0), (-1, (), 1)],)))


def test_augmentation_checks_multiply_by_the_generators_alone(monkeypatch):
    # F3[y]/y^20 (x) its opposite, rank 400: every non-unit monomial acting
    # made 3,032,400 mul_coords calls; the two generators make
    # 2 * sum(dim I^k) = 2 * sum over (i, j) of i + j = 15,200
    A = trunc_poly(20, 1)
    Ae = tensor(A, opposite(A))
    calls = []
    mul_coords = GradedAlgebra.mul_coords
    monkeypatch.setattr(GradedAlgebra, "mul_coords",
                        lambda self, x, y: calls.append(1) or mul_coords(self, x, y))
    resolve._augmentation_checks(Ae)
    assert len(calls) <= 15200
    # the verdicts hold on the enveloping algebras of refused algebras too
    for refused, message in ((sigma1(), "not nilpotent"), (b2(), "not augmented")):
        with pytest.raises(ResolutionError, match=message):
            resolve._augmentation_checks(tensor(refused, opposite(refused)))


# -- ext tables ---------------------------------------------------------------

def test_ext_exterior_tau_diagonal():
    t = ext_table(lam_tau(), s_max=6)
    assert {k for k in t.entries} == {(s, s) for s in range(7)}
    assert all(p.free_rank == 1 for p in t.entries.values())


def test_ext_two_exterior_generators_polynomial_pattern():
    A = exterior(BaseRing(F3), (("x1", -1), ("x2", -1)))
    t = ext_table(A, s_max=5)
    for s in range(6):
        assert t.entries[(s, -s)].free_rank == s + 1


def test_ext_binomial_pattern_up_to_three_generators():
    from math import comb
    for n in (1, 2, 3):
        A = exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(n)))
        t = ext_table(A, s_max=6)
        for s in range(7):
            assert t.entries[(s, -s)].free_rank == comb(s + n - 1, n - 1)


def test_ext_truncated_window_cut_is_exterior():
    # F3[y]/(y^20), |y| = 1: stage 2 sits at t = 20, outside [-16, 16]
    A = trunc_poly(20, 1)
    t = ext_table(A, s_max=6, t_window=(-16, 16))
    ranks = [sum(p.free_rank for (s2, _), p in t.entries.items() if s2 == s)
             for s in range(7)]
    assert ranks == [1, 1, 0, 0, 0, 0, 0]


def test_ext_permutation_independence():
    A = exterior(BaseRing(F3), (("x1", -1), ("x2", -2)))
    B = exterior(BaseRing(F3), (("x2", -2), ("x1", -1)))
    assert ext_table(A, s_max=4) == ext_table(B, s_max=4)


def test_hilbert_euler_consistency():
    # sum_s (-1)^s q^{t_g} * H_A(q) = 1 in all degrees the stages determine
    for A, s_max in ((lam_x(), 6), (trunc_poly(3, 2), 5), (trunc_poly(4, 1), 5)):
        res = minimal_resolution(A, s_max=s_max)
        E = {}
        for s, st in enumerate(res.stages):
            for t in st.gen_degrees:
                E[t] = E.get(t, 0) + (1 if s % 2 == 0 else -1)
        H = {}
        for _, d in A.monomials:
            H[d] = H.get(d, 0) + 1
        P = {}
        for t1, c1 in E.items():
            for t2, c2 in H.items():
                P[t1 + t2] = P.get(t1 + t2, 0) + c1 * c2
        top = res.stages[-1].gen_degrees
        amax = max(abs(d) for _, d in A.monomials)
        bound = (min(abs(t) for t in top) - amax) if top else 10 ** 6
        for t, c in P.items():
            if abs(t) < bound:
                assert c == (1 if t == 0 else 0), (t, c)


# -- non-minimal resolutions -----------------------------------------------------

def test_free_resolution_of_regular_module():
    A = lam_tau()
    res = free_resolution(A, AModule.regular(A), s_max=3)
    assert [st.rank for st in res.stages] == [1, 0, 0, 0]


def test_free_resolution_ext_matches_minimal():
    for A in (lam_tau(), trunc_poly(3, 2)):
        window = (-16, 40)
        s_max = 4
        mini = ext_table(A, s_max=s_max, t_window=window)
        res = free_resolution(A, AModule.trivial(A), s_max=s_max)
        via = ext_with_coefficients(res, AModule.trivial(A), window)
        for (s, t), p in via.entries.items():
            key = t % 2 if A.base.laurent else t
            want = sum(
                q.free_rank for (s2, t2), q in mini.entries.items()
                if s2 == s and (t2 % 2 if A.base.laurent else t2) == key
            )
            assert p.free_rank <= want
        for s in range(s_max):
            got = sum(p.free_rank for (s2, _), p in via.entries.items() if s2 == s)
            want = sum(p.free_rank for (s2, _), p in mini.entries.items() if s2 == s)
            assert got == want


def test_free_resolution_seed_determinism():
    A = trunc_poly(3, 2)
    r1 = free_resolution(A, AModule.trivial(A), s_max=3, seed=7)
    r2 = free_resolution(A, AModule.trivial(A), s_max=3, seed=7)
    assert [st.rank for st in r1.stages] == [st.rank for st in r2.stages]
    assert [m.images for m in r1.maps] == [m.images for m in r2.maps]


# -- base change -----------------------------------------------------------------

def test_ext_base_change_k1k1():
    A = k1k1_op_trunc()
    S = sigma1()
    # S includes via 1 -> 1, t1 -> the t1 monomial of A
    t1_idx = [n for n, _ in A.monomials].index("t1")
    inc = HomogeneousMap(S.module, A.module, 0, {(0, 0): 1, (t1_idx, 1): 1})
    table = ext_base_change(A, S, inc, s_max=5)
    lam_a0 = exterior(KU2, (("a0", 1),))
    assert table == ext_table(lam_a0, s_max=5)


def test_ext_base_change_trivial_subalgebra():
    A = exterior(KU2, (("a0", 1),))
    one = realize(AlgebraPresentation(KU2, (), ()))
    inc = HomogeneousMap(one.module, A.module, 0, {(0, 0): 1})
    assert ext_base_change(A, one, inc, s_max=4) == ext_table(A, s_max=4)


def test_ext_base_change_rejects_nilpotents():
    S = trunc_poly(2, 0, p=2)
    inc = HomogeneousMap.identity(S.module)
    with pytest.raises(ResolutionError):
        ext_base_change(S, S, inc)


# -- yoneda squares ----------------------------------------------------------------

def test_yoneda_square_polynomial_over_exterior():
    res = minimal_resolution(lam_tau(), s_max=3)
    out = yoneda_square(res, {0: 1}, 1)
    assert out and all(v != 0 for v in out.values())


def test_yoneda_square_zero_over_truncated():
    res = minimal_resolution(trunc_poly(4, 2), s_max=3)
    out = yoneda_square(res, {0: 1}, 2)
    assert out == {}


def test_yoneda_square_of_zero_class():
    res = minimal_resolution(lam_tau(), s_max=3)
    assert yoneda_square(res, {}, 1) == {}


def yoneda_square_oracle(res, cls, t):
    """The former lift: compose f1 with all of d2, solve every nonzero column
    of every F2 slice for f2, then read f2 on the stage-2 generators."""
    A = res.algebra
    g = A.base.ground
    F0, F1, F2 = res.stages[0], res.stages[1], res.stages[2]
    d1f, d2f = res.maps[0].flatten(), res.maps[1].flatten()
    f1 = AModuleMap(F1, F0, [{A.unit_index: cls[j]} if j in cls else {}
                             for j in range(F1.rank)], degree=-t)
    rhs = f1.flatten().compose(d2f)
    entries = {}
    F2flat, F1flat = d2f.source, d1f.source
    for key in F2flat.degree_support():
        src_idx = F1flat.slice_indices(key - t)
        rmat, rsrc, _ = rhs.slice_matrix(key)
        for target, j in zip(rmat.columns, rsrc):
            if target:
                sol = d1f.factored(key - t).solve(target)
                for r, v in sol.items():
                    entries[(src_idx[r], j)] = v
    f2flat = HomogeneousMap(F2flat, F1flat, -t, entries)
    out = {}
    for jj in range(F2.rank):
        col = f2flat.apply_coords({F2.flat_index(jj, A.unit_index): g.one})
        for idx, v in col.items():
            i, m = divmod(idx, A.rank)
            if m == A.unit_index and i in cls:
                out[jj] = out.get(jj, 0) + cls[i] * v
    return g.canonical(out)


YONEDA_CASES = {
    "lam2/F2": lambda: exterior(BaseRing(F2), (("x", -1), ("y", -1))),
    "lam3/F3": lambda: exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(3))),
    "F3[y]/y^3": lambda: trunc_poly(3, 2),
    "F5[y]/y^4": lambda: trunc_poly(4, 2, p=5),
    "lam(t)/F2[v^±1]": lam_tau,
    "degrees -1, -2": lambda: exterior(BaseRing(F3), (("x", -1), ("y", -2))),
}


def seeded_classes(res, seed):
    """Per degree t of the stage-1 generators: each basis class and two
    seeded random combinations, as (class, t) pairs."""
    rng = random.Random(seed)
    p = res.algebra.base.ground.p
    by_degree = {}
    for j, t in enumerate(res.stages[1].gen_degrees):
        by_degree.setdefault(t, []).append(j)
    out = []
    for t, js in sorted(by_degree.items()):
        out += [({j: 1}, t) for j in js]
        out += [({j: rng.randrange(p) for j in js}, t) for _ in range(2)]
    return out


@pytest.mark.parametrize("case", sorted(YONEDA_CASES))
def test_yoneda_square_matches_the_former_lift(case):
    res = minimal_resolution(YONEDA_CASES[case](), s_max=3)
    classes = seeded_classes(res, seed=sorted(YONEDA_CASES).index(case))
    assert classes
    for cls, t in classes:
        assert yoneda_square(res, cls, t) == yoneda_square_oracle(res, cls, t), (cls, t)


@pytest.mark.parametrize("n", [3, 4])
def test_yoneda_square_solves_once_per_stage_two_generator(n, monkeypatch):
    # the former lift solved every nonzero column of every F2 slice: 36
    # solves for the three squares on lam3/F3 and 128 for the four on lam4/F3
    calls = []
    real = SmithForm.solve

    def counting(self, b):
        calls.append(b)
        return real(self, b)

    res = minimal_resolution(exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(n))),
                             s_max=3)
    monkeypatch.setattr(SmithForm, "solve", counting)
    squares = [yoneda_square(res, {j: 1}, -1) for j in range(res.stages[1].rank)]
    assert all(squares)
    assert len(calls) == n * res.stages[2].rank


@pytest.mark.parametrize("make, stage, rank", [
    # drop the one generator of F_2: d_2 = 0 no longer covers ker(d_1)
    pytest.param(lam_x, 2, 1, id="F_2 of lam(x)/F3"),
    # drop one of the two generators of F_1: im(d_1) no longer covers ker(augmentation)
    pytest.param(lambda: exterior(BaseRing(F3), (("x1", -1), ("x2", -1))), 1, 2,
                 id="F_1 of lam2/F3"),
])
def test_minimal_resolution_audit_catches_a_dropped_generator(make, stage, rank, monkeypatch):
    real = resolve._minimal_generators
    stages = []

    def dropping(target, vectors):
        chosen = real(target, vectors)
        stages.append(len(chosen))
        return chosen[:-1] if len(stages) == stage + 1 else chosen

    # the first call covers the trivial module, so F_s is the call s + 1
    monkeypatch.setattr(resolve, "_minimal_generators", dropping)
    with pytest.raises(ResolutionError, match=f"exactness fails at stage {stage - 1}"):
        minimal_resolution(make(), s_max=4)
    assert stages[stage] == rank


# -- the one loop against the former hand-written minimal loop ---------------------

def _oracle_flat_kernel(fmap):
    out = []
    for key in fmap.source.degree_support():
        src_idx = fmap.source.slice_indices(key)
        for v in fmap.factored(key).kernel():
            vec = {src_idx[a]: c for a, c in v.items()}
            out.append((min(fmap.source.generators[i][1] for i in vec), vec))
    return out


def _oracle_stage_map(F, chosen):
    """d: F_next -> F sending generator j to chosen[j], flattened the former
    way: as A-element entries {(i, j): {m: c}} multiplied out by mul_coords."""
    A = F.algebra
    F_next = FreeAModule(A, tuple(d for d, _ in chosen))
    entries = {}
    for j, (_, vec) in enumerate(chosen):
        for idx, c in vec.items():
            i, m = divmod(idx, A.rank)
            entries.setdefault((i, j), {})[m] = c
    flat = {}
    for (i, j), elem in entries.items():
        for m in range(A.rank):
            for m2, c in A.mul_coords({m: A.base.ground.one}, elem).items():
                flat[(F.flat_index(i, m2), F_next.flat_index(j, m))] = c
    return F_next, HomogeneousMap(F_next.module, F.module, 0, flat)


def _oracle_minimal_generators(A, F, kernel):
    g = A.base.ground
    span = Echelon(g)
    actions = {m: F.act_map(m) for m in range(A.rank) if m != A.unit_index}
    for _, vec in kernel:
        for m, act in actions.items():
            w = act.apply_coords(vec)
            if w:
                span.add(w)
    flat_gens = F.module.generators
    chosen = []
    for deg, vec in sorted(kernel, key=lambda t: (t[0], sorted(t[1]))):
        r = span.reduce(vec)
        if r:
            span.add(r)
            chosen.append((min(flat_gens[i][1] for i in r), r))
    return chosen


def minimal_resolution_oracle(A, s_max):
    """The former minimal loop: F_0 = A by hand, and the augmentation kernel
    read off as the non-unit monomials.  kernels[s] is the kernel, on every
    slice, whose generators stage s + 1 covers."""
    g = A.base.ground
    stages, images, flats = [FreeAModule(A, (0,))], [], []
    kernels = [[(A.degree(m), {m: g.one}) for m in range(A.rank) if m != A.unit_index]]
    for s in range(s_max):
        chosen = _oracle_minimal_generators(A, stages[-1], kernels[-1])
        F_next, flat = _oracle_stage_map(stages[-1], chosen)
        stages.append(F_next)
        images.append([vec for _, vec in chosen])
        flats.append(flat)
        if s + 1 < s_max:
            kernels.append(_oracle_flat_kernel(flat))
    return stages, images, flats, kernels


@pytest.mark.parametrize("make, s_max", [
    pytest.param(lambda: exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(3))), 6,
                 id="lam3/F3"),
    pytest.param(lambda: exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(4))), 4,
                 id="lam4/F3"),
    pytest.param(lambda: trunc_poly(3, 2), 5, id="F3[y]/y^3"),
    pytest.param(lam_tau, 5, id="lam(t)/F2[v^±1]"),
    pytest.param(lambda: realize(AlgebraPresentation(BaseRing(F3), (), ())), 3, id="rank 1"),
])
def test_minimal_resolution_matches_the_former_loop(make, s_max):
    A = make()
    stages, images, flats, _ = minimal_resolution_oracle(A, s_max)
    res = minimal_resolution(A, s_max)
    assert [F.gen_degrees for F in res.stages] == [F.gen_degrees for F in stages]
    assert [d.images for d in res.maps] == images
    assert [d.flatten() for d in res.maps] == flats


# -- the generators span I*K ---------------------------------------------------------

def two_generator_quotient(base, dx, dy, px=3, py=2):
    """k<x, y>/(x^px, y^py, xy) with |x| = dx, |y| = dy."""
    return realize(AlgebraPresentation(base, (("x", dx), ("y", dy)), (
        [(1, ("x",) * px, 0)], [(1, ("y",) * py, 0)], [(1, ("x", "y"), 0)])))


def draw_algebra(choice, randint):
    """An exterior, truncated or two-generator algebra over F3 or F5, or an
    exterior algebra over F2[v^±1], whose generator degrees have one sign or
    both, drawn by choice(options) and randint(lo, hi); with its label."""
    p = choice((3, 5))
    kind = choice(("exterior", "truncated", "x, y", "laurent"))
    signs = choice(((1,), (-1,), (1, -1)))
    if kind == "truncated":
        degrees = [choice((1, 2)) * choice(signs)]
        A = trunc_poly(randint(2, 4), degrees[0], p)
    elif kind == "x, y":
        degrees = [choice((1, 2)), choice((1, 2)) * choice(signs)]
        A = two_generator_quotient(BaseRing(GroundRing.prime_field(p)), *degrees,
                                   px=randint(2, 3))
    else:
        degrees = [choice((1, 2)) * choice(signs) for _ in range(randint(1, 3))]
        base = KU2 if kind == "laurent" else BaseRing(GroundRing.prime_field(p))
        A = exterior(base, tuple((f"x{i}", d) for i, d in enumerate(degrees)))
    return A, f"{kind} {degrees}"


def seeded_span_cases(seed, count):
    """pytest params: count algebras drawn by draw_algebra from a seeded rng."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        A, label = draw_algebra(rng.choice, rng.randint)
        out.append(pytest.param(A, id=f"{n}: {label}"))
    return out


# x in degree 1, y in degree -2: generators of both signs, so the stage
# kernels reach slices on both sides of every window below
MIXED_SIGN = lambda: two_generator_quotient(BaseRing(F3), 1, -2)
MIXED_SIGN_WINDOWS = [(-2, 2), (-3, 1), (-1, 3), (-4, 4), (-6, 2)]


@pytest.mark.parametrize("A", [
    pytest.param(MIXED_SIGN(), id="x(1), y(-2)"),
    pytest.param(lam_tau(), id="lam(t)/F2[v^±1]"),
    pytest.param(exterior(KU2, (("x", 1), ("y", -1))), id="lam(x(1), y(-1))/F2[v^±1]"),
    *seeded_span_cases(61, 24),
])
def test_minimal_generators_match_the_span_of_every_monomial(A):
    # every stage of the former loop: the chosen generators of each whole
    # kernel are the same whether I*K is spanned by the generators or by
    # every non-unit monomial
    stages, _, _, kernels = minimal_resolution_oracle(A, 4)
    for s, (F, kernel) in enumerate(zip(stages, kernels)):
        assert (resolve._minimal_generators(F, kernel)
                == _oracle_minimal_generators(A, F, kernel)), s


# the family's Ext through s <= 4, all of it inside (-16, 16): (s, t, rank)
# triples; a window cannot change a group, so it only selects triples
MIXED_SIGN_EXT = [(0, 0, 1), (1, -2, 1), (1, 1, 1), (2, -4, 1), (2, -1, 1), (2, 3, 1),
                  (3, -6, 1), (3, -3, 1), (3, 1, 1), (3, 4, 1), (4, -8, 1), (4, -5, 1),
                  (4, -1, 1), (4, 2, 1), (4, 6, 1)]


@pytest.mark.parametrize("window", sorted(MIXED_SIGN_WINDOWS + [(-16, 16)]), ids=str)
def test_mixed_sign_ext_tables_in_clipped_windows(window):
    A = MIXED_SIGN()
    lo, hi = window
    table = ext_table(A, 4, window)
    assert sorted((s, t, p.free_rank) for (s, t), p in table.entries.items()) \
        == [(s, t, n) for s, t, n in MIXED_SIGN_EXT if lo <= t <= hi]
    # the greedy route agrees below its top stage
    k, key = AModule.trivial(A), A.base.degree_key
    assert table.by_slice(key, 3) == derived_hom(k, k, window, 4).by_slice(key, 3)


@st.composite
def algebras_and_windows(draw):
    """An algebra drawn as the seeded span cases draw theirs, and a window
    that may leave out 0."""
    A, _ = draw_algebra(lambda options: draw(st.sampled_from(options)),
                        lambda lo, hi: draw(st.integers(lo, hi)))
    return A, tuple(sorted(draw(st.tuples(st.integers(-10, 10), st.integers(-10, 10)))))


@settings(max_examples=24, deadline=None)
@given(case=algebras_and_windows(), seed=st.integers(0, 7))
def test_a_window_only_selects_the_reported_rows(case, seed):
    A, (lo, hi) = case
    s_max = 4
    table = ext_table(A, s_max, (lo, hi))
    wide = ext_table(A, s_max, (-64, 64))
    assert table.entries == {(s, t): p for (s, t), p in wide.entries.items()
                             if A.base.laurent or lo <= t <= hi}
    k, key = AModule.trivial(A), A.base.degree_key
    greedy = derived_hom(k, k, (lo, hi), s_max, seed)
    assert table.by_slice(key, s_max - 1) == greedy.by_slice(key, s_max - 1)


# -- flatten along the generation steps -----------------------------------------------

def former_flatten(d):
    """The former flatten: column (j, m) is act_map(m) applied to images[j],
    for every monomial m."""
    src, tgt = d.source, d.target
    flat = {}
    for m in range(src.algebra.rank):
        act = tgt.act_map(m)
        for j, image in enumerate(d.images):
            for i, c in act.apply_coords(image).items():
                flat[(i, src.flat_index(j, m))] = c
    return HomogeneousMap(src.module, tgt.module, d.degree, flat)


def m2_f3_bimodule():
    """M2(F3), by its Clifford presentation, as a bimodule over its enveloping algebra."""
    A = realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)], [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)])))
    return regular_bimodule(A, check=True)


FLATTEN_CASES = {
    "lam3/F3": lambda: minimal_resolution(
        exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(3))), 4),
    "lam3/Q": lambda: minimal_resolution(
        exterior(BaseRing(QQ), tuple((f"x{i}", -1) for i in range(3))), 4),
    "F3[y]/y^3": lambda: minimal_resolution(trunc_poly(3, 2), 4),
    "lam(t)/F2[v^±1]": lambda: minimal_resolution(lam_tau(), 4),
    "M2(F3) over A^e": lambda: (lambda M: free_resolution(M.algebra, M, 3, seed=5))(
        m2_f3_bimodule()),
}


@pytest.mark.parametrize("case", sorted(FLATTEN_CASES))
def test_flatten_matches_the_former_stage_map(case):
    res = FLATTEN_CASES[case]()
    assert res.maps
    for d in res.maps:
        F_next, want = _oracle_stage_map(d.target, list(zip(d.source.gen_degrees, d.images)))
        assert F_next == d.source
        assert d.flatten() == want == former_flatten(d)
    # a map of nonzero degree: each stage-1 generator to the unit of F_0
    F0, F1 = res.stages[0], res.stages[1]
    u = res.algebra.unit_index
    t = F1.gen_degrees[0]
    f1 = AModuleMap(F1, F0, [{F0.flat_index(0, u): 1} if d == t else {}
                             for d in F1.gen_degrees], degree=-t)
    assert f1.flatten() == former_flatten(f1)


def test_flatten_of_a_bimodule_cover_matches_the_former_flatten():
    # the cover's target is an AModule, the regular bimodule of M2(F3)
    M = m2_f3_bimodule()
    vectors = [(d, {i: 1}) for i, (_, d) in enumerate(M.module.generators)]
    chosen = resolve._greedy_generators(M.algebra, M, vectors, random.Random(5))
    cover = AModuleMap(FreeAModule(M.algebra, tuple(d for d, _ in chosen)), M,
                       [vec for _, vec in chosen])
    assert cover.flatten() == former_flatten(cover)
    assert len(cover.flatten().entries) > len(chosen)


def test_ext_table_applies_the_generators_only(monkeypatch):
    # 6,895 calls when every non-unit monomial spanned I*K and flatten
    # applied every monomial's act map
    calls = []
    real = HomogeneousMap.apply_coords

    def counting(self, coeffs):
        calls.append(coeffs)
        return real(self, coeffs)

    A = exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(4)))
    monkeypatch.setattr(HomogeneousMap, "apply_coords", counting)
    table = ext_table(A, s_max=4)
    assert [table.entries[(s, -s)].free_rank for s in range(5)] == [comb(s + 3, 3)
                                                                    for s in range(5)]
    assert len(calls) <= 3000


def test_minimal_resolution_builds_the_generators_act_maps_only():
    A = exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(4)))
    res = minimal_resolution(A, s_max=4)
    built = [set(F._acts) for F in res.stages]
    assert set().union(*built) == set(A.generating_monomials)
    assert all(b <= set(A.generating_monomials) for b in built)


# -- minimal against greedy, on random small algebras ------------------------------

@st.composite
def small_algebras(draw):
    """A random exterior or truncated polynomial algebra over F3 or F5."""
    base = BaseRing(GroundRing.prime_field(draw(st.sampled_from([3, 5]))))
    if draw(st.booleans()):
        degrees = draw(st.lists(st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=3))
        return exterior(base, tuple((f"x{i}", d) for i, d in enumerate(degrees)))
    T, deg = draw(st.integers(2, 4)), draw(st.sampled_from([-2, -1, 1, 2]))
    return realize(AlgebraPresentation(base, (("y", deg),), ([(1, ("y",) * T, 0)],)))


@settings(max_examples=16, deadline=None)
@given(A=small_algebras(), seed=st.integers(0, 7),
       window=st.one_of(st.just((-16, 16)), st.tuples(st.integers(-6, -1), st.integers(1, 6))))
def test_minimal_and_greedy_ext_agree(A, seed, window):
    # a clipped window only selects the reported rows
    s_max = 4
    k = AModule.trivial(A)
    minimal = ext_table(A, s_max, window)
    greedy = derived_hom(k, k, window, s_max, seed)
    key = A.base.degree_key
    assert minimal.by_slice(key, s_max - 1) == greedy.by_slice(key, s_max - 1)


@pytest.mark.parametrize("w", [3, 4, 5, 6])
def test_greedy_resolution_is_exact_in_a_clipped_window(w):
    # stage kernels reach below the window, where the orbits of in-window
    # generators land too; rows there must not count toward covering the
    # kernel in the window (at (-4, 4) Ext^{3,-3} read 5 and Ext^{4,-4} was lost)
    A = exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(3)))
    k = AModule.trivial(A)
    s_max, window = 6, (-w, w)
    res = free_resolution(A, k, s_max)
    flats = [d.flatten() for d in res.maps]
    for s, (outer, inner) in enumerate(zip(flats, flats[1:]), 1):
        for t in slice_keys(outer.source, window):
            assert cohomology_at(outer, inner, t).is_zero, (s, t)
    key = A.base.degree_key
    want = {(s, -s): (comb(s + 2, 2), ()) for s in range(min(w, s_max - 1) + 1)}
    assert ext_table(A, s_max, window).by_slice(key, s_max - 1) == want
    assert ext_with_coefficients(res, k, window).by_slice(key, s_max - 1) == want


def test_greedy_resolution_applies_few_actions(monkeypatch):
    # candidates whose gain bound cannot beat the best so far are skipped,
    # and orbit parts in full slices are not computed: 7,960 calls before
    calls = []
    real = HomogeneousMap.apply_coords

    def counting(self, coeffs):
        calls.append(coeffs)
        return real(self, coeffs)

    A = exterior(BaseRing(F3), tuple((f"x{i}", -1) for i in range(3)))
    monkeypatch.setattr(HomogeneousMap, "apply_coords", counting)
    res = free_resolution(A, AModule.trivial(A), s_max=6, seed=1)
    assert [F.rank for F in res.stages] == [1, 3, 6, 10, 15, 21, 28]
    assert len(calls) <= 2000


def test_derived_hom_refuses_a_resolution_without_a_stage_past_degree_zero():
    # through stage 0 the table would report no degree: empty, as if Hom were 0
    A = lam_x()
    k = AModule.trivial(A)
    with pytest.raises(BudgetExceededError, match="s_max >= 1 to report degree 0, got 0"):
        ext_with_coefficients(free_resolution(A, k, s_max=0), k)
    for s_max in (0, -1):
        with pytest.raises(BudgetExceededError, match="s_max >= 1"):
            derived_hom(k, k, (-16, 16), s_max)
    assert derived_hom(k, k, (-16, 16), 1).entries[(0, 0)].free_rank == 1


def test_free_resolution_flattens_each_stage_once(monkeypatch):
    # a stage's flattened module is built on its first use and kept
    A = exterior(BaseRing(F3), (("x", 1), ("y", 1), ("z", 1)))
    k = AModule.trivial(A)
    built = []
    real = resolve.GradedFreeModule

    def counting(base, generators):
        built.append(generators)
        return real(base, generators)

    monkeypatch.setattr(resolve, "GradedFreeModule", counting)
    res = free_resolution(A, k, s_max=5, seed=1)
    during = len(built)
    for F in res.stages:
        assert F.module is F.module
        assert F.act_map(0).source is F.module
    assert 0 < during <= len(res.stages) == len(built)
