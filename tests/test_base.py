import random

import pytest

from hhalg.base import (
    BaseRing,
    GradedFreeModule,
    HomogeneousMap,
    LaurentGenerator,
    cohomology_at,
    graded_hom_module,
    hom_maps,
    hom_pair_index,
    tensor_maps,
    tensor_module,
)
from hhalg.ground import GroundRing, ZZ
from hhalg.linalg import ExactMatrix, SubquotientPresentation, rank

QQ = GroundRing.rationals()

F3 = GroundRing.prime_field(3)
KU = BaseRing(ZZ, LaurentGenerator("v", 2))


def test_laurent_generator_must_be_even_positive():
    with pytest.raises(ValueError):
        LaurentGenerator("v", 3)
    with pytest.raises(ValueError):
        LaurentGenerator("v", -2)
    with pytest.raises(ValueError):
        LaurentGenerator("v", 0)


def test_multiplication_by_v_is_unit_block():
    M = GradedFreeModule(KU, (("e", 0),))
    # degree-2 self-map sending e to v*e: stored scalar 1, implied exponent 1
    f = HomogeneousMap(M, M, 2, {(0, 0): 1})
    assert M.degree_support() == [0]
    assert f.slice_matrix(0)[0] == ExactMatrix(ZZ, [[1]])


def test_multiplication_by_p_block():
    M = GradedFreeModule(KU, (("e", 0),))
    f = HomogeneousMap(M, M, 0, {(0, 0): 5})
    assert f.slice_matrix(0)[0] == ExactMatrix(ZZ, [[5]])


def test_zero_map_blocks():
    M = GradedFreeModule(KU, (("e", 0), ("f", 1)))
    z = HomogeneousMap.zero(M, M, 0)
    assert M.degree_support() == [0, 1]
    blocks = [z.slice_matrix(t)[0] for t in M.degree_support()]
    # residues split the generators, so each block is 1x1
    assert all(b == ExactMatrix(ZZ, [[0]]) for b in blocks)


def test_homogeneity_enforced():
    M = GradedFreeModule(KU, (("e", 0), ("f", 1)))
    with pytest.raises(ValueError):
        HomogeneousMap(M, M, 0, {(1, 0): 1})  # odd gap over period 2
    N = GradedFreeModule(BaseRing(ZZ), (("a", 0), ("b", 1)))
    with pytest.raises(ValueError):
        HomogeneousMap(N, N, 0, {(1, 0): 1})  # no Laurent: degrees must match


def test_compose_and_identity():
    M = GradedFreeModule(KU, (("e", 0),))
    f = HomogeneousMap(M, M, 2, {(0, 0): 1})  # mult by v
    g = HomogeneousMap(M, M, -2, {(0, 0): 1})  # mult by v^-1
    assert g.compose(f) == HomogeneousMap.identity(M)
    assert f.compose(HomogeneousMap.identity(M)) == f


def test_hom_module_degrees():
    base = BaseRing(F3)
    M = GradedFreeModule(base, (("m", 0),))
    N = GradedFreeModule(base, (("n", 1),))
    H = graded_hom_module(M, N)
    assert H.rank == 1 and H.degrees == [1]
    H5 = graded_hom_module(M, N, degree=-1)
    assert H5.degrees == [0]


def test_hom_degree_zero_rank_is_sum_of_squares():
    # over a Laurent base, End(M) in degree 0 has rank sum_r c_r^2 where
    # c_r counts generators in residue class r
    rng = random.Random(2)
    for _ in range(10):
        degs = [rng.randint(-4, 4) for _ in range(rng.randint(1, 6))]
        M = GradedFreeModule(KU, tuple((f"e{i}", d) for i, d in enumerate(degs)))
        H = graded_hom_module(M, M)
        counts = {}
        for d in degs:
            counts[d % 2] = counts.get(d % 2, 0) + 1
        got = sum(1 for d in H.degrees if d % 2 == 0)
        assert got == sum(c * c for c in counts.values())


def window_slice_oracle(f, lo, hi):
    """Per-degree matrices assembled directly from entries, no residue logic."""
    out = {}
    for t in range(lo, hi + 1):
        src = [j for j, (_, d) in enumerate(f.source.generators)
               if (t - d) % 2 == 0] if f.source.base.laurent else \
              [j for j, (_, d) in enumerate(f.source.generators) if d == t]
        tgt = [i for i, (_, d) in enumerate(f.target.generators)
               if (t + f.degree - d) % 2 == 0] if f.source.base.laurent else \
              [i for i, (_, d) in enumerate(f.target.generators) if d == t + f.degree]
        g = f.source.base.ground
        out[t] = ExactMatrix(
            g, [[f.entries.get((i, j), g.zero) for j in src] for i in tgt], cols=len(src))
    return out


def test_residue_slices_match_window_oracle():
    # over a period-2 base every degree-t slice must agree with the residue
    # block; check ranks across a window of width 3 periods
    rng = random.Random(9)
    for _ in range(10):
        sdeg = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        tdeg = [rng.randint(-3, 3) for _ in range(rng.randint(1, 4))]
        S = GradedFreeModule(KU, tuple((f"s{i}", d) for i, d in enumerate(sdeg)))
        T = GradedFreeModule(KU, tuple((f"t{i}", d) for i, d in enumerate(tdeg)))
        fdeg = 2 * rng.randint(-1, 1)
        entries = {}
        for i, td in enumerate(tdeg):
            for j, sd in enumerate(sdeg):
                if (sd + fdeg - td) % 2 == 0 and rng.random() < 0.6:
                    entries[(i, j)] = rng.randint(-2, 2)
        f = HomogeneousMap(S, T, fdeg, entries)
        oracle = window_slice_oracle(f, -3, 3)
        for t, m in oracle.items():
            block = f.slice_matrix(t % 2)[0]
            assert rank(m) == rank(block)
            assert (m.rows, m.cols) == (block.rows, block.cols)
            # the residue block, read off the column index, is the dense scan itself
            assert m == block


def test_apply_coords():
    M = GradedFreeModule(KU, (("e", 0), ("f", 2)))
    f = HomogeneousMap(M, M, 2, {(1, 0): 1, (0, 1): 3})
    assert f.apply_coords({0: 1}) == {1: 1}
    assert f.apply_coords({1: 2}) == {0: 6}


# -- slice cohomology -----------------------------------------------------------------

def test_cohomology_at_two_term_complex_over_z():
    # Z e1 --2--> Z e0, with |e0| = 0 and |e1| = 1
    M = GradedFreeModule(BaseRing(ZZ), (("e0", 0), ("e1", 1)))
    d = HomogeneousMap(M, M, -1, {(0, 1): 2})
    assert cohomology_at(d, d, 0) == SubquotientPresentation(0, (2,))
    assert cohomology_at(d, d, 1).is_zero
    assert cohomology_at(d, None, 0) == SubquotientPresentation(1)
    # the same complex as degree-0 cochain maps C0 --2--> C1 --> 0
    C0 = GradedFreeModule(BaseRing(ZZ), (("e1", 0),))
    C1 = GradedFreeModule(BaseRing(ZZ), (("e0", 0),))
    delta0 = HomogeneousMap(C0, C1, 0, {(0, 0): 2})
    delta1 = HomogeneousMap.zero(C1, C1, 0)
    assert cohomology_at(delta1, delta0, 0) == SubquotientPresentation(0, (2,))
    assert cohomology_at(delta0, None, 0).is_zero


def test_cohomology_at_rejects_an_incoming_map_into_another_module():
    M = GradedFreeModule(BaseRing(ZZ), (("e", 0),))
    N = GradedFreeModule(BaseRing(ZZ), (("f", 0),))
    with pytest.raises(ValueError, match="source of the outgoing map"):
        cohomology_at(HomogeneousMap.zero(M, M, 0), HomogeneousMap.identity(N), 0)


def test_cohomology_at_rejects_an_image_outside_the_kernel():
    # outgoing o incoming != 0: the image of e is not in ker(outgoing) = span(f)
    M = GradedFreeModule(BaseRing(ZZ), (("e", 0), ("f", 0)))
    outgoing = HomogeneousMap(M, M, 0, {(0, 0): 1})
    with pytest.raises(ValueError, match="image vector outside the kernel span"):
        cohomology_at(outgoing, HomogeneousMap.identity(M), 0)


# -- the column index against a naive scan ------------------------------------------

def naive_apply(f, coeffs):
    g = f.source.base.ground
    out = {}
    for (i, j), c in f.entries.items():
        x = coeffs.get(j)
        if x:
            out[i] = g.normalize(out.get(i, g.zero) + c * x)
    return {i: v for i, v in out.items() if v != 0}


def naive_compose(f, h):
    """f o h by a scan over every pair of entries."""
    g = f.source.base.ground
    out = {}
    for (i, k), c in f.entries.items():
        for (k2, j), d in h.entries.items():
            if k == k2:
                out[(i, j)] = g.normalize(out.get((i, j), g.zero) + c * d)
    return HomogeneousMap(h.source, f.target, f.degree + h.degree, out)


def random_module(rng, base, name):
    step = base.period or 1
    return GradedFreeModule(base, tuple(
        (f"{name}{i}", step * rng.randint(-2, 2)) for i in range(rng.randint(1, 5))))


def random_map(rng, S, T, degree):
    """A random map whose last source column is always empty."""
    base = S.base
    entries = {}
    for i, (_, td) in enumerate(T.generators):
        for j, (_, sd) in enumerate(S.generators[:-1]):
            if base.compatible(sd, degree, td) and rng.random() < 0.6:
                entries[(i, j)] = rng.randint(-4, 4)
    return HomogeneousMap(S, T, degree, entries)


def random_coords(rng, M):
    # explicit zeros included; every index, empty columns among them, may appear
    return {j: rng.choice((0, 0, 1, -1, 2, 3)) for j in range(M.rank) if rng.random() < 0.8}


@pytest.mark.parametrize("base", [
    BaseRing(GroundRing.prime_field(5)),
    BaseRing(ZZ),
    BaseRing(GroundRing.prime_field(2), LaurentGenerator("v", 2)),
], ids=["F5", "Z", "F2[v]"])
def test_column_index_matches_naive_scan(base):
    rng = random.Random(11)
    g = base.ground
    for _ in range(40):
        A, B, C = (random_module(rng, base, n) for n in "abc")
        f = random_map(rng, B, C, 0)
        h = random_map(rng, A, B, 0)
        k = random_map(rng, B, C, 0)
        vs = [random_coords(rng, B) for _ in range(4)]
        before = [f.apply_coords(v) for v in vs]
        assert before == [naive_apply(f, v) for v in vs]
        assert f.apply_coords({B.rank - 1: g.one}) == {}
        fh = f.compose(h)
        assert fh == naive_compose(f, h)
        derived = (f.add(k), f.scale(g.normalize(rng.randint(-4, 4))), fh)
        # the cached index of f is unchanged by the maps built from it
        assert [f.apply_coords(v) for v in vs] == before
        for d in derived:
            for v in (random_coords(rng, d.source) for _ in range(3)):
                assert d.apply_coords(v) == naive_apply(d, v)
        assert f.compose(h) == fh


@pytest.mark.parametrize("g, row", [(F3, (1, 2)), (ZZ, (1, -1))], ids=["F3", "Z"])
def test_composite_that_cancels_is_zero(g, row):
    # k -> k^2 -> k, 1 |-> (1, 1) |-> row[0] + row[1] = 0
    base = BaseRing(g)
    M = GradedFreeModule(base, (("a", 0), ("b", 0)))
    K = GradedFreeModule(base, (("k", 0),))
    diagonal = HomogeneousMap(K, M, 0, {(0, 0): 1, (1, 0): 1})
    f = HomogeneousMap(M, K, 0, {(0, 0): row[0], (0, 1): row[1]})
    assert f.compose(diagonal).is_zero()
    # next to a column that does not cancel
    K2 = GradedFreeModule(base, (("k", 0), ("l", 0)))
    h = HomogeneousMap(K2, M, 0, {(0, 0): 1, (1, 0): 1, (0, 1): 1})
    assert f.compose(h).entries == {(0, 1): g.one}


@pytest.mark.parametrize("base", [BaseRing(F3), BaseRing(ZZ)], ids=["F3", "Z"])
def test_compose_matches_a_triple_loop(base):
    rng = random.Random(5)
    g = base.ground
    for _ in range(30):
        A, B, C = (random_module(rng, base, n) for n in "abc")
        f, h = random_map(rng, B, C, 0), random_map(rng, A, B, 0)
        want = {}
        for i in range(C.rank):
            for j in range(A.rank):
                x = g.zero
                for k in range(B.rank):
                    x = g.normalize(x + f.entries.get((i, k), 0) * h.entries.get((k, j), 0))
                if x != 0:
                    want[(i, j)] = x
        assert f.compose(h).entries == want


# -- bijectivity, slice by slice ------------------------------------------------

def test_is_iso_needs_unit_invariant_factors_over_z():
    for g, iso in ((ZZ, False), (QQ, True)):
        M = GradedFreeModule(BaseRing(g), (("e", 0),))
        assert HomogeneousMap(M, M, 0, {(0, 0): 2}).is_iso() is iso
    M = GradedFreeModule(BaseRing(ZZ), (("a", 0), ("b", 0)))
    assert HomogeneousMap(M, M, 0, {(0, 0): 2, (0, 1): 1, (1, 0): 1, (1, 1): 1}).is_iso()


def test_is_iso_rejects_a_non_square_slice():
    # rank 2 in degree 0 onto rank 1: full row rank, nonzero kernel
    M = GradedFreeModule(BaseRing(F3), (("a", 0), ("b", 0)))
    N = GradedFreeModule(BaseRing(F3), (("c", 0),))
    assert not HomogeneousMap(M, N, 0, {(0, 0): 1, (0, 1): 1}).is_iso()
    # and a rank-1 slice into rank 2: injective, not onto
    assert not HomogeneousMap(N, M, 0, {(0, 0): 1}).is_iso()


def test_is_iso_visits_a_target_slice_with_no_source_generators():
    M = GradedFreeModule(BaseRing(F3), (("a", 0),))
    N = GradedFreeModule(BaseRing(F3), (("c", 0), ("d", 2)))
    # the degree-0 slice is an isomorphism; nothing maps onto degree 2
    assert not HomogeneousMap(M, N, 0, {(0, 0): 1}).is_iso()
    # over a Laurent base, degrees 0 and 2 share a slice key
    L = GradedFreeModule(KU, (("a", 0), ("b", 2)))
    assert HomogeneousMap(L, L, 2, {(1, 0): 1, (0, 1): -1}).is_iso()
    assert not HomogeneousMap(L, L, 2, {(1, 0): 1, (0, 1): 3}).is_iso()


# -- tensor products of maps ---------------------------------------------------

def test_tensor_module_names_and_orders_pairs():
    M = GradedFreeModule(KU, (("a", 0), ("b", 1)))
    N = GradedFreeModule(KU, (("c", 1), ("d", 2), ("e", 3)))
    T = tensor_module(M, N)
    assert T.generators == (("a|c", 1), ("a|d", 2), ("a|e", 3),
                            ("b|c", 2), ("b|d", 3), ("b|e", 4))
    with pytest.raises(ValueError, match="different bases"):
        tensor_module(M, GradedFreeModule(BaseRing(ZZ), (("e", 0),)))


def test_tensor_maps_koszul_sign():
    # x (x) y |-> (-1)^{|g||x|} f(x) (x) g(y), checked on every generator pair
    M = GradedFreeModule(BaseRing(ZZ), (("a", 0), ("b", 1)))
    f = HomogeneousMap(M, M, 1, {(1, 0): 2})      # a -> 2b
    g = HomogeneousMap(M, M, -1, {(0, 1): 3})     # b -> 3a
    fg = tensor_maps(f, g)
    assert fg.degree == 0 and fg.source == tensor_module(M, M)
    # a (x) b -> (+1) 2b (x) 3a; b (x) b is killed by f
    assert fg.entries == {(1 * 2 + 0, 0 * 2 + 1): 6}
    gf = tensor_maps(g, f)
    # b (x) a -> (-1)^{|f||b|} 3a (x) 2b
    assert gf.entries == {(0 * 2 + 1, 1 * 2 + 0): -6}
    one = HomogeneousMap.identity(M)
    assert tensor_maps(one, one) == HomogeneousMap.identity(tensor_module(M, M))
    # (f (x) 1)(1 (x) g) = f (x) g, while (1 (x) g)(f (x) 1) = (-1)^{|f||g|} f (x) g
    assert tensor_maps(f, one).compose(tensor_maps(one, g)) == fg
    assert tensor_maps(one, g).compose(tensor_maps(f, one)) == fg.neg()


def _random_module(rng, base):
    return GradedFreeModule(base, tuple(
        (f"g{i}", rng.randint(-2, 2)) for i in range(rng.randint(1, 3))))


def _random_map(rng, source, target, degree):
    compatible = source.base.compatible
    return HomogeneousMap(source, target, degree, {
        (i, j): rng.randint(-4, 4)
        for i, (_, dt) in enumerate(target.generators)
        for j, (_, ds) in enumerate(source.generators) if compatible(ds, degree, dt)})


@pytest.mark.parametrize("base", [BaseRing(GroundRing.prime_field(5)), BaseRing(ZZ),
                                  BaseRing(GroundRing.prime_field(2), LaurentGenerator("v", 2))],
                         ids=["F5", "Z", "F2[v]"])
def test_hom_maps_is_the_signed_composite(base):
    # column phi of Hom(f, g) is (-1)^{|f|(|phi|+|g|)} g o phi o f, for every elementary phi
    rng = random.Random(11)
    for _ in range(30):
        M1, M2, N1, N2 = (_random_module(rng, base) for _ in range(4))
        f = _random_map(rng, M1, M2, rng.randint(-2, 2))
        g = _random_map(rng, N1, N2, rng.randint(-2, 2))
        h = hom_maps(f, g)
        assert h.source == graded_hom_module(M2, N1) and h.target == graded_hom_module(M1, N2)
        assert h.degree == f.degree + g.degree
        columns = h.by_column()
        for i, (_, di) in enumerate(M2.generators):
            for j, (_, dj) in enumerate(N1.generators):
                phi = HomogeneousMap(M2, N1, dj - di, {(j, i): 1})
                composite = g.compose(phi).compose(f)
                if f.degree % 2 and (phi.degree + g.degree) % 2:
                    composite = composite.neg()
                column = columns.get(hom_pair_index(M2, N1, i, j), ())
                assert {divmod(p, N2.rank)[::-1]: c for p, c in column} == composite.entries
