"""The greedy stage choice against its oracle, the re-reducing version.

resolve._greedy_generators works on normal forms modulo the span it has
built: each vector's residue is kept across rounds, orbits are taken of
residues, and a random combination's raw vector is built for the winner
only.  It skips a candidate whose bound on the gain (monomials landing in
each slice, capped by the room left there) cannot beat the best gain so
far, and it keeps only the orbit parts on slices that hold input vectors.
greedy_generators_oracle below is the implementation before all of this:
it reduces every vector against the whole span in every round, takes every
orbit of a raw vector whole and stops when the span's rank reaches the
input's.  The two agree where no orbit leaves the input slices, which
holds because the resolution loop hands the chooser whole submodules, and
test_the_oracle_cases_keep_every_orbit_on_input_slices asserts it for the
cases here.  On every call that resolve._greedy_resolution makes (the
cover and each kernel stage), directly or through free_resolution over a
non-local algebra, both must choose the same generators and leave the seeded
rng in the same state.
"""

import random

import pytest

from hhalg import hochschild, resolve
from hhalg.algebra import AlgebraPresentation, realize
from hhalg.base import BaseRing, LaurentGenerator
from hhalg.ground import GroundRing
from hhalg.linalg import Echelon
from hhalg.resolve import GREEDY_TRIALS, AModule, ResolutionError
from test_resolve import act_map_oracle

QQ = GroundRing.rationals()

F2 = GroundRing.prime_field(2)
F3 = GroundRing.prime_field(3)
KU2 = BaseRing(F2, LaurentGenerator("v", 2))
SEEDS = (0, 1, 7)


def greedy_generators_oracle(A, target, vectors, rng):
    """Pick generators whose A-spans fill the span of the given vectors.

    Candidates are the vectors themselves plus GREEDY_TRIALS seeded random
    combinations per slice; each round keeps the candidate adding the largest
    A-span, which keeps stage ranks near-minimal in practice.
    """
    g = A.base.ground
    # every monomial's act map on the target, materialized
    actions = [act_map_oracle(target, m) for m in range(A.rank)]
    total = Echelon(g)
    for _, vec in vectors:
        total.add(vec)
    goal = total.rank
    span = Echelon(g)
    chosen = []
    by_deg = {}
    for deg, vec in sorted(vectors, key=lambda t: (t[0], sorted(t[1]))):
        by_deg.setdefault(deg, []).append(vec)

    def a_span_gain(vec):
        # the rank of vec's A-orbit modulo the span, in a scratch echelon
        orbit = [act.apply_coords(vec) for act in actions]
        fresh = Echelon(g)
        for w in orbit:
            fresh.add(span.reduce(w))
        return fresh.rank, orbit

    while span.rank < goal:
        candidates = []
        for vecs in by_deg.values():
            for vec in vecs:
                if span.reduce(vec):
                    candidates.append(vec)
                    break
        extra = []
        for vecs in by_deg.values():
            live = [v for v in vecs if span.reduce(v)]
            if len(live) > 1:
                for _ in range(GREEDY_TRIALS):
                    combo = {}
                    for v in live:
                        c = rng.randrange(g.p) if g.kind == "Fp" else rng.randint(0, 1)
                        if c:
                            for i, x in v.items():
                                combo[i] = g.normalize(combo.get(i, g.zero) + c * x)
                    combo = {i: x for i, x in combo.items() if x != 0}
                    if combo and span.reduce(combo):
                        extra.append(combo)
        best = None
        for vec in candidates + extra:
            gained, orbit = a_span_gain(vec)
            if best is None or gained > best[0]:
                best = (gained, vec, orbit)
        if best is None:
            raise ResolutionError("generator selection stalled")
        _, vec, orbit = best
        for w in orbit:
            span.add(w)
        gen_deg = min(target.module.generators[i][1] for i in vec)
        chosen.append((gen_deg, vec))
    return chosen


def exterior(base, n):
    names = [f"x{i}" for i in range(n)]
    rels = [[(1, (a, a), 0)] for a in names]
    rels += [[(1, (b, a), 0), (1, (a, b), 0)]
             for i, a in enumerate(names) for b in names[i + 1:]]
    return realize(AlgebraPresentation(base, tuple((a, -1) for a in names), tuple(rels)))


def trunc_poly(T, deg):
    return realize(AlgebraPresentation(BaseRing(F3), (("y", deg),), ([(1, ("y",) * T, 0)],)))


def lam_tau():
    return realize(AlgebraPresentation(KU2, (("t", 1),), ([(1, ("t", "t"), 0)],)))


def m2_f3():
    # Clifford presentation of the 2x2 matrix algebra over F3
    return realize(AlgebraPresentation(BaseRing(F3), (("x", 0), ("y", 0)), (
        [(1, ("x", "x"), 0), (-1, (), 0)],
        [(1, ("y", "y"), 0), (-1, (), 0)],
        [(1, ("y", "x"), 0), (1, ("x", "y"), 0)],
    )))


def _trivial(A, s_max, seed):
    return resolve._greedy_resolution(A, AModule.trivial(A), s_max, seed)


def _regular(A, s_max, seed):
    return resolve._greedy_resolution(A, AModule.regular(A), s_max, seed)


# every other case has a degree with several vectors outside the span, so
# random combinations draw from the rng (randint over Q); these two have one
# kernel vector per slice
SINGLE = {"F3[y]/y^3 trivial", "lam(t)/F2[v^±1] trivial"}
CASES = {
    "lam3/F3 trivial": lambda seed: _trivial(exterior(BaseRing(F3), 3), 5, seed),
    "lam4/F3 trivial": lambda seed: _trivial(exterior(BaseRing(F3), 4), 3, seed),
    "F3[y]/y^3 trivial": lambda seed: _trivial(trunc_poly(3, 2), 4, seed),
    "lam(t)/F2[v^±1] trivial": lambda seed: _trivial(lam_tau(), 4, seed),
    "lam2/F3 regular": lambda seed: _regular(exterior(BaseRing(F3), 2), 3, seed),
    "lam2/Q trivial": lambda seed: _trivial(exterior(BaseRing(QQ), 2), 4, seed),
    "M2(F3) enveloping": lambda seed: hochschild.hochschild_via_enveloping(m2_f3(), 2, seed=seed),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_greedy_generators_match_the_oracle(case, seed, monkeypatch):
    real = resolve._greedy_generators
    calls, draws = [], []

    def both(A, target, vectors, rng):
        twin = random.Random()
        twin.setstate(before := rng.getstate())
        want = greedy_generators_oracle(A, target, vectors, twin)
        got = real(A, target, vectors, rng)
        assert got == want
        assert rng.getstate() == twin.getstate()
        calls.append(len(got))
        draws.append(rng.getstate() != before)
        return got

    monkeypatch.setattr(resolve, "_greedy_generators", both)
    CASES[case](seed)
    # the cover and at least two kernel stages
    assert len(calls) >= 3 and calls[0]
    assert any(draws) != (case in SINGLE)


def _orbits_stay_on_input_slices(A, target, vectors):
    key = A.base.degree_key
    slices = {key(d) for d, _ in vectors}
    gens = target.module.generators
    return all(key(gens[i][1]) in slices
               for act in (act_map_oracle(target, m) for m in range(A.rank))
               for _, vec in vectors for i in act.apply_coords(vec))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_the_oracle_cases_keep_every_orbit_on_input_slices(case, seed, monkeypatch):
    # every candidate is a combination of input vectors, so its orbit stays
    # where theirs do
    real = resolve._greedy_generators
    calls = []

    def checked(A, target, vectors, rng):
        assert _orbits_stay_on_input_slices(A, target, vectors)
        calls.append(vectors)
        return real(A, target, vectors, rng)

    monkeypatch.setattr(resolve, "_greedy_generators", checked)
    CASES[case](seed)
    assert len(calls) >= 3


def test_the_oracle_fails_when_the_greedy_helper_takes_the_minimal_chooser(monkeypatch):
    # a mutation: _greedy_resolution choosing by _minimal_generators would
    # make every minimal-against-greedy cross-check compare a chooser with
    # itself; the oracle comparison sees that it draws nothing
    def minimal(A, target, vectors, rng):
        return resolve._minimal_generators(target, vectors)

    monkeypatch.setattr(resolve, "_greedy_generators", minimal)
    with pytest.raises(AssertionError):
        test_greedy_generators_match_the_oracle("lam3/F3 trivial", 0, monkeypatch)
