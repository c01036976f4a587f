"""The Smith form's unit phase: it takes the units its own row operations
write, and its pivot order keeps the fill of bar slices near that of a
Markowitz order."""

import pytest

from hhalg import linalg
from hhalg.algebra import AlgebraPresentation, realize
from hhalg.base import BaseRing
from hhalg.ground import GroundRing, ZZ
from hhalg.hochschild import hochschild_cohomology
from hhalg.linalg import ExactMatrix
from test_linalg import check_smith
from test_smith import oracle_diagonal


@pytest.fixture
def phases(monkeypatch):
    """Pivots of each phase, summed over the factorizations the test makes."""
    made = {"unit": 0, "core": 0}
    real = linalg._core_phase

    def counting(rows, at, pivots, row_ops, col_ops):
        made["unit"] += len(pivots)
        core = real(rows, at, pivots, row_ops, col_ops)
        made["core"] += len(core)
        return core

    monkeypatch.setattr(linalg, "_core_phase", counting)
    return made


@pytest.fixture
def row_ops(monkeypatch):
    """The number of row operations the factorizations apply."""
    count = [0]
    real = linalg._row_op

    def counting(rows, at, dst, src, c, ops, mod=None):
        count[0] += c != 0
        real(rows, at, dst, src, c, ops, mod)

    monkeypatch.setattr(linalg, "_row_op", counting)
    return count


def test_the_unit_phase_takes_the_units_its_row_operations_write(phases):
    # only column 0 holds a unit; clearing it writes the 1s at (1, 1) and (2, 2)
    M = ExactMatrix(ZZ, [[1, 2, 4], [1, 3, 6], [1, 2, 5]])
    assert check_smith(M).diagonal() == oracle_diagonal(M) == [1, 1, 1]
    assert phases == {"unit": 3, "core": 0}


# `markowitz` counts the row operations of a unit phase that pivots by least
# Markowitz cost (r - 1)(c - 1) on the same bar slices; a pivot order fixed
# once by the columns' initial counts makes about twice as many
@pytest.mark.parametrize("ground, power, n_max, markowitz, core", [
    (ZZ, 5, 4, 16775, 7),
    (GroundRing.prime_field(3), 8, 3, 59980, 0),
], ids=["Z[y]/y^5", "F3[y]/y^8"])
def test_bar_fill_stays_within_a_tenth_of_a_markowitz_order(phases, row_ops, ground, power,
                                                            n_max, markowitz, core):
    A = realize(AlgebraPresentation(BaseRing(ground), (("y", 1),), ([(1, ("y",) * power, 0)],)))
    hochschild_cohomology(A, n_max=n_max)
    assert row_ops[0] <= 1.1 * markowitz
    assert phases["core"] == core
