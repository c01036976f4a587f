"""Value semantics of hhalg's records, all built on ground.Record and ground.Value.

Frozen values compare and hash as their field tuples and refuse assignment;
mutable records compare field-wise and are unhashable.  Another class never
compares equal: its comparison is NotImplemented.
"""

import pytest

from hhalg.algebra import AlgebraPresentation, IsoResult, realize
from hhalg.azumaya import AzumayaReport, Condition
from hhalg.base import BaseRing, GradedFreeModule, LaurentGenerator
from hhalg.defs import DefinitionFile
from hhalg.dg import QuasiIsoVerdict, QuotientDGA
from hhalg.ground import GroundRing, Record, Value
from hhalg.hochschild import MuImageResult
from hhalg.linalg import SubquotientPresentation
from hhalg.resolve import FreeAModule, Resolution
from hhalg.tables import BigradedTable

F3 = GroundRing("Fp", 3)
B3 = BaseRing(F3)
# F3[t]/t^2, |t| = 1
DUAL = realize(AlgebraPresentation(B3, (("t", 1),), ([(1, ("t", "t"), 0)],)))

# (class, positional fields, the same instance built by keyword)
FROZEN = [
    (GroundRing, ("Fp", 3), GroundRing(kind="Fp", p=3)),
    (LaurentGenerator, ("v", 2), LaurentGenerator(name="v", degree=2)),
    (BaseRing, (F3, LaurentGenerator("v", 2)),
     BaseRing(ground=F3, laurent=LaurentGenerator("v", 2))),
    (GradedFreeModule, (B3, (("a", 0), ("b", 1))),
     GradedFreeModule(base=B3, generators=(("a", 0), ("b", 1)))),
    (AlgebraPresentation, (B3, (("t", 1),), (((1, ("t", "t"), 0),),), 4),
     AlgebraPresentation(base=B3, generators=(("t", 1),), relations=(((1, ("t", "t"), 0),),),
                         truncation=4)),
    (FreeAModule, (DUAL, (0, 2)), FreeAModule(algebra=DUAL, gen_degrees=(0, 2))),
    (SubquotientPresentation, (1, (2, 4)), SubquotientPresentation(free_rank=1, torsion=(2, 4))),
]

MUTABLE = [
    (MuImageResult, (2, 4, True, "y|1 - 1|y", "n"),
     MuImageResult(coefficient=2, modeled_defect=4, is_unit=True, alpha_choice="y|1 - 1|y",
                   note="n")),
    (IsoResult, (True, None), IsoResult(isomorphic=True, witness=None)),
    (QuasiIsoVerdict, (False, (1, 3)), QuasiIsoVerdict(is_quasi_iso=False, failures=(1, 3))),
    (QuotientDGA, ("dga", 1, 0, 2), QuotientDGA(dga="dga", x=1, w=0, x_degree=2)),
    (Resolution, ([], [], None), Resolution(stages=[], maps=[], cover=None)),
    (DefinitionFile, (("F3", None), (), (), ()),
     DefinitionFile(base=("F3", None), algebras=(), modules=(), tasks=())),
    (Condition, ("mu", True, "w"), Condition(name="mu", verdict=True, witness="w")),
    (AzumayaReport, ([Condition("mu", True)],),
     AzumayaReport(conditions=[Condition("mu", True)])),
]



@pytest.mark.parametrize("cls, fields, by_keyword", FROZEN, ids=[case[0].__name__ for case in FROZEN])
def test_a_frozen_value_is_its_field_tuple(cls, fields, by_keyword):
    a = cls(*fields)
    assert isinstance(a, Value)
    assert a == by_keyword and not a != by_keyword
    assert tuple(getattr(a, f) for f in cls._fields) == fields
    try:
        want = hash(fields)
    except TypeError:  # a FreeAModule's algebra is unhashable, and so is the module
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(by_keyword) == want
        assert len({a, by_keyword}) == 1 and {a: 1}[by_keyword] == 1
    assert a.__eq__(fields) is NotImplemented and a != fields


@pytest.mark.parametrize("cls, fields, by_keyword", FROZEN, ids=[case[0].__name__ for case in FROZEN])
def test_a_frozen_value_refuses_assignment(cls, fields, by_keyword):
    a = cls(*fields)
    for name in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to or delete frozen field '{name}'"):
            setattr(a, name, None)
        with pytest.raises(AttributeError, match=f"cannot assign to or delete frozen field '{name}'"):
            delattr(a, name)
    assert a == by_keyword
    with pytest.raises(AttributeError, match="frozen field 'extra'"):
        a.extra = 1


@pytest.mark.parametrize("cls, fields, by_keyword", MUTABLE, ids=[case[0].__name__ for case in MUTABLE])
def test_a_mutable_record_compares_field_wise_and_is_unhashable(cls, fields, by_keyword):
    a = cls(*fields)
    assert isinstance(a, Record) and not isinstance(a, Value)
    assert a == by_keyword
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    assert a.__eq__(fields) is NotImplemented and a != fields
    name = cls._fields[0]
    setattr(by_keyword, name, "changed")
    assert a != by_keyword


def test_different_classes_with_equal_fields_are_unequal():
    assert IsoResult(True).__eq__(QuasiIsoVerdict(True)) is NotImplemented
    assert IsoResult(True) != QuasiIsoVerdict(True)
    assert IsoResult(False) == IsoResult(False) != IsoResult(True)


def test_defaults():
    assert GroundRing("Z").p is None and BaseRing(F3).laurent is None
    pres = AlgebraPresentation(B3, (("t", 1),))
    assert (pres.relations, pres.truncation) == ((), None)
    assert SubquotientPresentation(2).torsion == ()
    assert IsoResult(False).witness is None
    assert QuasiIsoVerdict(True).failures == ()
    assert Condition("mu", False).witness == ""
    assert MuImageResult(1, 0, True, "y|1").note == (
        "sign of alpha (hence of c) is a normalization choice")
    t, u = BigradedTable(), BigradedTable(notes=("n",))
    assert (t.entries, t.notes, t.completed_through) == ({}, (), None)
    assert u.notes == ("n",)
    t.set(0, 0, SubquotientPresentation(1))
    assert t.entries is not u.entries and u.is_zero()


def test_a_bigraded_table_compares_its_entries_alone():
    a = BigradedTable({(0, 0): SubquotientPresentation(1)})
    b = BigradedTable({(0, 0): SubquotientPresentation(1)}, notes=("n",), completed_through=1)
    assert a == b and a != BigradedTable()
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


@pytest.mark.parametrize("make, message", [
    (lambda: GroundRing("Fp", 4), "characteristic must be prime, got 4"),
    (lambda: GroundRing("R"), "unknown ground ring kind 'R'"),
    (lambda: GroundRing("Z", 3), "characteristic only makes sense for Fp"),
    (lambda: LaurentGenerator("v", 3), "Laurent generator degree must be positive and even, got 3"),
    (lambda: SubquotientPresentation(0, (2, 3)), "torsion factors must form a divisibility chain"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_repr_names_the_class_and_its_fields():
    assert repr(GroundRing("Fp", 3)) == "GroundRing(kind='Fp', p=3)"
    assert repr(Condition("mu", True)) == "Condition(name='mu', verdict=True, witness='')"
    assert repr(AzumayaReport([])) == "AzumayaReport(conditions=[])"


def test_a_graded_free_module_normalizes_its_generators():
    M = GradedFreeModule(B3, [[1, "2"], ("b", 0)])
    assert M.generators == (("1", 2), ("b", 0))
    assert M == GradedFreeModule(B3, (("1", 2), ("b", 0)))


def test_cached_properties_cache_outside_the_fields():
    M, N = GradedFreeModule(B3, (("a", 0), ("b", 1))), GradedFreeModule(B3, (("a", 0), ("b", 1)))
    slices = M._slices
    assert M._slices is slices and vars(M)["_slices"] is slices
    assert M == N and hash(M) == hash(N) and "_slices" not in vars(N)
    F = FreeAModule(DUAL, (0, 2))
    flat = F.module
    assert F.module is flat and flat.rank == 2 * DUAL.rank
    assert F == FreeAModule(DUAL, (0, 2))
