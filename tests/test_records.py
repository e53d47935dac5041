import dataclasses
from fractions import Fraction

import pytest

from ratmaps.fields import PrimeField
from ratmaps.polyring import PolyRing
from ratmaps.records import FrozenRecord, Record, plain


# the stdlib dataclasses the records replaced, kept as the reference


@dataclasses.dataclass(frozen=True)
class RefPoint:
    x: int
    y: object = None


@dataclasses.dataclass
class RefReport:
    ok: bool
    items: list = dataclasses.field(default_factory=list)
    note: str = ""


class Point(FrozenRecord):
    x: int
    y: object = None


class Report(Record):
    ok: bool
    items: list = []
    note: str = ""


class Base:
    @property
    def doubled(self):
        return 2 * self.x


class Checked(Base, FrozenRecord):
    x: int

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("negative")


def as_ref(record, ref_cls):
    return ref_cls(*record._values())


@pytest.mark.parametrize(
    "args, kwargs",
    [((1,), {}), ((1, 2), {}), ((), {"x": 3}), ((4,), {"y": (5, 6)}), ((), {"y": 1, "x": 2})],
)
def test_frozen_record_matches_frozen_dataclass(args, kwargs):
    rec, ref = Point(*args, **kwargs), RefPoint(*args, **kwargs)
    assert as_ref(rec, RefPoint) == ref
    assert repr(rec) == repr(ref).replace("RefPoint", "Point")
    assert hash(rec) == hash(dataclasses.astuple(ref))
    assert rec == Point(*args, **kwargs) and rec != Point(7, "other")
    with pytest.raises(AttributeError):
        rec.x = 9
    with pytest.raises(AttributeError):
        del rec.y


def test_record_matches_mutable_dataclass():
    rec, ref = Report(True), RefReport(True)
    assert repr(rec) == repr(ref).replace("RefReport", "Report")
    # a list default is a fresh list for each instance
    rec.items.append(1)
    assert Report(True).items == [] and Report.items == []
    rec.note = "changed"
    assert rec == Report(True, [1], "changed") != Report(False, [1], "changed")
    with pytest.raises(TypeError):
        hash(rec)
    # a record never equals another class with the same values
    assert Report(True) != RefReport(True) and Point(1) != (1, None)


def test_record_arguments_and_post_init():
    assert Checked(3).doubled == 6 and Checked._fields == ("x",)
    with pytest.raises(ValueError):
        Checked(-1)
    for args, kwargs in [((), {}), ((1, 2), {}), ((1,), {"x": 1}), ((1,), {"z": 2})]:
        with pytest.raises(TypeError):
            Checked(*args, **kwargs)


def test_plain_renders_every_result_by_one_rule():
    # records as their to_dict, lists and tuples as lists, dicts by their
    # keys, JSON scalars as they are, and library values as their text
    field = PrimeField(7)
    x1 = PolyRing(field, ("x1",)).var(0)
    value = {"r": Report(True, [(x1, None)], "n"), "k": (1, 2.5, "s", False), "f": Fraction(-1, 2)}
    assert plain(value) == {
        "r": {"ok": True, "items": [["x1", None]], "note": "n"},
        "k": [1, 2.5, "s", False],
        "f": "-1/2",
    }
    assert plain(x1.scale(field.from_int(3))) == "3*x1" and plain(field.from_int(10)) == "3"
    # to_dict applies it to every field, a record inside a record included
    assert Point(Point(x1), [Fraction(3)]).to_dict() == {"x": {"x": "x1", "y": None}, "y": ["3"]}
