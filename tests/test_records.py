"""The library's records are namedtuples: immutable, hashable, and shown
with the repr they have always had.  `Partition` validation is tested
beside its module."""

import pytest

from tricomm import numtheory, pipeline, wreath
from tricomm.partitions import Partition

RECORDS = {
    "Partition": lambda: Partition((2, 2)),
    "BoundReport": lambda: numtheory.bound_check(10),
    "CoefficientReport": lambda: pipeline.verify_identity(3, 2),
    "LogReport": lambda: pipeline.verify_log(3),
    "StructureReport": lambda: wreath.class_structure_report(2, 2),
}


@pytest.mark.parametrize("name", RECORDS)
def test_assigning_a_field_raises(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_repr_is_unchanged():
    assert repr(Partition((2, 2))) == "Partition(parts=(2, 2))"
    assert repr(Partition(())) == "Partition(parts=())"


def test_equal_partitions_hash_equal_and_dedupe_in_sets():
    a, b = Partition((3, 1)), Partition([3, 1])
    assert a == b and hash(a) == hash(b)
    assert {a, b, Partition((2, 2))} == {Partition((3, 1)), Partition((2, 2))}


def test_partition_keeps_its_views():
    p = Partition([2, 2, 1])
    assert (p.parts, p.size, p.multiplicities()) == ((2, 2, 1), 5, {2: 2, 1: 1})
