"""The library's records are namedtuples: immutable and hashable."""

import pytest

from tricomm import numtheory, pipeline, wreath

RECORDS = {
    "BoundReport": lambda: numtheory.bound_check(10),
    "CoefficientReport": lambda: pipeline.verify_identity(3, 2),
    "LogReport": lambda: pipeline.check_log(pipeline.coeffs_product(3)),
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
