"""Report records serialize field by field through the record base, _record._Record."""

import pytest

from exactqt import (CurvesMeetReport, EmbeddingCertificate, FixedPointReport, ProjectivePoint,
                     TowerVerdict)

POINT = ProjectivePoint(level=3, coordinates=("1", "t^2"), multiplier="2+t",
                        form_compatible=True)
POINT_JSON = {"level": 3, "coordinates": ["1", "t^2"], "multiplier": "2+t",
              "form_compatible": True}


# Dict equality also tells lists from tuples: [1] != (1,).
@pytest.mark.parametrize("record, expected", [
    (TowerVerdict(value=True, certified=True, witness_level=2, witness={"x": "t"}),
     {"value": True, "certified": True, "witness_level": 2, "witness": {"x": "t"}}),
    (TowerVerdict(value=None, certified=False, witness_level=None, witness=None),
     {"value": None, "certified": False, "witness_level": None, "witness": None}),
    (CurvesMeetReport(meet=True, level=2, point=("1", "0", "t"), levels_scanned=2,
                      bound_too_small=False),
     {"meet": True, "level": 2, "point": ["1", "0", "t"], "levels_scanned": 2,
      "bound_too_small": False}),
    (CurvesMeetReport(meet=None, level=None, point=None, levels_scanned=4,
                      bound_too_small=True),
     {"meet": None, "level": None, "point": None, "levels_scanned": 4,
      "bound_too_small": True}),
    (POINT, POINT_JSON),
    (FixedPointReport(twist=1, max_ext=3, points=(POINT, POINT), levels_scanned=(1, 3),
                      bound_too_small=False, notes=("level 2: skipped",)),
     {"twist": 1, "max_ext": 3, "points": [POINT_JSON, POINT_JSON], "levels_scanned": [1, 3],
      "bound_too_small": False, "notes": ["level 2: skipped"]}),
    (EmbeddingCertificate(elements_checked=9, addition_pairs=81, multiplication_pairs=81,
                          injective=True, involution_compatible=False),
     {"elements_checked": 9, "addition_pairs": 81, "multiplication_pairs": 81,
      "injective": True, "involution_compatible": False}),
], ids=["verdict", "verdict-unknown", "curves", "curves-no-point", "point", "fixed-points",
        "certificate"])
def test_record_to_json_lists_its_fields(record, expected):
    assert record.to_json() == expected
    assert list(record.to_json()) == list(expected)
