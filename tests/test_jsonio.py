import json
from fractions import Fraction

import numpy as np
import pytest

from illum.errors import DomainError
from illum.geometry import ConvexPolygon, Direction, DirectionMultiset, _ratio
from illum.jsonio import (
    capbody_from_json,
    capbody_to_json,
    multiset_from_json,
    multiset_to_json,
    polygon_from_json,
    polygon_to_json,
    report_to_json,
)


def test_polygon_round_trip_is_exact():
    poly = ConvexPolygon([(0, 0), (1, 0), (Fraction(1, 3), Fraction(7, 2))])
    doc = polygon_to_json(poly)
    assert doc["schema"] == "v1"
    back = polygon_from_json(doc)
    assert back.vertices == poly.vertices


def test_multiset_round_trip_exact_and_float():
    exact = DirectionMultiset([(Direction((Fraction(15, 8), 1)), 2)])
    back = multiset_from_json(multiset_to_json(exact))
    assert back.entries[0][0] == exact.entries[0][0]
    assert back.entries[0][1] == 2

    floats = DirectionMultiset.from_vectors([(0.25, -1.5, 0.125)])
    back = multiset_from_json(multiset_to_json(floats))
    assert back.entries[0][0].coords == (0.25, -1.5, 0.125)


def test_capbody_round_trip():
    from illum.capbody import CapBodySpec

    spec = CapBodySpec(2, [(2, 0), (-2, 0)])
    back = capbody_from_json(capbody_to_json(spec))
    assert back.dim == 2 and len(back.apexes) == 2


def test_report_json_keys():
    from illum.geometry import Ball, verify_mfold

    multiset = DirectionMultiset.from_vectors([(0.0, -1.0), (0.0, 1.0), (1.0, 0.1)])
    doc = report_to_json(verify_mfold(Ball(2), multiset, 1))
    keys = {"schema", "pass", "m", "worst_point", "worst_count", "worst_margin", "samples"}
    assert set(doc) == keys
    # the count of exactly recomputed signs is not part of the report
    cross = DirectionMultiset.from_vectors([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)])
    report = verify_mfold(Ball(2), cross, 1)
    assert report.recomputed > 0 and set(report_to_json(report)) == keys


@pytest.mark.parametrize("mult", [1.5, True, "2"])
def test_multiplicity_must_be_a_json_integer(mult):
    doc = {"entries": [{"dir": [1.0, 0.0], "mult": mult}]}
    with pytest.raises(DomainError, match="mult"):
        multiset_from_json(doc)


@pytest.mark.parametrize("dim", [3.7, True, "2"])
def test_capbody_dimension_must_be_a_json_integer(dim):
    with pytest.raises(DomainError, match="dim"):
        capbody_from_json({"dim": dim, "apexes": [[2.0, 0.0]]})


def test_schema_mismatch_rejected():
    with pytest.raises(DomainError):
        polygon_from_json({"schema": "v2", "vertices": []})


def test_malformed_entries_rejected():
    with pytest.raises(DomainError):
        multiset_from_json({"entries": [{"mult": 1}]})


def test_non_finite_direction_rejected():
    for text in ('[NaN, 0, 0]', '[1e400, 0, 0]', '[0, -Infinity, 0]'):
        doc = json.loads('{"entries": [{"dir": %s}]}' % text)
        with pytest.raises(DomainError, match="not finite"):
            multiset_from_json(doc)


def test_non_finite_capbody_apex_rejected():
    doc = json.loads('{"dim": 3, "apexes": [[1e400, 0, 0], [0, 0, 2]]}')
    with pytest.raises(DomainError, match="not finite"):
        capbody_from_json(doc)


def _outcome(parse, c):
    """The value, or the type and message of the error, of parse(c)."""
    try:
        return parse(c)
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


def _ratio_value(c) -> Fraction:
    """The value of ``_ratio(c)``, whose denominator must be positive."""
    p, q = _ratio(c)
    assert type(p) is int and type(q) is int and q > 0
    return Fraction(p, q)


COORDINATE_STRINGS = [
    "0", "-0", "+0", "7", "-7", "00012", "1/2", "-1/2", "4/6", "-0/5",
    "123456789012345678901234567890/987654321", "1 / 2", "1/-2", "1/ 2",
    "1 /2", "1/+2", "+1/2", "-+1", "+-1", "--1", "-", "-/2", "/2", "1/", "/",
    "", " ", "1_000/3", "1/1_0", "1__0", "1_", "_1", " 7 ", "\t1/2", "1/2\n",
    "\u0661\u0662", "\u0661/\u0662", "-\u0663", "\u00b2", "1/0", "-0/0", "00012/0",
    "1.5", "-.5", "1e3", "1E-3", "2.5e1/2", "0x10", "0b1", "inf", "nan", "1/2/3",
    "1" * 5000, "1/" + "2" * 5000,
]


@pytest.mark.parametrize("c", COORDINATE_STRINGS)
def test_coordinate_string_parses_as_fraction(c):
    # the int() reading of "p" and "p/q" gives a ratio of Fraction(c), or
    # fails the same way
    assert _outcome(_ratio_value, c) == _outcome(Fraction, c)


@pytest.mark.parametrize("c", [0, -3, 10 ** 30, 0.1, -2.5, 1e300, True, False,
                               float("nan"), float("inf"), None, [1], Fraction(-4, 6),
                               np.int64(7), np.float64(0.25)])
def test_non_string_coordinate_parses_as_fraction(c):
    assert _outcome(_ratio_value, c) == _outcome(Fraction, c)


def test_polygon_coordinates_read_as_fractions():
    doc = {"vertices": [["-1/2", "0"], ["3", "-0"], [" 7 ", "1_0/4"], [0, 2.5]]}
    poly = polygon_from_json(doc)
    want = [tuple(Fraction(c) for c in v) for v in doc["vertices"]]
    assert poly.vertices == tuple(want)
    assert all(type(c) is Fraction for v in poly.vertices for c in v)


@pytest.mark.parametrize("vertex", [[True, 0], [0, False]])
def test_polygon_boolean_coordinates_rejected(vertex):
    with pytest.raises(DomainError, match="booleans are not coordinates"):
        polygon_from_json({"vertices": [vertex, ["3", "0"], ["0", "3"]]})


def test_coordinates_past_the_digit_limit_raise_domain_error():
    huge = Fraction(10 ** 5000 + 1, 3)
    with pytest.raises(DomainError, match="digits to print"):
        multiset_to_json(DirectionMultiset([(Direction((huge, 1)), 1)]))
