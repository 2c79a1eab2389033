import json
from fractions import Fraction

import pytest

from illum.errors import DomainError
from illum.geometry import ConvexPolygon, Direction, DirectionMultiset
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
