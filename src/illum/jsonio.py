"""Versioned JSON encodings (schema v1) for the CLI surfaces.

Exact rational coordinates travel as "num/den" strings so they round-trip
without loss; float coordinates stay JSON numbers.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import DomainError
from .geometry import ConvexPolygon, Direction, DirectionMultiset, IlluminationReport

SCHEMA = "v1"


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(doc) + "\n")


def _check_schema(doc: dict, what: str):
    if not isinstance(doc, dict):
        raise DomainError(f"{what}: expected a JSON object")
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise DomainError(f"{what}: unsupported schema {doc.get('schema')!r}")


def scalar_to_json(c):
    if isinstance(c, Fraction):
        return str(c)
    if isinstance(c, int):
        return str(Fraction(c))
    return float(c)


def scalar_from_json(c):
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, bool):
        raise DomainError("booleans are not coordinates")
    if isinstance(c, int):
        return Fraction(c)
    value = float(c)
    if not math.isfinite(value):
        raise DomainError(f"coordinate {value} is not finite")
    return value


def _json_int(value, what: str) -> int:
    """A JSON integer, not a bool, a float or a string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DomainError(f"{what} must be a JSON integer, got {value!r}")
    return value


def polygon_to_json(poly: ConvexPolygon) -> dict:
    return {
        "schema": SCHEMA,
        "vertices": [[str(x), str(y)] for x, y in poly.vertices],
    }


def polygon_from_json(doc: dict) -> ConvexPolygon:
    _check_schema(doc, "polygon")
    try:
        if any(isinstance(c, bool) for v in doc["vertices"] for c in v):
            raise TypeError("booleans are not coordinates")
        return ConvexPolygon(doc["vertices"])
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"malformed polygon JSON: {exc}") from exc


@contextmanager
def _printable():
    """Python's limit on the digits of a printed int as a DomainError."""
    try:
        yield
    except ValueError:
        raise DomainError(
            f"a coordinate has more than {sys.get_int_max_str_digits()} digits to print"
        ) from None


def multiset_to_json(multiset: DirectionMultiset) -> dict:
    with _printable():
        entries = [
            {"dir": [scalar_to_json(c) for c in d.coords], "mult": mult}
            for d, mult in multiset.entries
        ]
    return {"schema": SCHEMA, "entries": entries}


def multiset_from_json(doc: dict) -> DirectionMultiset:
    _check_schema(doc, "direction multiset")
    try:
        entries = [
            (
                Direction([scalar_from_json(c) for c in e["dir"]]),
                _json_int(e.get("mult", 1), "mult"),
            )
            for e in doc["entries"]
        ]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"malformed direction multiset JSON: {exc}") from exc
    return DirectionMultiset(entries)


def report_to_json(report: IlluminationReport) -> dict:
    return {
        "schema": SCHEMA,
        "pass": report.passed,
        "m": report.m,
        "worst_point": [scalar_to_json(c) for c in report.worst_point],
        "worst_count": report.worst_count,
        "worst_margin": float(report.worst_margin),
        "samples": report.samples,
    }


def capbody_to_json(spec) -> dict:
    return {
        "schema": SCHEMA,
        "dim": spec.dim,
        "apexes": [[scalar_to_json(c) for c in a] for a in spec.apexes],
    }


def capbody_from_json(doc: dict):
    from .capbody import CapBodySpec

    _check_schema(doc, "cap body")
    try:
        dim = _json_int(doc["dim"], "dim")
        apexes = [tuple(scalar_from_json(c) for c in a) for a in doc["apexes"]]
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        raise DomainError(f"malformed cap body JSON: {exc}") from exc
    return CapBodySpec(dim=dim, apexes=apexes)


#: most directions listed, multiplicities expanded; a larger optimum exits 2 unlisted
MAX_LISTED_DIRECTIONS = 10 ** 6


def solution_to_json(solution) -> dict:
    """Piercing solution with multiplicities expanded into the list."""
    if solution.size > MAX_LISTED_DIRECTIONS:
        raise DomainError(f"optimum {solution.size} is too large to list"
                          f" (more than {MAX_LISTED_DIRECTIONS} directions)")
    directions = []
    with _printable():
        for d, (_, mult) in zip(solution.directions, solution.slots):
            directions.extend([[str(d[0]), str(d[1])]] * mult)
    return {
        "schema": SCHEMA,
        "optimum": solution.size,
        "m": solution.m,
        "directions": directions,
        "certificate": solution.certificate,
    }


def format_angle(value: float) -> str:
    """Angles print as exact rational multiples of pi where detected to full
    float precision, otherwise as 17-significant-digit decimals."""
    candidate = Fraction(value / math.pi).limit_denominator(1000)
    if candidate != 0 and abs(float(candidate) * math.pi - value) < 4e-16:
        return f"{candidate}*pi"
    return f"{value:.17g}"
