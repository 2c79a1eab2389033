"""Workloads of the illum benchmark: seeded inputs, the op list of one pass,
and the correctness gate of every op.

An op is one CLI invocation (the argv handed to ``illum.cli.run``) plus a
gate that checks its stdout JSON, and any file it wrote, against closed
forms computed here and against the library's independent oracles.  Inputs
are generated here from the seed, so the program sees only files; gates run
outside the timed region.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass
class Op:
    argv: list[str]
    gate: Callable[[dict], list[str]]  # failure messages for a stdout document


def ball_bound(m: int, d: int) -> int:
    """(d-1)m + 1 + ceil(m/2): size of the d-ball construction."""
    return (d - 1) * m + 1 + -(-m // 2)


def regular_number(n: int, m: int) -> int:
    """ceil(m*n / floor((n-1)/2)): I^m of the regular n-gon."""
    return -(-m * n // ((n - 1) // 2))


def _write(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _multiset_total(path: str) -> int:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return sum(int(e.get("mult", 1)) for e in doc["entries"])


def _expect(errors: list[str], ok: bool, message: str):
    if not ok:
        errors.append(message)


# --------------------------------------------------------------------------
# ball-lift: float cover-and-lift plus sampled verification
# --------------------------------------------------------------------------

def b3_fan(m: int, angle: float) -> dict:
    """The 3-ball tilted fan (2m+1 fan directions plus ceil(m/2) copies of
    straight down) rotated by ``angle`` about the vertical axis, as a
    direction-multiset document."""
    k = 2 * m + 1
    eps = math.cos(m * math.pi / k) / 2
    entries = []
    for i in range(k):
        z = eps if i % 2 == 1 else -eps * eps
        horiz = math.sqrt(1.0 - z * z)
        ang = 2 * math.pi * i / k + angle
        entries.append(
            {"dir": [-horiz * math.cos(ang), -horiz * math.sin(ang), z], "mult": 1}
        )
    entries.append({"dir": [0.0, 0.0, -1.0], "mult": -(-m // 2)})
    return {"schema": "v1", "entries": entries}


def _lift_gate(m: int, d: int, out: str):
    def gate(doc: dict) -> list[str]:
        errors = []
        want = ball_bound(m, d + 1)
        _expect(errors, doc.get("d") == d + 1, f"lifted dimension {doc.get('d')}")
        _expect(errors, doc.get("size") == want, f"size {doc.get('size')} != {want}")
        total = _multiset_total(out)
        _expect(errors, total == want, f"written multiset has {total} != {want}")
        return errors

    return gate


def _ball_verify_gate(m: int, d: int, dirs: str):
    def gate(doc: dict) -> list[str]:
        errors = []
        report = doc.get("report", {})
        _expect(errors, report.get("pass") is True, "verification did not pass")
        _expect(errors, report.get("m") == m, f"report m {report.get('m')}")
        _expect(errors, report.get("worst_count", -1) >= m, "worst count below m")
        total = _multiset_total(dirs)
        want = ball_bound(m, d)
        _expect(errors, total == want, f"verified multiset has {total} != {want}")
        return errors

    return gate


def ball_lift_ops(seed: int, work: Path) -> list[Op]:
    """m=2 lifted 3 -> 4 -> 5 and m=3 lifted 3 -> 4, each step verified; the
    fans are rotated by one seeded angle."""
    angle = float(np.random.default_rng(seed).uniform(0.0, 2 * math.pi))
    ops = []
    for m, top in ((2, 5), (3, 4)):
        _write(work / f"ball_m{m}_d3.json", b3_fan(m, angle))
        for d in range(3, top):
            src = str(work / f"ball_m{m}_d{d}.json")
            out = str(work / f"ball_m{m}_d{d + 1}.json")
            ops.append(
                Op(
                    ["ball-lift", "--dirs", src, "-m", str(m), "-d", str(d),
                     "--out", out],
                    _lift_gate(m, d, out),
                )
            )
            ops.append(
                Op(
                    ["ball-verify", "--dirs", out, "-m", str(m), "-d", str(d + 1)],
                    _ball_verify_gate(m, d + 1, out),
                )
            )
    return ops


# --------------------------------------------------------------------------
# polygon-exact: exact Fraction piercing with chain certificates
# --------------------------------------------------------------------------

#: random lattice polygons per pass: every (n, m) below, fresh geometry per seed
LATTICE_SIZES = (5, 7, 9, 20, 35, 50, 65, 80)
LATTICE_DEMANDS = (1, 2, 3, 4, 5, 6)
LATTICE_RADIUS = 1000
REGULAR_N, REGULAR_M = 200, 3


def regular_polygon(n: int, phase: float) -> list[tuple[Fraction, Fraction]]:
    """Centrally symmetric rational n-gon (n even) with edge directions
    2*pi*i/n + phase rounded to denominators <= 10**6; central symmetry
    keeps the vertex-arc pattern of the regular n-gon."""
    edge_len = 2 * math.sin(math.pi / n)
    half = []
    for i in range(n // 2):
        ang = 2 * math.pi * i / n + phase
        half.append(
            (
                Fraction(edge_len * math.cos(ang)).limit_denominator(10 ** 6),
                Fraction(edge_len * math.sin(ang)).limit_denominator(10 ** 6),
            )
        )
    return _close_edges(half + [(-x, -y) for x, y in half])


def lattice_polygon(rng, n: int, radius: int) -> list[tuple[int, int]]:
    """Random strictly convex lattice n-gon: n-1 random integer edges closed
    by their negated sum, all directions distinct, sorted by angle."""
    while True:
        edges = [tuple(int(c) for c in rng.integers(-radius, radius + 1, 2))
                 for _ in range(n - 1)]
        edges.append((-sum(e[0] for e in edges), -sum(e[1] for e in edges)))
        if (0, 0) in edges:
            continue
        primitive = {(x // math.gcd(x, y), y // math.gcd(x, y)) for x, y in edges}
        if len(primitive) != n:
            continue
        edges.sort(key=lambda e: math.atan2(e[1], e[0]))
        turns = (
            edges[i][0] * edges[(i + 1) % n][1] - edges[i][1] * edges[(i + 1) % n][0]
            for i in range(n)
        )
        if all(t > 0 for t in turns):
            return _close_edges(edges)


def _close_edges(edges):
    verts, x, y = [], 0, 0
    for ex, ey in edges:
        verts.append((x, y))
        x, y = x + ex, y + ey
    return verts


def _polygon_doc(vertices) -> dict:
    return {"schema": "v1", "vertices": [[str(x), str(y)] for x, y in vertices]}


def _polygon_gate(vertices, m: int, regular: bool):
    def gate(doc: dict) -> list[str]:
        from illum.geometry import ConvexPolygon, DirectionMultiset, verify_mfold
        from illum.piercing import (
            PiercingSolution,
            certificate_lower_bound,
            min_mfold_pierce_bruteforce,
            verify_piercing,
        )
        from illum.polygons import vertex_arcs

        errors = []
        poly = ConvexPolygon(vertices)
        system = vertex_arcs(poly)
        n = poly.n
        optimum, certificate = doc["optimum"], doc["certificate"]
        dirs = [tuple(Fraction(c) for c in d) for d in doc["directions"]]
        _expect(errors, len(dirs) == optimum, f"{len(dirs)} directions != {optimum}")
        _expect(errors, certificate["bound"] == optimum,
                f"certificate bound {certificate['bound']} != {optimum}")
        rederived = certificate_lower_bound(system, certificate, m)
        _expect(errors, rederived == optimum, f"re-derived bound {rederived}")
        solution = PiercingSolution(
            size=len(dirs), m=m, slots=[(0, 1)] * len(dirs), directions=dirs,
            certificate=certificate,
        )
        _expect(errors, verify_piercing(system, solution, m), "piercing re-check failed")
        report = verify_mfold(poly, DirectionMultiset.from_vectors(dirs), m)
        _expect(errors, report.passed, "exact m-fold verification failed")
        if regular:
            want = regular_number(n, m)
            _expect(errors, optimum == want, f"regular {n}-gon optimum != {want}")
        if n <= 9 and m <= 4:
            brute = min_mfold_pierce_bruteforce(system, m)
            _expect(errors, optimum == brute, f"brute force gives {brute}")
        return errors

    return gate


def polygon_exact_ops(seed: int, work: Path) -> list[Op]:
    """The rational regular 200-gon at m=3 plus one random lattice polygon
    for every (n, m) of the fixed schedule."""
    rng = np.random.default_rng(seed)
    instances = [
        (regular_polygon(REGULAR_N, float(rng.uniform(0, 2 * math.pi / REGULAR_N))),
         REGULAR_M, True)
    ]
    for n in LATTICE_SIZES:
        for m in LATTICE_DEMANDS:
            instances.append((lattice_polygon(rng, n, LATTICE_RADIUS), m, False))
    ops = []
    for k, (vertices, m, regular) in enumerate(instances):
        path = _write(work / f"polygon_{k}.json", _polygon_doc(vertices))
        ops.append(
            Op(["polygon-solve", "--polygon", path, "-m", str(m)],
               _polygon_gate(vertices, m, regular))
        )
    return ops


# --------------------------------------------------------------------------
# capbody-ledger: lemma ledger plus prism cap-body constructions
# --------------------------------------------------------------------------

CAPBODY_SIZES = (4, 5, 6)
CAPBODY_DEMANDS = (1, 2, 3)


def prism_apexes(n: int, with_bottom: bool) -> list[list[float]]:
    """Ring of n apexes tangent along the equator plus the top apex (and the
    bottom one): the prism cap body of the paper."""
    ring_r = 1.0 / math.cos(math.pi / n)
    pole_z = 1.0 / math.cos((n - 2) * math.pi / (2 * n))
    apexes = [
        [ring_r * math.cos(2 * math.pi * i / n), ring_r * math.sin(2 * math.pi * i / n), 0.0]
        for i in range(1, n + 1)
    ]
    apexes.append([0.0, 0.0, pole_z])
    if with_bottom:
        apexes.append([0.0, 0.0, -pole_z])
    return apexes


def capbody_number(n: int, m: int, with_bottom: bool) -> int:
    """m (top only) or 2m (top and bottom) plus the regular n-gon value."""
    return (2 if with_bottom else 1) * m + regular_number(n, m)


def _lemma_gate(seed: int):
    def gate(doc: dict) -> list[str]:
        errors = []
        results = doc.get("results", [])
        _expect(errors, doc.get("seed") == seed, f"seed {doc.get('seed')}")
        _expect(errors, doc.get("all_passed") is True, "ledger not all_passed")
        _expect(errors, bool(results), "ledger is empty")
        failed = [r["name"] for r in results if not r.get("passed")]
        _expect(errors, not failed, f"failed entries {failed}")
        return errors

    return gate


def _construct_gate(n: int, m: int, with_bottom: bool, out: str):
    def gate(doc: dict) -> list[str]:
        errors = []
        want = capbody_number(n, m, with_bottom)
        _expect(errors, doc.get("size") == want, f"size {doc.get('size')} != {want}")
        _expect(errors, doc.get("expected") == want, f"expected {doc.get('expected')}")
        total = _multiset_total(out)
        _expect(errors, total == want, f"written multiset has {total} != {want}")
        return errors

    return gate


def _capbody_verify_gate(m: int):
    def gate(doc: dict) -> list[str]:
        errors = []
        report = doc.get("report", {})
        _expect(errors, report.get("pass") is True, "verification did not pass")
        _expect(errors, report.get("m") == m, f"report m {report.get('m')}")
        return errors

    return gate


def _validate_gate(apexes: int):
    def gate(doc: dict) -> list[str]:
        errors = []
        _expect(errors, doc.get("valid") is True, "cap body reported invalid")
        _expect(errors, doc.get("apexes") == apexes, f"apex count {doc.get('apexes')}")
        return errors

    return gate


def capbody_ledger_ops(seed: int, work: Path) -> list[Op]:
    """The seeded lemma ledger, then construct, verify and validate for every
    prism cap body n in {4,5,6}, top only and top-bottom, m in {1,2,3}."""
    ops = [Op(["lemma-suite", "--seed", str(seed)], _lemma_gate(seed))]
    for n in CAPBODY_SIZES:
        for with_bottom in (False, True):
            apexes = prism_apexes(n, with_bottom)
            tag = f"n{n}_{'tb' if with_bottom else 'top'}"
            spec = _write(work / f"capbody_{tag}.json",
                          {"schema": "v1", "dim": 3, "apexes": apexes})
            for m in CAPBODY_DEMANDS:
                out = str(work / f"capbody_{tag}_m{m}.json")
                ops.append(
                    Op(
                        ["capbody-construct", "--n", str(n), "-m", str(m),
                         "--top-bottom" if with_bottom else "--top-only", "--out", out],
                        _construct_gate(n, m, with_bottom, out),
                    )
                )
                ops.append(
                    Op(["capbody-verify", "--spec", spec, "--dirs", out, "-m", str(m)],
                       _capbody_verify_gate(m))
                )
                ops.append(Op(["capbody-validate", "--spec", spec],
                              _validate_gate(len(apexes))))
    return ops


_BUILDERS = {
    "ball-lift": ball_lift_ops,
    "polygon-exact": polygon_exact_ops,
    "capbody-ledger": capbody_ledger_ops,
}


WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's seeded inputs under ``work``; return one pass."""
    return _BUILDERS[workload](seed, work)
