"""Command-line surface: constructions, solvers, verifiers, lemma ledger.

All machine output is a single JSON document on stdout; human summaries go
to stderr (silenced by ILLUM_LOG=quiet, expanded by ILLUM_LOG=debug).
Exit codes: 0 ok, 1 fail (a negative verdict), 2 error (bad input).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field

from . import balls, capbody, jsonio, polygons
from .errors import IllumError
from .geometry import Ball, Tolerance, ellipse_body, unit_circle_body, verify_mfold
from .lemmas import run_lemma_suite


@dataclass
class CommandResult:
    status: str  # ok | fail | error
    payload: dict
    diagnostics: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "fail": 1, "error": 2}[self.status]


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: str, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dump_json(doc) + "\n")


def _tolerance(args) -> Tolerance:
    return Tolerance(
        margin=getattr(args, "margin", 1e-6),
        samples=getattr(args, "samples", None),
    )


# built once per process: construction costs milliseconds per call to run(),
# and parse_args leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="illum", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polygon-solve", help="exact I^m of a convex polygon")
    p.add_argument("--polygon", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--emit-directions")

    p = sub.add_parser("polygon-formula", help="regular n-gon closed form")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)

    p = sub.add_parser(
        "polygon-check-condition", help="consecutive/grouped exterior-angle windows"
    )
    p.add_argument("--polygon", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--cuts", help="comma-separated group cuts n_1..n_2m")
    p.add_argument(
        "--search", action="store_true", help="search for a valid grouping (n <= 12)"
    )

    p = sub.add_parser("smooth-construct", help="2m+1 directions for a smooth body")
    p.add_argument("--body", choices=["circle", "ellipse"], default="circle")
    p.add_argument("-a", type=float, default=2.0)
    p.add_argument("-b", type=float, default=1.0)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("ball-construct", help="direction multiset for the d-ball")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-d", type=int, default=3)
    p.add_argument("--eps", type=float)
    p.add_argument("--out")
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("ball-verify", help="exact m-fold check on the d-ball")
    p.add_argument("--dirs", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-d", type=int, required=True)
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("ball-lift", help="lift d-ball directions to d+1")
    p.add_argument("--dirs", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-d", type=int, required=True, help="dimension of the input ball")
    p.add_argument("--out")
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("capbody-construct", help="prism cap-body multiset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--top-only", action="store_true", default=True)
    group.add_argument("--top-bottom", dest="top_only", action="store_false")
    p.add_argument("--out")
    p.add_argument("--samples", type=int)
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("capbody-verify", help="sampled m-fold check on a cap body")
    p.add_argument("--spec", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("capbody-validate", help="pairwise apex segment condition")
    p.add_argument("--spec", required=True)

    p = sub.add_parser("bounds", help="lower bound and (d >= 3) ball upper bound")
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-d", type=int, required=True)

    p = sub.add_parser("lemma-suite", help="run the structure-lemma ledger")
    p.add_argument("--seed", type=int, required=True)

    return parser


# --- command handlers -------------------------------------------------------

def _cmd_polygon_solve(args) -> CommandResult:
    poly = jsonio.polygon_from_json(_load_json(args.polygon))
    solution = polygons.polygon_piercing_solution(poly, args.m)
    payload = jsonio.solution_to_json(solution)
    if args.emit_directions:
        _write_json(
            args.emit_directions,
            jsonio.multiset_to_json(solution.as_direction_multiset()),
        )
    return CommandResult("ok", payload, [f"optimum {solution.size}"])


def _cmd_polygon_formula(args) -> CommandResult:
    value = polygons.regular_polygon_number(args.n, args.m)
    return CommandResult(
        "ok",
        {"schema": jsonio.SCHEMA, "n": args.n, "m": args.m, "value": value},
        [f"regular {args.n}-gon, m={args.m}: {value}"],
    )


def _cmd_polygon_check(args) -> CommandResult:
    poly = jsonio.polygon_from_json(_load_json(args.polygon))
    payload = {"schema": jsonio.SCHEMA, "m": args.m, "n": poly.n}
    if args.search:
        cuts = polygons.find_valid_grouping(poly, args.m)
        payload["cuts"] = cuts
        payload["satisfied"] = cuts is not None
    elif args.cuts:
        cuts = [int(c) for c in args.cuts.split(",")]
        payload["cuts"] = cuts
        payload["satisfied"] = polygons.check_grouped_angle_condition(
            poly, args.m, cuts
        )
    else:
        payload["satisfied"] = polygons.check_consecutive_angle_condition(poly, args.m)
    status = "ok" if payload["satisfied"] else "fail"
    return CommandResult(status, payload, [f"satisfied: {payload['satisfied']}"])


def _cmd_smooth_construct(args) -> CommandResult:
    body = unit_circle_body() if args.body == "circle" else ellipse_body(args.a, args.b)
    multiset = polygons.smooth_2d_directions(body, args.m)
    payload = {
        "schema": jsonio.SCHEMA,
        "m": args.m,
        "body": args.body,
        "directions": jsonio.multiset_to_json(multiset)["entries"],
        "size": multiset.total,
    }
    report = verify_mfold(body, multiset, args.m, _tolerance(args))
    payload["report"] = jsonio.report_to_json(report)
    diagnostics = [
        f"{multiset.total} directions",
        f"verification: {'pass' if report.passed else 'FAIL'}",
    ]
    if args.out:
        _write_json(args.out, jsonio.multiset_to_json(multiset))
    return CommandResult("ok" if report.passed else "fail", payload, diagnostics)


def _cmd_ball_construct(args) -> CommandResult:
    if args.d == 3 and args.eps is not None:
        multiset = balls.b3_direction_multiset(args.m, args.eps)
    else:
        multiset = balls.recursive_ball_construction(args.m, args.d)
    payload = {
        "schema": jsonio.SCHEMA,
        "m": args.m,
        "d": args.d,
        "size": multiset.total,
        "directions": jsonio.multiset_to_json(multiset)["entries"],
    }
    report = verify_mfold(Ball(args.d), multiset, args.m, _tolerance(args))
    payload["verified"] = report.passed
    payload["report"] = jsonio.report_to_json(report)
    diagnostics = [
        f"{multiset.total} directions for the {args.d}-ball",
        f"verification: {'pass' if report.passed else 'FAIL'}",
    ]
    if args.out:
        _write_json(args.out, jsonio.multiset_to_json(multiset))
    return CommandResult("ok" if report.passed else "fail", payload, diagnostics)


def _cmd_ball_verify(args) -> CommandResult:
    multiset = jsonio.multiset_from_json(_load_json(args.dirs))
    report = verify_mfold(Ball(args.d), multiset, args.m, _tolerance(args))
    return CommandResult(
        "ok" if report.passed else "fail",
        {"schema": jsonio.SCHEMA, "report": jsonio.report_to_json(report)},
        [f"{'pass' if report.passed else 'FAIL'} at m={args.m}, d={args.d}"],
    )


def _cmd_ball_lift(args) -> CommandResult:
    multiset = jsonio.multiset_from_json(_load_json(args.dirs))
    tol = Tolerance(margin=args.margin)
    cover = balls.illumination_to_cover(multiset, args.m, args.d, tol)
    lifted = balls.lift_cover_to_directions(cover, tol)
    payload = {
        "schema": jsonio.SCHEMA,
        "m": args.m,
        "d": args.d + 1,
        "size": lifted.total,
        "translates": [[float(c) for c in t] for t in cover.translates],
        "directions": jsonio.multiset_to_json(lifted)["entries"],
    }
    if args.out:
        _write_json(args.out, jsonio.multiset_to_json(lifted))
    return CommandResult(
        "ok", payload, [f"lifted {len(cover.translates)} translates to d={args.d + 1}"]
    )


def _cmd_capbody_construct(args) -> CommandResult:
    with_bottom = not args.top_only
    tol = _tolerance(args)
    multiset = capbody.b3_capbody_directions(
        args.n, args.m, with_bottom=with_bottom, tol=tol
    )
    expected = (
        capbody.cap_body_number_top_bottom(args.n, args.m)
        if with_bottom
        else capbody.cap_body_number_top_only(args.n, args.m)
    )
    spec = capbody.CapBodySpec(
        dim=3, apexes=capbody.b3_prism_apexes(args.n, with_bottom)
    )
    payload = {
        "schema": jsonio.SCHEMA,
        "n": args.n,
        "m": args.m,
        "top_only": args.top_only,
        "size": multiset.total,
        "expected": expected,
        "spec": jsonio.capbody_to_json(spec),
        "directions": jsonio.multiset_to_json(multiset)["entries"],
    }
    if args.out:
        _write_json(args.out, jsonio.multiset_to_json(multiset))
    return CommandResult("ok", payload, [f"{multiset.total} directions (= {expected})"])


def _cmd_capbody_verify(args) -> CommandResult:
    spec = jsonio.capbody_from_json(_load_json(args.spec))
    multiset = jsonio.multiset_from_json(_load_json(args.dirs))
    report = verify_mfold(spec, multiset, args.m, _tolerance(args))
    return CommandResult(
        "ok" if report.passed else "fail",
        {"schema": jsonio.SCHEMA, "report": jsonio.report_to_json(report)},
        [f"{'pass' if report.passed else 'FAIL'} at m={args.m}"],
    )


def _cmd_capbody_validate(args) -> CommandResult:
    spec = jsonio.capbody_from_json(_load_json(args.spec))
    valid = capbody.validate_cap_body(spec)
    radii = [
        jsonio.format_angle(capbody.closed_cap_of_ball(a).radius)
        for a in spec.apexes
    ]
    return CommandResult(
        "ok" if valid else "fail",
        {
            "schema": jsonio.SCHEMA,
            "valid": valid,
            "apexes": len(spec.apexes),
            "cap_radii": radii,
        },
        [f"valid: {valid}"],
    )


def _cmd_bounds(args) -> CommandResult:
    payload = {
        "schema": jsonio.SCHEMA,
        "m": args.m,
        "d": args.d,
        "lower": polygons.lower_bound(args.m, args.d),
        "upper": balls.ball_upper_bound(args.m, args.d) if args.d >= 3 else None,
    }
    return CommandResult(
        "ok", payload, [f"lower {payload['lower']}, upper {payload['upper']}"]
    )


def _cmd_lemma_suite(args) -> CommandResult:
    results = run_lemma_suite(args.seed)
    all_passed = all(r.passed for r in results)
    payload = {
        "schema": jsonio.SCHEMA,
        "seed": args.seed,
        "all_passed": all_passed,
        "results": [
            {"name": r.name, "passed": r.passed, "detail": r.detail} for r in results
        ],
    }
    diagnostics = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}" + (f" ({r.detail})" if r.detail else "")
        for r in results
    ]
    return CommandResult("ok" if all_passed else "fail", payload, diagnostics)


_HANDLERS = {
    "polygon-solve": _cmd_polygon_solve,
    "polygon-formula": _cmd_polygon_formula,
    "polygon-check-condition": _cmd_polygon_check,
    "smooth-construct": _cmd_smooth_construct,
    "ball-construct": _cmd_ball_construct,
    "ball-verify": _cmd_ball_verify,
    "ball-lift": _cmd_ball_lift,
    "capbody-construct": _cmd_capbody_construct,
    "capbody-verify": _cmd_capbody_verify,
    "capbody-validate": _cmd_capbody_validate,
    "bounds": _cmd_bounds,
    "lemma-suite": _cmd_lemma_suite,
}


def run(argv) -> CommandResult:
    """Dispatch one CLI invocation; never raises for anticipated errors."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CommandResult(
            "error" if exc.code else "ok",
            {"schema": jsonio.SCHEMA, "error": "argument parsing failed"}
            if exc.code
            else {"schema": jsonio.SCHEMA},
            [],
        )
    try:
        return _HANDLERS[args.command](args)
    except (IllumError, OSError, json.JSONDecodeError) as exc:
        return CommandResult(
            "error",
            {"schema": jsonio.SCHEMA, "error": f"{type(exc).__name__}: {exc}"},
            [str(exc)],
        )


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(jsonio.dump_json(result.payload) + "\n")
    sys.stdout.flush()
    log_level = os.environ.get("ILLUM_LOG", "info").lower()
    if log_level != "quiet":
        for line in result.diagnostics:
            sys.stderr.write(line + "\n")
        if log_level == "debug":
            sys.stderr.write(f"status: {result.status}\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
