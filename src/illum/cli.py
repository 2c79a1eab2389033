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
import time
from dataclasses import dataclass, field

from . import balls, capbody, jsonio, piercing, polygons
from .errors import DomainError, IllumError
from .geometry import Ball, Tolerance, ellipse_body, unit_circle_body, verify_mfold
from .lemmas import run_lemma_suite


@dataclass
class CommandResult:
    status: str  # ok | fail | error
    payload: dict
    diagnostics: list[str] = field(default_factory=list)
    debug: list[str] = field(default_factory=list)  # stderr under ILLUM_LOG=debug

    @property
    def exit_code(self) -> int:
        return {"ok": 0, "fail": 1, "error": 2}[self.status]


def _tolerance(args) -> Tolerance:
    return Tolerance(margin=args.margin)


def _multiset_entries(args, multiset) -> list:
    """The multiset's JSON entries; its document is also written to --out."""
    doc = jsonio.multiset_to_json(multiset)
    if args.out:
        jsonio.write_json(args.out, doc)
    return doc["entries"]


def _verdict(report, payload: dict, diagnostics: list[str]) -> CommandResult:
    """ok or fail by the report's verdict; the signs its exact check had to
    recompute in integers go to the debug log."""
    return CommandResult(
        "ok" if report.passed else "fail",
        payload,
        diagnostics,
        [f"signs recomputed exactly: {report.recomputed}"],
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
    group = p.add_mutually_exclusive_group()
    group.add_argument("--cuts", help="comma-separated group cuts n_1..n_2m")
    group.add_argument(
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
    p.add_argument("--margin", type=float, default=1e-6)

    p = sub.add_parser("capbody-verify", help="exact m-fold check on a cap body")
    p.add_argument("--spec", required=True)
    p.add_argument("--dirs", required=True)
    p.add_argument("-m", type=int, required=True)
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
    t0 = time.perf_counter()
    poly = jsonio.polygon_from_json(jsonio.read_json(args.polygon))
    t1 = time.perf_counter()
    system = polygons.vertex_arcs(poly)
    t2 = time.perf_counter()
    solution = piercing.min_mfold_pierce(system, args.m)
    t3 = time.perf_counter()
    payload = jsonio.solution_to_json(solution)
    if args.emit_directions:
        jsonio.write_json(
            args.emit_directions,
            jsonio.multiset_to_json(solution.as_direction_multiset()),
        )
    chain = solution.certificate
    return CommandResult("ok", payload, [f"optimum {solution.size}"], [
        f"chain k={len(chain['chain'])} w={chain['wraps']}",
        f"wall s: parse {t1 - t0:.4f} arcs {t2 - t1:.4f} solve {t3 - t2:.4f}",
    ])


def _cmd_polygon_formula(args) -> CommandResult:
    value = polygons.regular_polygon_number(args.n, args.m)
    return CommandResult(
        "ok",
        {"schema": jsonio.SCHEMA, "n": args.n, "m": args.m, "value": value},
        [f"regular {args.n}-gon, m={args.m}: {value}"],
    )


def _cmd_polygon_check(args) -> CommandResult:
    poly = jsonio.polygon_from_json(jsonio.read_json(args.polygon))
    payload = {"schema": jsonio.SCHEMA, "m": args.m, "n": poly.n}
    if args.search:
        cuts = polygons.find_valid_grouping(poly, args.m)
        payload["cuts"] = cuts
        payload["satisfied"] = cuts is not None
    elif args.cuts:
        try:
            cuts = [int(c) for c in args.cuts.split(",")]
        except ValueError:
            raise DomainError(f"--cuts must be comma-separated integers: {args.cuts!r}")
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
    report = verify_mfold(body, multiset, args.m, _tolerance(args))
    payload = {
        "schema": jsonio.SCHEMA,
        "m": args.m,
        "body": args.body,
        "directions": _multiset_entries(args, multiset),
        "size": multiset.total,
        "report": jsonio.report_to_json(report),
    }
    diagnostics = [
        f"{multiset.total} directions",
        f"verification: {'pass' if report.passed else 'FAIL'}",
    ]
    return _verdict(report, payload, diagnostics)


def _ball_result(args, multiset, d: int) -> CommandResult:
    """Verify a d-ball multiset exactly at --margin, write it to --out and
    report it."""
    report = verify_mfold(Ball(d), multiset, args.m, _tolerance(args))
    payload = {
        "schema": jsonio.SCHEMA,
        "m": args.m,
        "d": d,
        "size": multiset.total,
        "directions": _multiset_entries(args, multiset),
        "verified": report.passed,
        "report": jsonio.report_to_json(report),
    }
    diagnostics = [
        f"{multiset.total} directions for the {d}-ball",
        f"verification: {'pass' if report.passed else 'FAIL'}",
    ]
    return _verdict(report, payload, diagnostics)


def _cmd_ball_construct(args) -> CommandResult:
    if args.eps is None:
        multiset = balls.recursive_ball_construction(args.m, args.d)
    elif args.d == 3:
        multiset = balls.b3_direction_multiset(args.m, args.eps)
    else:
        raise DomainError(f"--eps sets the 3-ball fan and needs -d 3, not -d {args.d}")
    return _ball_result(args, multiset, args.d)


def _cmd_ball_verify(args) -> CommandResult:
    multiset = jsonio.multiset_from_json(jsonio.read_json(args.dirs))
    report = verify_mfold(Ball(args.d), multiset, args.m, _tolerance(args))
    return _verdict(
        report,
        {"schema": jsonio.SCHEMA, "report": jsonio.report_to_json(report)},
        [f"{'pass' if report.passed else 'FAIL'} at m={args.m}, d={args.d}"],
    )


def _cmd_ball_lift(args) -> CommandResult:
    multiset = jsonio.multiset_from_json(jsonio.read_json(args.dirs))
    if multiset.dim != args.d:
        raise DomainError(
            f"the directions have dimension {multiset.dim}, not -d {args.d}"
        )
    lifted = balls.lift_directions(multiset, args.m, _tolerance(args))
    return _ball_result(args, lifted, args.d + 1)


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
        "directions": _multiset_entries(args, multiset),
    }
    return CommandResult("ok", payload, [f"{multiset.total} directions (= {expected})"])


def _cmd_capbody_verify(args) -> CommandResult:
    spec = jsonio.capbody_from_json(jsonio.read_json(args.spec))
    multiset = jsonio.multiset_from_json(jsonio.read_json(args.dirs))
    report = verify_mfold(spec, multiset, args.m, _tolerance(args))
    return _verdict(
        report,
        {"schema": jsonio.SCHEMA, "report": jsonio.report_to_json(report)},
        [f"{'pass' if report.passed else 'FAIL'} at m={args.m}"],
    )


def _cmd_capbody_validate(args) -> CommandResult:
    spec = jsonio.capbody_from_json(jsonio.read_json(args.spec))
    valid = capbody.validate_cap_body(spec)
    caps = capbody.closed_cap_of_ball(spec.apex_array().reshape(-1, spec.dim))
    radii = [jsonio.format_angle(r) for r in caps.radius.tolist()]
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


def parse_args(argv) -> argparse.Namespace:
    """The parsed arguments of one invocation; raises SystemExit on bad ones
    (after argparse has written its message to stderr)."""
    return _build_parser().parse_args(argv)


def dispatch(args: argparse.Namespace) -> CommandResult:
    """Run the command that parsed ``args`` names."""
    return _HANDLERS[args.command](args)


def run(argv) -> CommandResult:
    """Dispatch one CLI invocation; never raises for anticipated errors."""
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return CommandResult(
            "error" if exc.code else "ok",
            {"schema": jsonio.SCHEMA, "error": "argument parsing failed"}
            if exc.code
            else {"schema": jsonio.SCHEMA},
            [],
        )
    try:
        return dispatch(args)
    except (IllumError, OSError, json.JSONDecodeError) as exc:
        payload = {"schema": jsonio.SCHEMA, "error": f"{type(exc).__name__}: {exc}"}
        report = getattr(exc, "report", None)  # ConstructionFailure carries one
        if report is not None:
            payload["report"] = jsonio.report_to_json(report)
        return CommandResult("error", payload, [str(exc)])


def main(argv=None) -> int:
    result = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(jsonio.dump_json(result.payload) + "\n")
    sys.stdout.flush()
    log_level = os.environ.get("ILLUM_LOG", "info").lower()
    if log_level != "quiet":
        for line in result.diagnostics:
            sys.stderr.write(line + "\n")
        if log_level == "debug":
            for line in result.debug:
                sys.stderr.write(line + "\n")
            sys.stderr.write(f"status: {result.status}\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
