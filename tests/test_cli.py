import json
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from illum.cli import run
from illum.geometry import ConvexPolygon, DirectionMultiset, unit_circle_body
from illum.jsonio import dump_json, multiset_to_json, polygon_to_json
from illum.polygons import regular_polygon_rational, smooth_2d_directions

from conftest import isolated_circle_cap_body, limit_denominator_polygon


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    square = ConvexPolygon([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    path.write_text(dump_json(polygon_to_json(square)))
    return str(path)


class TestBounds:
    def test_pinch_payload(self):
        result = run(["bounds", "-m", "2", "-d", "3"])
        assert result.status == "ok" and result.exit_code == 0
        assert result.payload["lower"] == 6 and result.payload["upper"] == 6

    def test_d2_has_no_upper(self):
        result = run(["bounds", "-m", "3", "-d", "2"])
        assert result.payload["lower"] == 7
        assert result.payload["upper"] is None


class TestPolygonCommands:
    def test_formula(self):
        result = run(["polygon-formula", "-n", "5", "-m", "1"])
        assert result.payload["value"] == 3

    def test_solve_square(self, square_file, tmp_path):
        out = tmp_path / "dirs.json"
        result = run(
            ["polygon-solve", "--polygon", square_file, "-m", "1",
             "--emit-directions", str(out)]
        )
        assert result.status == "ok"
        assert result.payload["optimum"] == 4
        assert len(result.payload["directions"]) == 4
        assert "anchor_arc" in result.payload["certificate"]
        emitted = json.loads(out.read_text())
        assert len(emitted["entries"]) == 4

    def test_check_condition_consecutive(self, tmp_path):
        from illum.polygons import regular_polygon_rational

        path = tmp_path / "pent.json"
        path.write_text(dump_json(polygon_to_json(regular_polygon_rational(5))))
        result = run(["polygon-check-condition", "--polygon", str(path), "-m", "2"])
        assert result.status == "ok" and result.payload["satisfied"]

    def test_check_condition_cuts_fail(self, square_file):
        result = run(
            ["polygon-check-condition", "--polygon", square_file, "-m", "1",
             "--cuts", "1,2"]
        )
        assert result.status == "fail" and result.exit_code == 1


class TestRoundTrips:
    def test_ball_construct_then_verify(self, tmp_path):
        out = tmp_path / "b3.json"
        built = run(["ball-construct", "-m", "2", "-d", "3", "--out", str(out)])
        assert built.status == "ok" and built.payload["verified"]
        verified = run(["ball-verify", "--dirs", str(out), "-m", "2", "-d", "3"])
        assert verified.status == "ok"
        assert verified.payload["report"]["pass"] is True

    def test_capbody_construct_then_verify(self, tmp_path):
        dirs = tmp_path / "dirs.json"
        spec = tmp_path / "spec.json"
        built = run(
            ["capbody-construct", "--n", "4", "-m", "1", "--top-bottom",
             "--out", str(dirs)]
        )
        assert built.status == "ok"
        assert built.payload["size"] == built.payload["expected"] == 6
        spec.write_text(dump_json(built.payload["spec"]))
        verified = run(
            ["capbody-verify", "--spec", str(spec), "--dirs", str(dirs),
             "-m", "1"]
        )
        assert verified.status == "ok"

    def test_capbody_construct_odd_ring(self):
        built = run(["capbody-construct", "--n", "9", "-m", "1"])
        assert built.status == "ok" and built.exit_code == 0
        assert built.payload["size"] == built.payload["expected"] == 4

    def test_ball_lift_chain(self, tmp_path):
        b3 = tmp_path / "b3.json"
        b4 = tmp_path / "b4.json"
        run(["ball-construct", "-m", "1", "-d", "3", "--out", str(b3)])
        lifted = run(
            ["ball-lift", "--dirs", str(b3), "-m", "1", "-d", "3",
             "--out", str(b4)]
        )
        assert lifted.status == "ok" and lifted.payload["size"] == 5
        verified = run(["ball-verify", "--dirs", str(b4), "-m", "1", "-d", "4"])
        assert verified.status == "ok"

    def test_ball_lift_of_cross_polytope_to_dimension_six(self, tmp_path):
        cross5 = tmp_path / "cross5.json"
        lifted = tmp_path / "lifted6.json"
        entries = [
            {"dir": [s * (i == j) for j in range(5)]} for i in range(5) for s in (1, -1)
        ]
        cross5.write_text(json.dumps({"entries": entries}))
        result = run(["ball-lift", "--dirs", str(cross5), "-m", "1", "-d", "5",
                      "--out", str(lifted)])
        assert result.exit_code == 0 and result.payload["verified"] is True
        assert result.payload["d"] == 6 and result.payload["size"] == 11
        verified = run(["ball-verify", "--dirs", str(lifted), "-m", "1", "-d", "6"])
        assert verified.exit_code == 0

    def test_ball_lift_reports_a_failed_check(self, tmp_path):
        # the planar 3-set has margin 0.5; tilted by 45 degrees it keeps less
        # than 0.3 at height 0.3, where straight down does not count yet
        path = tmp_path / "three.json"
        path.write_text(dump_json(multiset_to_json(
            smooth_2d_directions(unit_circle_body(), 1))))
        plain = run(["ball-verify", "--dirs", str(path), "-m", "1", "-d", "2",
                     "--margin", "0.3"])
        assert plain.exit_code == 0
        lifted = run(["ball-lift", "--dirs", str(path), "-m", "1", "-d", "2",
                      "--margin", "0.3"])
        assert lifted.exit_code == 1 and lifted.payload["verified"] is False
        assert lifted.payload["report"]["worst_count"] == 0

    def test_ball_lift_with_wrong_dimension_exits_2(self, tmp_path):
        b3 = tmp_path / "b3.json"
        run(["ball-construct", "-m", "1", "-d", "3", "--out", str(b3)])
        result = run(["ball-lift", "--dirs", str(b3), "-m", "1", "-d", "4"])
        assert result.exit_code == 2
        assert "dimension 3, not -d 4" in result.payload["error"]

    def test_ball_verify_in_dimension_six(self, tmp_path):
        # the +-e_i cross-polytope lights every point of S^5 exactly once
        path = tmp_path / "cross6.json"
        entries = [
            {"dir": [s * (i == j) for j in range(6)]} for i in range(6) for s in (1, -1)
        ]
        path.write_text(json.dumps({"entries": entries}))
        once = run(["ball-verify", "--dirs", str(path), "-m", "1", "-d", "6"])
        assert once.exit_code == 0 and once.payload["report"]["worst_count"] == 1
        twice = run(["ball-verify", "--dirs", str(path), "-m", "2", "-d", "6"])
        assert twice.exit_code == 1 and twice.payload["report"]["worst_count"] == 1

    @pytest.mark.parametrize("scale", [1.0, 1e200, 1e-200, 1e-320, "10^400"])
    def test_ball_verify_of_the_tetrahedron_at_any_scale(self, tmp_path, scale):
        # the regular simplex lights S^2 once; the coordinates' size must not
        # matter (huge floats gave a FAIL, tiny floats and exact 10^400 a
        # traceback)
        def coord(c):
            return str(c * 10 ** 400) if scale == "10^400" else c * scale

        tetrahedron = [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
        path = tmp_path / "tetrahedron.json"
        entries = [{"dir": [coord(c) for c in v], "mult": 1} for v in tetrahedron]
        path.write_text(json.dumps({"entries": entries}))
        result = run(["ball-verify", "--dirs", str(path), "-m", "1", "-d", "3"])
        assert result.exit_code == 0 and result.payload["report"]["worst_count"] == 1

    def test_smooth_construct_self_verifies(self):
        result = run(
            ["smooth-construct", "--body", "ellipse", "-a", "2", "-b", "1",
             "-m", "2"]
        )
        assert result.status == "ok"
        assert result.payload["report"]["pass"] is True


class TestValidateAndLemmas:
    def test_validate_prism(self, tmp_path):
        from illum.capbody import CapBodySpec, b3_prism_apexes
        from illum.jsonio import capbody_to_json

        path = tmp_path / "spec.json"
        path.write_text(
            dump_json(capbody_to_json(CapBodySpec(3, b3_prism_apexes(5))))
        )
        result = run(["capbody-validate", "--spec", str(path)])
        assert result.status == "ok" and result.payload["valid"]
        # ring caps have radius pi/5: reported as an exact multiple of pi
        assert result.payload["cap_radii"][0] == "1/5*pi"

    def test_validate_invalid_pair_fails(self, tmp_path):
        from illum.capbody import CapBodySpec
        from illum.jsonio import capbody_to_json

        path = tmp_path / "bad.json"
        path.write_text(
            dump_json(capbody_to_json(CapBodySpec(2, [(2, 0), (2.1, 0.01)])))
        )
        result = run(["capbody-validate", "--spec", str(path)])
        assert result.status == "fail" and result.exit_code == 1

    def test_lemma_suite(self):
        result = run(["lemma-suite", "--seed", "7"])
        assert result.status == "ok"
        assert result.payload["all_passed"]
        assert len(result.diagnostics) == len(result.payload["results"])


class TestErrors:
    def test_unknown_command(self):
        result = run(["no-such-command"])
        assert result.status == "error" and result.exit_code == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = run(["polygon-solve", "--polygon", str(bad), "-m", "1"])
        assert result.status == "error" and result.exit_code == 2

    def test_missing_file(self):
        result = run(["polygon-solve", "--polygon", "/nonexistent.json", "-m", "1"])
        assert result.status == "error"

    @pytest.mark.parametrize(
        "argv, doc",
        [
            (["polygon-solve", "--polygon", "{path}", "-m", "1"],
             {"vertices": [["1/0", "0"], ["1", "0"], ["0", "1"]]}),
            (["ball-verify", "--dirs", "{path}", "-m", "1", "-d", "3"],
             {"entries": [{"dir": ["1/0", "0", "-1"]}]}),
            (["capbody-validate", "--spec", "{path}"],
             {"dim": 2, "apexes": [["1/0", "0"], ["0", "2"]]}),
        ],
        ids=["polygon", "multiset", "capbody"],
    )
    def test_zero_denominator_exits_2(self, tmp_path, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        result = run([str(path) if a == "{path}" else a for a in argv])
        assert result.status == "error" and result.exit_code == 2
        assert "error" in result.payload

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["polygon-solve", "--polygon", "{path}", "-m", "1"],
             '{"vertices": [[1e400, 0], [1, 0], [0, 1]]}'),
            (["ball-verify", "--dirs", "{path}", "-m", "1", "-d", "3"],
             '{"entries": [{"dir": [0, 0, -1], "mult": 1e400}]}'),
            (["capbody-validate", "--spec", "{path}"],
             '{"dim": 1e400, "apexes": [[2, 0]]}'),
        ],
        ids=["polygon-vertex", "multiset-mult", "capbody-dim"],
    )
    def test_overflowing_number_exits_2(self, tmp_path, argv, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        result = run([str(path) if a == "{path}" else a for a in argv])
        assert result.status == "error" and result.exit_code == 2
        assert "error" in result.payload

    @pytest.mark.parametrize("mult", [10**29, 2**53 + 1], ids=["1e29", "2^53+1"])
    @pytest.mark.parametrize("command", ["ball-verify", "capbody-verify"])
    def test_huge_multiplicity_exits_2(self, tmp_path, capsys, monkeypatch, command, mult):
        # the cross-polytope directions +-e_i of the 3-ball, each mult times
        from illum.cli import main

        monkeypatch.delenv("ILLUM_LOG", raising=False)
        entries = [
            {"dir": [s * (i == j) for j in range(3)], "mult": mult}
            for i in range(3)
            for s in (1, -1)
        ]
        (tmp_path / "dirs.json").write_text(json.dumps({"entries": entries}))
        (tmp_path / "spec.json").write_text(
            json.dumps({"dim": 3, "apexes": [["0", "0", "1.05"]]})
        )
        args = ["--dirs", str(tmp_path / "dirs.json"), "-m", "1"]
        if command == "ball-verify":
            args += ["-d", "3"]
        else:
            args += ["--spec", str(tmp_path / "spec.json")]
        assert main([command, *args]) == 2
        out, err = capsys.readouterr()
        assert out == (
            '{"error": "DomainError: total multiplicity must be below 2^53", '
            '"schema": "v1"}\n'
        )
        assert err == "total multiplicity must be below 2^53\n"

    @pytest.mark.parametrize("command", ["polygon-solve", "polygon-check-condition"])
    @pytest.mark.parametrize(
        "vertex",
        [["0"], ["0", "0", "0"], [True, False]],
        ids=["one-coordinate", "three-coordinates", "booleans"],
    )
    def test_malformed_vertex_exits_2(self, tmp_path, command, vertex):
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"vertices": [vertex, ["3", "0"], ["0", "3"]]}))
        result = run([command, "--polygon", str(path), "-m", "1"])
        assert result.status == "error" and result.exit_code == 2
        assert "error" in result.payload

    @pytest.mark.parametrize(
        "coordinate, message",
        [
            ("1 / 2", "Invalid literal for Fraction: '1 / 2'"),
            ("1/-2", "Invalid literal for Fraction: '1/-2'"),
            ("1/ 2", "Invalid literal for Fraction: '1/ 2'"),
            ("0x10", "Invalid literal for Fraction: '0x10'"),
            ("--1", "Invalid literal for Fraction: '--1'"),
            ("1_", "Invalid literal for Fraction: '1_'"),
            ("\u00b2", "Invalid literal for Fraction: '\u00b2'"),
            ("1/0", "Fraction(1, 0)"),
            ("-0/0", "Fraction(0, 0)"),
            ("0/0", "Fraction(0, 0)"),
            ("\u0661\u0662/0", "Fraction(12, 0)"),
        ],
    )
    def test_malformed_coordinate_exits_2(self, tmp_path, coordinate, message):
        # messages recorded when every coordinate string went to Fraction()
        path = tmp_path / "poly.json"
        path.write_text(json.dumps({"vertices": [[coordinate, "0"], ["3", "0"], ["0", "3"]]}))
        result = run(["polygon-solve", "--polygon", str(path), "-m", "1"])
        assert result.exit_code == 2
        assert result.payload["error"] == f"DomainError: malformed polygon JSON: {message}"

    def test_directions_past_the_digit_limit_exit_2(self, tmp_path):
        # the 10^1600 triangle solves, but its directions have more digits
        # than Python prints; the 10^1300 one keeps its recorded bytes
        import hashlib

        def solve(exponent, *extra):
            path = tmp_path / f"tri{exponent}.json"
            vertices = [["0", "0"], [f"1e{exponent}", "0"], ["0", "1"]]
            path.write_text(json.dumps({"vertices": vertices}))
            return run(["polygon-solve", "--polygon", str(path), "-m", "2", *extra])

        def sha256(text):
            return hashlib.sha256(text.encode()).hexdigest()

        out = tmp_path / "dirs.json"
        message = f"a coordinate has more than {sys.get_int_max_str_digits()} digits to print"
        for extra in ([], ["--emit-directions", str(out)]):
            result = solve(1600, *extra)
            assert result.exit_code == 2 and result.diagnostics == [message]
            assert result.payload["error"] == f"DomainError: {message}"
        assert not out.exists()
        result = solve(1300, "--emit-directions", str(out))
        assert result.exit_code == 0
        assert sha256(dump_json(result.payload) + "\n") == (
            "732c2f7166be85d24566d65429cae9e723c10779cb988388be8f0f6cb41aa6a1"
        )
        assert sha256(out.read_text()) == (
            "7427ba7d08bfc9b16174e81b640cfa5d516f740005ff6d0e3fcaa1bb1c47780a"
        )

    def test_nan_direction_exits_2(self, tmp_path):
        path = tmp_path / "dirs.json"
        path.write_text('{"entries": [{"dir": [NaN, 0, 0]}, {"dir": [0, 0, -1]}]}')
        result = run(["ball-verify", "--dirs", str(path), "-m", "1", "-d", "3"])
        assert result.status == "error" and result.exit_code == 2
        assert "not finite" in result.payload["error"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["ball-verify", "--dirs", "{path}", "-m", "1", "-d", "3", "--samples", "100"],
            ["ball-construct", "-m", "1", "--samples", "100"],
            ["ball-construct", "-m", "1", "--no-verify"],
            ["smooth-construct", "-m", "1", "--samples", "100"],
            ["smooth-construct", "-m", "1", "--no-verify"],
            ["capbody-construct", "--n", "5", "-m", "1", "--samples", "100"],
            ["capbody-verify", "--spec", "{path}", "--dirs", "{path}", "-m", "1",
             "--samples", "100"],
        ],
        ids=["ball-verify-samples", "ball-construct-samples",
             "ball-construct-no-verify", "smooth-construct-samples",
             "smooth-construct-no-verify", "capbody-construct-samples",
             "capbody-verify-samples"],
    )
    def test_removed_sample_and_verify_flags_exit_2(self, tmp_path, argv):
        # balls, smooth bodies and cap bodies are verified exactly, always
        path = tmp_path / "dirs.json"
        path.write_text('{"entries": [{"dir": [0, 0, -1]}]}')
        result = run([str(path) if a == "{path}" else a for a in argv])
        assert result.status == "error" and result.exit_code == 2

    def test_overflowing_ellipse_axis_exits_2(self):
        # finite semi-axes whose squares overflow are rejected before the
        # support function is evaluated, so numpy warns of nothing
        for axis in ("1e308", "1.4e154"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = run(["smooth-construct", "--body", "ellipse", "-a", axis,
                              "-b", "1", "-m", "1"])
            assert result.status == "error" and result.exit_code == 2
            assert "finite" in result.payload["error"]
            assert [str(w.message) for w in caught] == [], axis

    def test_largest_ellipse_axis_still_solves(self):
        result = run(["smooth-construct", "--body", "ellipse", "-a", "1.3e154",
                      "-b", "1", "-m", "1"])
        assert result.status == "ok" and result.exit_code == 0

    @pytest.mark.parametrize("mult", ["1.5", "true", '"2"'])
    def test_non_integer_multiplicity_exits_2(self, tmp_path, mult):
        path = tmp_path / "dirs.json"
        path.write_text(
            '{"entries": [{"dir": [1, 0, 0], "mult": %s}, {"dir": [-1, 0, 0]}]}' % mult
        )
        result = run(["ball-verify", "--dirs", str(path), "-m", "1", "-d", "3"])
        assert result.status == "error" and result.exit_code == 2
        assert "mult" in result.payload["error"]

    @pytest.mark.parametrize("dim", ["3.7", "true", '"2"'])
    def test_non_integer_capbody_dimension_exits_2(self, tmp_path, dim):
        spec = tmp_path / "spec.json"
        spec.write_text('{"dim": %s, "apexes": [[2, 0, 0]]}' % dim)
        dirs = tmp_path / "dirs.json"
        dirs.write_text('{"entries": [{"dir": [-1, 0, 0]}]}')
        result = run(["capbody-verify", "--spec", str(spec), "--dirs", str(dirs), "-m", "1"])
        assert result.status == "error" and result.exit_code == 2
        assert "dim" in result.payload["error"]

    @pytest.mark.parametrize("margin", ["nan", "inf"])
    def test_non_finite_margin_exits_2(self, tmp_path, margin):
        path = tmp_path / "dirs.json"
        path.write_text('{"entries": [{"dir": [0, 0, -1]}]}')
        result = run(
            ["ball-verify", "--dirs", str(path), "-m", "1", "-d", "3",
             "--margin", margin]
        )
        assert result.status == "error" and result.exit_code == 2
        assert "margin" in result.payload["error"]

    @pytest.mark.parametrize(
        "axes",
        [["-a", "nan"], ["-a", "inf"], ["-b", "nan"]],
        ids=["a-nan", "a-inf", "b-nan"],
    )
    def test_non_finite_ellipse_axis_exits_2(self, axes):
        result = run(["smooth-construct", "--body", "ellipse", "-m", "1", *axes])
        assert result.status == "error" and result.exit_code == 2
        assert "semi-axes" in result.payload["error"]

    @pytest.mark.parametrize("cuts", ["1,a", ","])
    def test_unparsable_cuts_exit_2(self, square_file, cuts):
        result = run(
            ["polygon-check-condition", "--polygon", square_file, "-m", "1",
             "--cuts", cuts]
        )
        assert result.status == "error" and result.exit_code == 2
        assert "--cuts" in result.payload["error"]

    def test_negative_seed_exits_2(self):
        result = run(["lemma-suite", "--seed", "-1"])
        assert result.status == "error" and result.exit_code == 2
        assert "seed" in result.payload["error"]

    def test_optimum_too_large_to_list_exits_2(self, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text('{"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}')
        result = run(
            ["polygon-solve", "--polygon", str(path), "-m", "100000000000000000000"]
        )
        assert result.status == "error" and result.exit_code == 2
        assert "too large" in result.payload["error"]

    def test_optimum_past_the_listing_limit_exits_2(self, tmp_path, monkeypatch):
        from illum import jsonio

        path = tmp_path / "triangle.json"
        path.write_text('{"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}')
        monkeypatch.setattr(jsonio, "MAX_LISTED_DIRECTIONS", 300)
        listed = run(["polygon-solve", "--polygon", str(path), "-m", "100"])
        assert listed.exit_code == 0 and len(listed.payload["directions"]) == 300
        result = run(["polygon-solve", "--polygon", str(path), "-m", "101"])
        assert result.status == "error" and result.exit_code == 2
        assert result.payload["error"] == (
            "DomainError: optimum 303 is too large to list (more than 300 directions)"
        )

    def test_construction_failure_prints_its_report(self, monkeypatch):
        from illum import geometry

        def failing(body, multiset, m, tol=geometry.Tolerance()):
            return geometry.IlluminationReport(
                passed=False, m=m, worst_point=(0.0, 0.0, 1.0), worst_count=m - 1,
                worst_margin=-0.5, samples=7,
            )

        monkeypatch.setattr(geometry, "verify_mfold", failing)
        result = run(["capbody-construct", "--n", "5", "-m", "2"])
        assert result.status == "error" and result.exit_code == 2
        assert result.payload["error"].startswith("ConstructionFailure")
        assert result.payload["report"] == {
            "schema": "v1", "pass": False, "m": 2, "worst_point": [0.0, 0.0, 1.0],
            "worst_count": 1, "worst_margin": -0.5, "samples": 7,
        }

    def test_other_errors_carry_no_report(self):
        result = run(["capbody-construct", "--n", "2", "-m", "1"])
        assert result.status == "error" and "report" not in result.payload

    @pytest.mark.parametrize("d", ["2", "4", "5"])
    def test_eps_without_the_3_ball_exits_2(self, d):
        # --eps shapes the 3-ball fan only; elsewhere it would be dropped
        result = run(["ball-construct", "-m", "1", "-d", d, "--eps", "0.1"])
        assert result.status == "error" and result.exit_code == 2
        assert "--eps" in result.payload["error"]
        fan = run(["ball-construct", "-m", "1", "-d", "3", "--eps", "0.1"])
        assert fan.status == "ok"

    PENTAGON = '{"vertices": [["0", "0"], ["2", "0"], ["2", "2"], ["0", "2"], ["-1", "1"]]}'

    @pytest.mark.parametrize(
        "flags, error",
        [(["-m", "2", "--cuts", "1,2,3,4", "--search"], "argument parsing failed"),
         (["-m", "6", "--search"], "DomainError: polygon needs at least 2m+1 vertices")],
        ids=["cuts-and-search", "search-with-too-few-vertices"],
    )
    def test_check_condition_misuse_exits_2(self, tmp_path, flags, error):
        # --cuts was dropped beside --search, and the search over no cut
        # list printed "satisfied": false
        path = tmp_path / "pentagon.json"
        path.write_text(self.PENTAGON)
        result = run(["polygon-check-condition", "--polygon", str(path), *flags])
        assert result.status == "error" and result.exit_code == 2
        assert result.payload["error"] == error

    def test_smooth_construct_error_writes_no_out_file(self, tmp_path):
        out = tmp_path / "dirs.json"
        result = run(["smooth-construct", "-m", "2", "--margin", "-1", "--out", str(out)])
        assert result.status == "error" and result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["ball-verify", "--dirs", "{dirs}", "-m", "1", "-d", "3", "--margin", "1e154"],
         ["ball-verify", "--dirs", "{dirs}", "-m", "1", "-d", "3", "--margin", "1e308"],
         ["ball-construct", "-m", "2", "--margin", "1e308"],
         ["smooth-construct", "-m", "2", "--margin", "1e308"]],
        ids=["ball-verify-1e154", "ball-verify-1e308", "ball-construct", "smooth-construct"],
    )
    def test_huge_margin_warns_of_nothing(self, tmp_path, child_env, argv):
        # the sphere minimum's float bounds overflow to infinity, which
        # leaves their signs to integers; numpy must not warn of it
        dirs = tmp_path / "dirs.json"
        dirs.write_text(dump_json(multiset_to_json(DirectionMultiset.from_vectors(
            [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
        ))))
        argv = [str(dirs) if a == "{dirs}" else a for a in argv]
        child = subprocess.run([sys.executable, "-W", "error", "-m", "illum.cli", *argv],
                               capture_output=True, env=child_env(ILLUM_LOG="quiet"))
        assert (child.returncode, child.stderr) == (1, b"")
        assert child.stdout.decode() == dump_json(run(argv).payload) + "\n"


class TestDeterminism:
    def test_repeat_invocations_byte_identical(self, square_file):
        a = dump_json(run(["polygon-solve", "--polygon", square_file, "-m", "2"]).payload)
        b = dump_json(run(["polygon-solve", "--polygon", square_file, "-m", "2"]).payload)
        assert a == b

    def test_subprocess_stdout_identical(self, child_env):
        env = child_env(ILLUM_LOG="quiet")
        cmd = [sys.executable, "-m", "illum.cli", "bounds", "-m", "2", "-d", "4"]
        outs = [
            subprocess.run(cmd, capture_output=True, env=env).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1] and outs[0]


class TestGoldenStdout:
    """Stdout bytes of a lift step with its own exact check, of the exact
    check of its result, of two exact polygon solves, of the lemma ledger
    and of a sampled prism cap-body check (tests/data).  The two ball files
    were recorded from the tilt-and-add-down lift; the solves from earlier
    implementations; the ledger before it was evaluated on sample arrays.
    The cap-body file was re-recorded when the prism multiset moved to
    slots on the apex ring's own arcs at a fixed tilt: its directions, and
    so the check's worst margin, changed by design.  The further ball files
    (lifts to d = 5 and from the m = 3 fan, their checks, and the d = 5
    construction) were recorded from the all-integer sphere minimum, before
    its float filter.  The cap-body files of the planar, isolated-circle and
    margin-0 prism paths were recorded before the ball and cap-body checks
    shared one sign stage."""

    def test_ball_lift_then_verify(self, tmp_path, capsys, monkeypatch):
        from illum.balls import b3_direction_multiset
        from illum.cli import main
        from illum.jsonio import multiset_to_json

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        fan = tmp_path / "b3_m2.json"
        fan.write_text(dump_json(multiset_to_json(b3_direction_multiset(2))) + "\n")
        lifted = tmp_path / "b4_m2.json"
        assert main(["ball-lift", "--dirs", str(fan), "-m", "2", "-d", "3",
                     "--out", str(lifted)]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (data / "ball_lift_m2_d3.stdout").read_text()
        assert main(["ball-verify", "--dirs", str(lifted), "-m", "2", "-d", "4"]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (data / "ball_verify_m2_d4.stdout").read_text()

    def test_ball_lifts_checks_and_construction(self, tmp_path, capsys, monkeypatch):
        from illum.balls import b3_direction_multiset
        from illum.cli import main
        from illum.jsonio import multiset_to_json

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        for m in (2, 3):
            fan = multiset_to_json(b3_direction_multiset(m))
            (tmp_path / f"b3_m{m}.json").write_text(dump_json(fan) + "\n")

        def dirs(d, m):
            return str(tmp_path / f"b{d}_m{m}.json")

        steps = [
            (["ball-lift", "--dirs", dirs(3, 2), "-m", "2", "-d", "3",
              "--out", dirs(4, 2)], "ball_lift_m2_d3.stdout"),
            (["ball-lift", "--dirs", dirs(4, 2), "-m", "2", "-d", "4",
              "--out", dirs(5, 2)], "ball_lift_m2_d4.stdout"),
            (["ball-verify", "--dirs", dirs(5, 2), "-m", "2", "-d", "5"],
             "ball_verify_m2_d5.stdout"),
            (["ball-lift", "--dirs", dirs(3, 3), "-m", "3", "-d", "3",
              "--out", dirs(4, 3)], "ball_lift_m3_d3.stdout"),
            (["ball-verify", "--dirs", dirs(4, 3), "-m", "3", "-d", "4"],
             "ball_verify_m3_d4.stdout"),
            (["ball-construct", "-m", "2", "-d", "5"], "ball_construct_m2_d5.stdout"),
        ]
        for argv, golden in steps:
            assert main(argv) == 0, argv
            assert capsys.readouterr().out == (data / golden).read_text(), golden

    def test_polygon_solve(self, tmp_path, capsys, monkeypatch):
        from illum.cli import main

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        regular = tmp_path / "regular200.json"
        regular.write_text(dump_json(polygon_to_json(limit_denominator_polygon(200))))
        # 401 emitted slots, recorded before their nearest covering ends were
        # found by one sweep
        many = tmp_path / "regular1000.json"
        many.write_text(dump_json(polygon_to_json(regular_polygon_rational(1000))))
        cases = [
            (regular, "3", "polygon_solve_reg200_m3.stdout"),
            (data / "polygon_lattice24.json", "5", "polygon_solve_lattice24_m5.stdout"),
            (many, "1000", "polygon_solve_reg1000_m1000.stdout"),
        ]
        for path, m, golden in cases:
            assert main(["polygon-solve", "--polygon", str(path), "-m", m]) == 0
            assert capsys.readouterr().out == (data / golden).read_text()

    def test_polygon_solve_emitted_directions(self, tmp_path, monkeypatch):
        # file bytes recorded before the parse, the polygon and the vertex
        # arcs kept their coordinates as integers
        from illum.cli import main

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        regular = tmp_path / "regular200.json"
        regular.write_text(dump_json(polygon_to_json(limit_denominator_polygon(200))))
        many = tmp_path / "regular1000.json"
        many.write_text(dump_json(polygon_to_json(regular_polygon_rational(1000))))
        cases = [
            (regular, "3", "polygon_emit_reg200_m3.json"),
            (data / "polygon_lattice24.json", "5", "polygon_emit_lattice24_m5.json"),
            (many, "1000", "polygon_emit_reg1000_m1000.json"),
        ]
        for path, m, golden in cases:
            out = tmp_path / golden
            assert main(["polygon-solve", "--polygon", str(path), "-m", m,
                         "--emit-directions", str(out)]) == 0
            assert out.read_bytes() == (data / golden).read_bytes()

    def test_polygon_solve_regular_1000(self, tmp_path, capsys, monkeypatch):
        # sha256 of the stdout bytes, recorded before the vertex arcs took
        # their rays from the polygon and slots their nearest covering end
        import hashlib

        from illum.cli import main
        from illum.polygons import regular_polygon_rational

        monkeypatch.setenv("ILLUM_LOG", "quiet")
        path = tmp_path / "regular1000.json"
        path.write_text(dump_json(polygon_to_json(regular_polygon_rational(1000))))
        golden = {
            "3": "8ac3a82ed0d75f28efb083dcac31f4570351f712ac46e0c62a6ce39f4536ac72",
            "10": "2771556d69e28cbab27384ca35e0dafd47be16366bd3a954221d484bfd8e2f44",
        }
        for m, digest in golden.items():
            assert main(["polygon-solve", "--polygon", str(path), "-m", m]) == 0
            stdout = capsys.readouterr().out.encode()
            assert hashlib.sha256(stdout).hexdigest() == digest, m

    def test_polygon_solve_regular_10000(self, tmp_path, capsys, monkeypatch):
        # sha256 of the stdout bytes, recorded before the polygon was parsed
        # and built on integers and slot intervals were found by one merge
        import hashlib

        from illum.cli import main
        from illum.polygons import regular_polygon_rational

        monkeypatch.setenv("ILLUM_LOG", "quiet")
        path = tmp_path / "regular10000.json"
        path.write_text(dump_json(polygon_to_json(regular_polygon_rational(10 ** 4))))
        assert main(["polygon-solve", "--polygon", str(path), "-m", "3"]) == 0
        stdout = capsys.readouterr().out.encode()
        assert hashlib.sha256(stdout).hexdigest() == (
            "3254797a45cdae6230383401b76bd169d4f83e5bae97d91c2746e1e92632f6fa"
        )

    def test_lemma_suite(self, capsys, monkeypatch):
        from illum.cli import main

        monkeypatch.setenv("ILLUM_LOG", "quiet")
        assert main(["lemma-suite", "--seed", "7"]) == 0
        golden = Path(__file__).parent / "data" / "lemma_suite_seed7.stdout"
        assert capsys.readouterr().out == golden.read_text()

    def test_capbody_construct_then_verify(self, tmp_path, capsys, monkeypatch):
        from illum.cli import main

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        dirs = tmp_path / "dirs.json"
        assert main(["capbody-construct", "--n", "5", "-m", "2", "--top-bottom",
                     "--out", str(dirs)]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(dump_json(json.loads(capsys.readouterr().out)["spec"]))
        assert main(["capbody-verify", "--spec", str(spec), "--dirs", str(dirs),
                     "-m", "2"]) == 0
        stdout = capsys.readouterr().out
        assert stdout == (data / "capbody_verify_n5_tb_m2.stdout").read_text()

    def test_capbody_verify_paths(self, tmp_path, capsys, monkeypatch):
        # a planar single-spike disk (the equator of the arrangement), an
        # apex circle that meets no other (a plane through its axis) and a
        # prism at margin 0, whose ring caps touch
        from illum.capbody import CapBodySpec, b2_single_spike_directions
        from illum.cli import main
        from illum.jsonio import capbody_to_json

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        apexes, polar = isolated_circle_cap_body()
        cases = [
            (CapBodySpec(2, [(2.0, 0.5)]), b2_single_spike_directions((2.0, 0.5), 2),
             ["-m", "2"], "capbody_verify_disk_m2.stdout"),
            (CapBodySpec(3, apexes), polar, ["-m", "1"], "capbody_verify_polar_m1.stdout"),
        ]
        for k, (spec, multiset, args, golden) in enumerate(cases):
            (tmp_path / f"spec{k}.json").write_text(dump_json(capbody_to_json(spec)))
            (tmp_path / f"dirs{k}.json").write_text(dump_json(multiset_to_json(multiset)))
            assert main(["capbody-verify", "--spec", str(tmp_path / f"spec{k}.json"),
                         "--dirs", str(tmp_path / f"dirs{k}.json"), *args]) == 0
            assert capsys.readouterr().out == (data / golden).read_text(), golden
        dirs = tmp_path / "prism.json"
        assert main(["capbody-construct", "--n", "6", "-m", "2", "--top-bottom",
                     "--margin", "0", "--out", str(dirs)]) == 0
        spec = tmp_path / "prism_spec.json"
        spec.write_text(dump_json(json.loads(capsys.readouterr().out)["spec"]))
        assert main(["capbody-verify", "--spec", str(spec), "--dirs", str(dirs),
                     "-m", "2", "--margin", "0"]) == 0
        golden = data / "capbody_verify_n6_tb_m2_margin0.stdout"
        assert capsys.readouterr().out == golden.read_text()


class TestLogStreams:
    def test_quiet_silences_stderr(self, child_env):
        env = child_env(ILLUM_LOG="quiet")
        out = subprocess.run(
            [sys.executable, "-m", "illum.cli", "bounds", "-m", "1", "-d", "3"],
            capture_output=True, env=env,
        )
        assert out.returncode == 0
        assert json.loads(out.stdout)["lower"] == 4
        assert out.stderr == b""

    def test_info_writes_summary_to_stderr_only(self, child_env):
        env = child_env(ILLUM_LOG="info")
        out = subprocess.run(
            [sys.executable, "-m", "illum.cli", "bounds", "-m", "1", "-d", "3"],
            capture_output=True, env=env,
        )
        json.loads(out.stdout)  # stdout stays machine-parseable
        assert b"lower" in out.stderr

    def test_debug_adds_status(self, child_env):
        env = child_env(ILLUM_LOG="debug")
        out = subprocess.run(
            [sys.executable, "-m", "illum.cli", "bounds", "-m", "1", "-d", "3"],
            capture_output=True, env=env,
        )
        assert b"status: ok" in out.stderr

    def test_exact_recomputations_only_under_debug(self, child_env, tmp_path):
        # the recomputed count reaches stderr under debug only; stdout and
        # the default stderr keep their bytes
        from illum.balls import b3_direction_multiset, lift_directions

        dirs = tmp_path / "b4_m2.json"
        lifted = lift_directions(b3_direction_multiset(2), 2)
        dirs.write_text(dump_json(multiset_to_json(lifted)) + "\n")
        cmd = [sys.executable, "-m", "illum.cli", "ball-verify", "--dirs", str(dirs),
               "-m", "2", "-d", "4"]
        golden = (Path(__file__).parent / "data" / "ball_verify_m2_d4.stdout").read_bytes()
        default = subprocess.run(cmd, capture_output=True, env=child_env())
        assert (default.stdout, default.stderr) == (golden, b"pass at m=2, d=4\n")
        debug = subprocess.run(cmd, capture_output=True, env=child_env(ILLUM_LOG="debug"))
        assert debug.stdout == golden
        lines = debug.stderr.decode().splitlines()
        assert lines[0] == "pass at m=2, d=4" and lines[-1] == "status: ok"
        assert len(lines) == 3 and lines[1].startswith("signs recomputed exactly: ")
        assert int(lines[1].rsplit(" ", 1)[1]) >= 0

    def test_polygon_solve_timings_only_under_debug(self, child_env, tmp_path):
        # the chain and the stage wall times reach stderr under debug only;
        # stdout keeps its bytes
        data = Path(__file__).parent / "data"
        cmd = [sys.executable, "-m", "illum.cli", "polygon-solve", "--polygon",
               str(data / "polygon_lattice24.json"), "-m", "5"]
        golden = (data / "polygon_solve_lattice24_m5.stdout").read_bytes()
        default = subprocess.run(cmd, capture_output=True, env=child_env())
        debug = subprocess.run(cmd, capture_output=True, env=child_env(ILLUM_LOG="debug"))
        assert default.stdout == debug.stdout == golden
        assert b"chain k=" not in default.stderr and b"wall s:" not in default.stderr
        lines = debug.stderr.decode().splitlines()
        assert lines[0] == default.stderr.decode().strip() and lines[-1] == "status: ok"
        chain = json.loads(golden)["certificate"]
        assert lines[1] == f"chain k={len(chain['chain'])} w={chain['wraps']}"
        words = lines[2].split()
        assert words[:2] == ["wall", "s:"] and words[2::2] == ["parse", "arcs", "solve"]
        assert all(float(t) >= 0 for t in words[3::2]) and len(lines) == 4
