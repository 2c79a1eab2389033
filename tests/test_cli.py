import json
import subprocess
import sys
from pathlib import Path

import pytest

from illum.cli import run
from illum.geometry import ConvexPolygon
from illum.jsonio import dump_json, polygon_to_json


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
             "--out", str(dirs), "--samples", "20000"]
        )
        assert built.status == "ok"
        assert built.payload["size"] == built.payload["expected"] == 6
        spec.write_text(dump_json(built.payload["spec"]))
        verified = run(
            ["capbody-verify", "--spec", str(spec), "--dirs", str(dirs),
             "-m", "1", "--samples", "20000"]
        )
        assert verified.status == "ok"

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
        ],
        ids=["ball-verify-samples", "ball-construct-samples",
             "ball-construct-no-verify", "smooth-construct-samples",
             "smooth-construct-no-verify"],
    )
    def test_removed_sample_and_verify_flags_exit_2(self, tmp_path, argv):
        # balls and smooth bodies are verified exactly, always
        path = tmp_path / "dirs.json"
        path.write_text('{"entries": [{"dir": [0, 0, -1]}]}')
        result = run([str(path) if a == "{path}" else a for a in argv])
        assert result.status == "error" and result.exit_code == 2

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

    def test_optimum_too_large_to_list_exits_2(self, tmp_path):
        path = tmp_path / "triangle.json"
        path.write_text('{"vertices": [["0", "0"], ["1", "0"], ["0", "1"]]}')
        result = run(
            ["polygon-solve", "--polygon", str(path), "-m", "100000000000000000000"]
        )
        assert result.status == "error" and result.exit_code == 2
        assert "too large" in result.payload["error"]


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
    """Stdout bytes of a cover-and-lift step, of the exact check of its
    result and of two exact polygon solves (tests/data).  The lift and the
    solves were recorded from earlier implementations; the check's report
    (least count, its witness, candidate count) from the exact verifier."""

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

    def test_polygon_solve(self, tmp_path, capsys, monkeypatch):
        from illum.cli import main
        from illum.polygons import regular_polygon_rational

        data = Path(__file__).parent / "data"
        monkeypatch.setenv("ILLUM_LOG", "quiet")
        regular = tmp_path / "regular200.json"
        regular.write_text(dump_json(polygon_to_json(regular_polygon_rational(200))))
        cases = [
            (regular, "3", "polygon_solve_reg200_m3.stdout"),
            (data / "polygon_lattice24.json", "5", "polygon_solve_lattice24_m5.stdout"),
        ]
        for path, m, golden in cases:
            assert main(["polygon-solve", "--polygon", str(path), "-m", m]) == 0
            assert capsys.readouterr().out == (data / golden).read_text()


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
