"""Checks of the benchmark itself: gates reject broken outputs, the layer
trace reaches every import site without changing outputs, and the metric
lists match BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from illum import cli, jsonio  # noqa: E402


def _stdout(argv) -> dict:
    result = cli.run(argv)
    return json.loads(jsonio.dump_json(result.payload))


def _write_multiset(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class TestGates:
    def test_ball_multiset_one_direction_short_fails(self, tmp_path):
        fan = workloads.b3_fan(2, angle=0.7)
        good = _write_multiset(tmp_path / "good.json", fan)
        argv = ["ball-verify", "--dirs", good, "-m", "2", "-d", "3"]
        gate = workloads._ball_verify_gate(2, 3, good)
        assert gate(_stdout(argv)) == []

        short = dict(fan, entries=fan["entries"][1:])
        bad = _write_multiset(tmp_path / "short.json", short)
        gate = workloads._ball_verify_gate(2, 3, bad)
        assert gate(_stdout(["ball-verify", "--dirs", bad, "-m", "2", "-d", "3"]))

    def test_lifted_size_one_short_fails(self, tmp_path):
        out = _write_multiset(tmp_path / "lifted.json", workloads.b3_fan(2, 0.0))
        gate = workloads._lift_gate(2, 2, out)  # a 3-ball multiset "lifted" from d=2
        assert gate({"d": 3, "size": 6}) == []
        assert gate({"d": 3, "size": 5})

    def test_polygon_solution_one_short_fails(self, tmp_path):
        rng = np.random.default_rng(5)
        vertices = workloads.lattice_polygon(rng, 8, 50)
        path = tmp_path / "poly.json"
        path.write_text(json.dumps(workloads._polygon_doc(vertices)))
        doc = _stdout(["polygon-solve", "--polygon", str(path), "-m", "3"])
        gate = workloads._polygon_gate(vertices, 3, regular=False)
        assert gate(doc) == []

        short = dict(doc, optimum=doc["optimum"] - 1, directions=doc["directions"][1:])
        assert gate(short)

    def test_regular_polygon_matches_closed_form(self, tmp_path):
        vertices = workloads.regular_polygon(12, phase=0.1)
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(workloads._polygon_doc(vertices)))
        doc = _stdout(["polygon-solve", "--polygon", str(path), "-m", "2"])
        assert doc["optimum"] == workloads.regular_number(12, 2)
        assert workloads._polygon_gate(vertices, 2, regular=True)(doc) == []

    def test_capbody_size_off_by_one_fails(self, tmp_path):
        out = tmp_path / "cb.json"
        doc = _stdout(["capbody-construct", "--n", "4", "-m", "1", "--out", str(out)])
        gate = workloads._construct_gate(4, 1, False, str(out))
        assert gate(doc) == []
        assert gate(dict(doc, size=doc["size"] - 1))

    def test_session_counts_gate_failures(self, tmp_path):
        ops = workloads.polygon_exact_ops(0, tmp_path)[1:3]
        ops[1].gate = lambda doc: ["deliberately broken"]
        session = run.Session(ops, str(tmp_path))
        session.one_pass()
        session.run_gates()
        assert (session.attempted, session.failed) == (2, 1)


class TestTrace:
    def test_every_import_site_is_rebound(self):
        from illum import balls, capbody, geometry, lemmas, polygons

        originals = {
            "verify_mfold": geometry.verify_mfold,
            "sphere_sample": geometry.sphere_sample,
            "min_mfold_pierce": polygons.min_mfold_pierce,
        }
        installation = layers.Installation(layers.Tracer())
        try:
            for module in (geometry, balls, cli, lemmas):
                assert module.verify_mfold.__wrapped__ is originals["verify_mfold"]
            assert capbody.sphere_sample.__wrapped__ is originals["sphere_sample"]
            assert polygons.min_mfold_pierce.__wrapped__ is originals["min_mfold_pierce"]
            assert all(hasattr(fn, "__wrapped__") for _, fn in lemmas._SUITE)
            assert hasattr(capbody.CapBodySpec.boundary_sample_set, "__wrapped__")
            assert layers.escaped_references(installation.table) == []
        finally:
            installation.remove()
        assert geometry.verify_mfold is originals["verify_mfold"]
        assert layers.escaped_references(installation.table)  # originals are back

    def test_traced_outputs_match_untraced(self, tmp_path):
        ops = workloads.capbody_ledger_ops(3, tmp_path)[1:4]
        session = run.Session(ops, str(tmp_path))
        session.one_pass()
        tracer = layers.Tracer()
        installation = layers.Installation(tracer)
        try:
            wall, _ = session.one_pass()
        finally:
            installation.remove()
        session.run_gates()
        assert session.failed == 0 and session.attempted == 6
        assert tracer.calls["capbody.b3_capbody_directions"] == 1
        assert tracer.edges[("capbody.b3_capbody_directions", "geometry.verify_mfold")] >= 1
        assert tracer.work["capbody.CapBodySpec.boundary_sample_set"] > 0
        assert 0.5 < tracer.coverage(wall) <= 1.0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for metric in run.PER_LAYER:
        span, field = metric.rsplit(".", 1)
        if field in ("pairs", "points", "arcs"):
            assert layers.WORK[span][0] == field


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_depend_only_on_seed(tmp_path, name):
    contents = []
    for sub in ("a", "b"):
        work = tmp_path / sub
        work.mkdir()
        workloads.build(name, 4, work)
        contents.append([p.read_bytes() for p in sorted(work.iterdir())])
    assert contents[0] == contents[1]
