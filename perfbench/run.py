#!/usr/bin/env python3
"""Closed-loop benchmark of the illum CLI.

    python3 perfbench/run.py --workload ball-lift --seed 0 --seconds 35 --trace 0

One client in this process sends the workload's ops to ``illum.cli.run``
(the dispatcher behind the ``illum`` command), each when the previous one has
finished, and repeats the op list as passes until the next pass would overrun
``--seconds``.  Every op is checked: its status, byte-identical stdout on every
pass, and its gate on the first pass's stdout, run after the passes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
passes with passes in which every public function of illum's modules is
wrapped by a timing span (see ``layers.py``), and reports the per-layer
metrics.  The last stdout line is the result JSON; the line before it holds
the details (environment, stdout sha256 per op, sample counts, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

#: fresh interpreters timed importing the CLI, per run
SETUP_RUNS = 7
SETUP_CODE = (
    "import time; t = time.perf_counter(); import illum.cli; "
    "print(time.perf_counter() - t)"
)
#: share of a traced pass that spans below the dispatcher must explain
MIN_COVERAGE = 0.9
#: failure messages kept for the details line
MAX_FAILURE_MESSAGES = 20

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_LEMMAS = (
    "hull_union_equality", "spike_containment", "cap_interior_identity",
    "apex_transfer_to_cap", "spike_to_spike_transfer", "cap_containment",
    "closed_cap_transfer", "submultiset_monotonicity", "incompatible_pairs",
    "apex_cap_equivalence",
)
PER_LAYER = {
    "kernels.count_covering.calls": "count",
    "kernels.count_covering.self_s": "s",
    "kernels.count_covering.pairs": "count",
    "balls.ball_grid.calls": "count",
    "balls.ball_grid.self_s": "s",
    "balls.ball_grid.points": "count",
    "balls.illumination_to_cover.self_s": "s",
    "balls.illumination_to_cover.attempts": "count",
    "geometry.sphere_sample.self_s": "s",
    "geometry.sphere_sample.points": "count",
    "geometry.verify_samples.self_s": "s",
    "kernels.count_illuminating.calls": "count",
    "kernels.count_illuminating.self_s": "s",
    "kernels.count_illuminating.pairs": "count",
    "balls.lift_cover_to_directions.self_s": "s",
    "balls.cap_center_from_disk.calls": "count",
    "balls.cap_center_from_disk.self_s": "s",
    "piercing.min_mfold_pierce.calls": "count",
    "piercing.min_mfold_pierce.self_s": "s",
    "piercing.min_mfold_pierce.arcs": "count",
    "polygons.vertex_arcs.self_s": "s",
    "geometry.verify_mfold.calls": "count",
    "geometry.verify_mfold.self_s": "s",
    "capbody.apex_illuminates.calls": "count",
    "capbody.apex_illuminates.self_s": "s",
    "capbody.CapBodySpec.boundary_sample_set.self_s": "s",
    "capbody.CapBodySpec.boundary_sample_set.points": "count",
    "capbody.b3_capbody_directions.self_s": "s",
    "capbody.b3_capbody_directions.attempts": "count",
    "capbody.validate_cap_body.self_s": "s",
    **{f"lemmas.lemma_{name}.self_s": "s" for name in _LEMMAS},
    "jsonio.self_s": "s",
    "cli.run.self_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}

#: span -> the child span whose calls count its attempts (one per delta
#: halving, one per tilt halving)
ATTEMPTS = {
    "balls.illumination_to_cover": "balls.cover_min_count",
    "capbody.b3_capbody_directions": "geometry.verify_mfold",
}


def layer_value(tracer: layers.Tracer, metric: str, wall: float) -> float:
    if metric == "trace.coverage":
        return tracer.coverage(wall)
    span, field = metric.rsplit(".", 1)
    if field == "calls":
        return tracer.calls[span]
    if field == "self_s":
        return tracer.layer_self_s(span)
    if field == "attempts":
        return tracer.edges[(span, ATTEMPTS[span])]
    return tracer.work[span]


def measure_setup(runs: int) -> list[float]:
    """Seconds to import ``illum.cli`` in each of ``runs`` fresh interpreters."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return times


def environment() -> dict:
    import numpy

    from illum import _kernels

    try:
        import numba  # noqa: F401
        has_numba = True
    except ImportError:
        has_numba = False
    backend = getattr(_kernels, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_imports": has_numba,
        "kernel_backend": backend() if backend else None,
    }


class Session:
    """Runs passes over one op list and keeps the op accounting."""

    def __init__(self, ops: list[workloads.Op], work: str):
        self.ops = ops
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: list[str] | None = None  # stdout sha256 of pass 1
        self.first_outputs: list[tuple[str, str]] = []
        self.op_walls: list[list[float]] = [[] for _ in ops]

    def label(self, op: workloads.Op) -> str:
        return " ".join(a.replace(self.work, "<work>") for a in op.argv)

    def one_pass(self, record_ops: bool = True) -> tuple[float, float]:
        """Send every op once; return the pass's wall and CPU seconds."""
        from illum import cli, jsonio

        outputs = []
        op_walls = []
        wall0, cpu0 = perf_counter(), process_time()
        for op in self.ops:
            start = perf_counter()
            try:
                result = cli.run(op.argv)
                outputs.append((result.status, jsonio.dump_json(result.payload) + "\n"))
            except Exception as exc:  # an op that raises counts as failed
                outputs.append(("raised", f"{type(exc).__name__}: {exc}"))
            op_walls.append(perf_counter() - start)
        wall, cpu = perf_counter() - wall0, process_time() - cpu0
        if record_ops:
            for walls, w in zip(self.op_walls, op_walls):
                walls.append(w)
        self._check(outputs)
        return wall, cpu

    def _check(self, outputs):
        digests = [hashlib.sha256(text.encode()).hexdigest() for _, text in outputs]
        if self.reference is None:
            self.reference = digests
            self.first_outputs = outputs
        for op, (status, text), digest, ref in zip(self.ops, outputs, digests, self.reference):
            self.attempted += 1
            problems = []
            if status != "ok":
                problems.append(f"status {status}: {text[:300].strip()}")
            if digest != ref:
                problems.append("stdout differs from the first pass")
            if problems:
                self._fail(op, problems)

    def run_gates(self):
        """Gate each op's first-pass stdout; an op whose gate fails, failed."""
        for op, (status, text) in zip(self.ops, self.first_outputs):
            if status != "ok":
                continue  # already counted
            try:
                problems = op.gate(json.loads(text))
            except Exception as exc:  # a gate that cannot run fails the op
                problems = [f"gate raised {type(exc).__name__}: {exc}"]
            if problems:
                self._fail(op, problems)

    def _fail(self, op: workloads.Op, problems: list[str]):
        self.failed += 1
        if len(self.failures) < MAX_FAILURE_MESSAGES:
            self.failures.append(f"{self.label(op)}: {'; '.join(problems)}")


def measure_plain(session: Session, seconds: float) -> dict:
    walls, cpus = [], []
    while True:
        wall, cpu = session.one_pass()
        walls.append(wall)
        cpus.append(cpu)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    return {"walls": walls, "cpus": cpus}


def measure_traced(session: Session, seconds: float) -> dict:
    """Alternate plain and traced passes, starting plain, at least one each."""
    tracer = layers.Tracer()
    plain, traced, samples = [], [], []
    while True:
        if len(traced) < len(plain):
            tracer.reset()
            installation = layers.Installation(tracer)
            try:
                wall, _ = session.one_pass(record_ops=False)
            finally:
                installation.remove()
            traced.append(wall)
            samples.append(
                {m: layer_value(tracer, m, wall) for m in PER_LAYER
                 if m != "trace.overhead_s"}
            )
        else:
            wall, _ = session.one_pass()
            plain.append(wall)
        upcoming = plain if len(traced) == len(plain) else traced
        if traced and sum(plain) + sum(traced) + statistics.median(upcoming) > seconds:
            break
    values = {m: statistics.median(s[m] for s in samples) for m in samples[0]}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"walls": plain, "traced_walls": traced, "values": values,
            "coverages": [s["trace.coverage"] for s in samples]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "illum" / "__init__.py").is_file():
        print(f"perfbench: no illum package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import illum

    if Path(illum.__file__).resolve().parent != SRC / "illum":
        print(f"perfbench: imported illum from {illum.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    setup = measure_setup(SETUP_RUNS)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        session = Session(workloads.build(args.workload, args.seed, Path(work)), work)
        if args.trace:
            measured = measure_traced(session, args.seconds)
        else:
            measured = measure_plain(session, args.seconds)
        # before the gates, whose brute-force oracle allocates more than the ops
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        session.run_gates()

    correct = session.failed == 0
    if args.trace:
        low = [c for c in measured["coverages"] if c < MIN_COVERAGE]
        if low:
            correct = False
            session.failures.append(f"trace coverage {min(low):.3f} < {MIN_COVERAGE}")
        metrics = {m: {"value": measured["values"][m], "unit": unit}
                   for m, unit in PER_LAYER.items()}
    else:
        values = {
            "wall_s": statistics.median(measured["walls"]),
            "cpu_s": statistics.median(measured["cpus"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END.items()}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "samples": {
            "wall_s": len(measured["walls"]),
            "traced_wall_s": len(measured.get("traced_walls", [])),
            "setup_s": len(setup),
        },
        "pass_wall_s": measured["walls"],
        "traced_pass_wall_s": measured.get("traced_walls", []),
        "setup_s": setup,
        "error_rate": session.failed / session.attempted,
        "failures": session.failures,
        "ops": [
            {"op": session.label(op), "sha256": digest,
             "median_s": statistics.median(walls)}
            for op, digest, walls in zip(session.ops, session.reference, session.op_walls)
        ],
    }
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
