"""The benchmark in ``perfbench/`` reaches into illum by module, function and
method name.  These checks import its ``run.py``, ``layers.py`` and
``workloads.py`` unchanged, so a change to ``src/`` that removes a name they
use, or that fails a workload's gate, fails here rather than in a benchmark
run."""

import importlib.util
import inspect
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module; it imports ``layers`` itself.  The
    import path and module table are restored afterwards."""
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
        yield run
    finally:
        sys.path[:] = saved_path
        for name in ("layers", "workloads"):
            if name not in saved_modules:
                sys.modules.pop(name, None)


def test_environment_reads(bench):
    env = bench.environment()
    assert env["python"] and env["numpy"] and env["nproc"] >= 1


def test_trace_installs_and_removes_cleanly(bench):
    layers = bench.layers
    entries = layers.traced_functions()
    assert entries
    installation = layers.Installation(layers.Tracer())
    try:
        assert layers.escaped_references(installation.table) == []
        for _, owner, attr, fn in entries:
            assert getattr(owner, attr).__wrapped__ is fn
    finally:
        installation.remove()
    for _, owner, attr, fn in entries:
        current = vars(owner)[attr] if inspect.isclass(owner) else getattr(owner, attr)
        assert current is fn


def test_parsing_and_dispatch_are_their_own_spans(bench):
    # the trace names argparse's time and the command handlers' own time
    # instead of leaving them in cli.run's own
    from illum import cli

    layers = bench.layers
    tracer = layers.Tracer()
    installation = layers.Installation(tracer)
    try:
        result = cli.run(["bounds", "-m", "1", "-d", "3"])
    finally:
        installation.remove()
    assert result.status == "ok"
    assert tracer.calls["cli.run"] == 1 and tracer.calls["cli.parse_args"] == 1
    assert tracer.edges[("cli.run", "cli.parse_args")] == 1
    assert tracer.edges[("cli.run", "cli.dispatch")] == 1


@pytest.mark.parametrize("workload", ["ball-lift", "polygon-exact", "capbody-ledger"])
def test_one_pass_meets_every_gate(bench, workload, tmp_path):
    # one seeded pass through the CLI dispatcher, gated as the benchmark
    # gates its first pass
    from illum import cli, jsonio

    assert workload in bench.workloads.WORKLOADS
    for op in bench.workloads.build(workload, 5, tmp_path):
        result = cli.run(op.argv)
        assert result.status == "ok", (op.argv, result.payload)
        doc = json.loads(jsonio.dump_json(result.payload))
        assert op.gate(doc) == [], op.argv
