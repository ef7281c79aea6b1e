"""The benchmark's own tests: ``python3 -m pytest bench -q`` from the repository root."""

import inspect
import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def fingerprint(workload):
    """Every value a task closes over, plus the cold-start commands."""
    parts = []
    for task in workload.tasks:
        captured = inspect.getclosurevars(task.run).nonlocals
        values = [v for v in captured.values() if not inspect.ismodule(v) and not callable(v)]
        parts.append(repr((task.label, task.run.__defaults__, values)))
    return parts, [start.argv for start in workload.cold]


@pytest.fixture()
def vs():
    return run.fresh_vspin()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name, vs, tmp_path):
    build = workloads.WORKLOADS[name]
    first = fingerprint(build(vs, 7, tmp_path))
    assert fingerprint(build(vs, 7, tmp_path)) == first
    assert fingerprint(build(vs, 8, tmp_path)) != first


def test_metric_names(monkeypatch):
    names = [m["name"] for group in ("end_to_end", "per_layer") for m in SPEC[group]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name

    monkeypatch.setattr(run, "SETUP_REPS", 2)  # one set-up between passes
    monkeypatch.setattr(run, "SPLIT_REPS", 1)
    monkeypatch.setattr(workloads, "COLD_STARTS", 1)
    monkeypatch.setattr(workloads, "CLI_TASKS", 8)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, _ = run.run_workload("cli", 3, 0.0, trace)
        assert result["correct"], result
        assert set(result["metrics"]) == {m["name"] for m in SPEC[group]}
        for metric in SPEC[group]:
            assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    # the set-up between passes left the tasks' modules in place for the tracer
    assert result["metrics"]["cli.run_command.calls"]["value"] == 8


def _bindings():
    return {
        (name, attr): id(value)
        for name, mod in list(sys.modules.items())
        if name == "vspin" or name.startswith("vspin.")
        for attr, value in vars(mod).items()
    }


def test_tracing_restores_every_binding(vs):
    before = _bindings()
    p = vs.SpinParameters(omega0=0.1, omegaQ=1.0, eta=0.5)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert vs.expm4 is vs.lab_frame.expm4 and hasattr(vs.expm4, "__wrapped__")
        assert hasattr(vs.cli.build_parser, "__wrapped__")
        with tracer.task(0):
            vs.rwa_infidelity(p, ratio=0.1)
    assert _bindings() == before
    names = {s[0] for s in tracer.spans}
    assert {"lab_frame.integrate_lab_frame", "lab_frame.expm4", "pulse_engine.transition_matrix_element"} <= names
    count = len(tracer.spans)
    vs.rwa_infidelity(p, ratio=0.1)
    vs.cli.build_parser()
    assert len(tracer.spans) == count
    assert not hasattr(vs.lab_frame.expm4, "__wrapped__")
