"""Tests of the benchmark itself, on tiny grids.

Run from the repository root: python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from optomech_bistab import default_params, load_config  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"entanglement_surface": 5, "bistability_map": 6, "power_hysteresis": 60}

# the CSV column that holds each workload's inner grid axis; shifting it
# in every row leaves a self-consistent file that only the axis check catches
AXIS = {"entanglement_surface": "eta_target", "bistability_map": "P_in_W",
        "power_hysteresis": "P_in_W"}


@pytest.fixture(autouse=True)
def few_setup_samples(monkeypatch):
    monkeypatch.setattr(run, "SETUP_SAMPLES", 2)


def shrink(monkeypatch, name: str, grid: int) -> None:
    """Run workload ``name`` on ``grid`` points per axis for this test."""
    figures, _, checker = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name, (figures, grid, checker))


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


def test_generated_params_are_seeded_and_round_trip(tmp_path):
    base = default_params()
    a, b = inputs.physical_params(3), inputs.physical_params(3)
    assert a == b != inputs.physical_params(4)
    for name in inputs.JITTERED_FIELDS:
        ratio = getattr(a, name) / getattr(base, name)
        assert abs(ratio - 1.0) <= inputs.JITTER
    assert load_config(inputs.write_config(a, tmp_path / "seeded.cfg")) == a


@pytest.mark.parametrize("seed", range(5))
def test_jitter_keeps_bistable_window_inside_grid(seed, tmp_path, monkeypatch):
    shrink(monkeypatch, "bistability_map", 21)
    workload = workloads.make("bistability_map", seed)
    result = workload.summarize(run.timed_pass(workload, tmp_path)[0])
    unstable = result.statuses["unstable"] / result.rows
    assert 0.2 < unstable < 0.5
    assert result.failed == 0


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_run_prints_every_metric(name, trace, capsys, monkeypatch):
    shrink(monkeypatch, name, TINY[name])
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.split() == [m["name"], line.split()[1], m["unit"]]
                   for line in lines[:-1])


def test_traced_counts_on_surfaces_and_hysteresis(capsys, monkeypatch):
    shrink(monkeypatch, "entanglement_surface", 4)
    shrink(monkeypatch, "power_hysteresis", 50)
    run.main(["--workload", "entanglement_surface", "--seed", "0",
              "--seconds", "0", "--trace", "1"])
    surface = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert surface["numpy.linalg.eigvals.calls_per_row"]["value"] == 3
    assert surface["dynamics.solve_lyapunov.calls_per_ok_row"]["value"] == 1
    run.main(["--workload", "power_hysteresis", "--seed", "0",
              "--seconds", "0", "--trace", "1"])
    loop = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["metrics"]
    assert loop["dynamics.solve_lyapunov.calls"]["value"] == 0
    assert loop["steady.hysteresis.calls"]["value"] == 1


def _corrupt_number(path: Path, column: str = "photons",
                    every_row: bool = False) -> None:
    """Scale ``column`` by 1 + 1e-9 in the first data row, or in every row."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[head].split(",").index(column)
    for i in range(head + 1, len(lines) if every_row else head + 2):
        fields = lines[i].split(",")
        fields[col] = repr(float(fields[col]) * (1.0 + 1e-9))
        lines[i] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("axis", (False, True), ids=("photons", "axis"))
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_gate_fails_on_corrupted_row(name, axis, tmp_path, monkeypatch):
    shrink(monkeypatch, name, TINY[name])
    workload = workloads.make(name, 2)
    outputs = run.timed_pass(workload, tmp_path)[0]
    assert workload.check(outputs, inputs.gate_rng(2)) == []
    column = AXIS[name] if axis else "photons"
    _corrupt_number(outputs[0][0], column, every_row=axis)
    problems = workload.check(outputs, inputs.gate_rng(2))
    assert any(column in problem for problem in problems)


def test_gate_fails_on_relabelled_status(tmp_path, monkeypatch):
    shrink(monkeypatch, "bistability_map", TINY["bistability_map"])
    workload = workloads.make("bistability_map", 2)
    outputs = run.timed_pass(workload, tmp_path)[0]
    path = outputs[0][0]
    text = path.read_text()
    assert ",unstable\n" in text
    path.write_text(text.replace(",unstable\n", ",ok\n", 1))
    assert workload.check(outputs, inputs.gate_rng(2))


def test_corrupted_output_makes_run_exit_nonzero(monkeypatch, capsys):
    original = workloads.FigureWorkload.units

    def corrupting(unit):
        def call():
            paths = unit()
            _corrupt_number(paths[0])
            return paths
        return call

    monkeypatch.setattr(workloads.FigureWorkload, "units",
                        lambda self, out_dir: [corrupting(u) for u in original(self, out_dir)])
    shrink(monkeypatch, "entanglement_surface", 4)
    code = run.main(["--workload", "entanglement_surface", "--seed", "0",
                     "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and result["correct"] is False


def test_tracer_counts_nested_calls_and_restores():
    import optomech_bistab as ob

    originals = (ob.harness.evaluate_point, ob.dynamics.solve_lyapunov,
                 ob.harness.derive_model, ob.derive_model)
    tracer = Tracer()
    with tracer:
        assert ob.harness.derive_model is ob.params.derive_model is not originals[2]
        mp = ob.derive_model(default_params())
        wp = ob.working_point_from_eta(mp, 0.5, mp.omega_m)
        ob.harness.evaluate_point(wp, mp)
    assert (ob.harness.evaluate_point, ob.dynamics.solve_lyapunov,
            ob.harness.derive_model, ob.derive_model) == originals
    stats = tracer.snapshot()
    assert stats["harness.evaluate_point"][0] == 1
    assert stats["dynamics.solve_lyapunov"][0] == 1
    assert stats["numpy.linalg.eigvals"][0] == 3
    inner = stats["dynamics.solve_lyapunov"][1] + stats["dynamics.decay_rate"][1]
    assert stats["harness.evaluate_point"][2] <= \
        stats["harness.evaluate_point"][1] - inner + 1e-12


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "power_hysteresis",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "correct" not in out.stdout
