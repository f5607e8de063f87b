"""Self-tests of the benchmark: inputs, metric names, failure counting.

    python -m pytest perfbench

The end-to-end tests start the benchmark itself on short runs (about ten
seconds in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]()
    assert workload.generate(7) == WORKLOADS[name]().generate(7)
    assert workload.generate(7) != workload.generate(8)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tail_is_nearest_rank_with_samples_beyond():
    times = [float(i) for i in range(1000, 0, -1)]
    assert run.tail(times, 99.0) == (990.0, 10)
    assert run.tail(times[-27:], 50.0) == (14.0, 13)


def test_perturbed_solver_is_counted_as_failed(monkeypatch):
    import snyder_coulomb.numerics as numerics

    original = numerics.solve_bs_energy

    def perturbed(params, qn, method="closed_form", *args, **kwargs):
        energy = original(params, qn, method, *args, **kwargs)
        return energy * (1 + 1e-6) if method == "numeric" else energy

    workload = WORKLOADS["spectrum"]()
    inputs = workload.generate(1)[:1]
    monkeypatch.setattr(numerics, "solve_bs_energy", perturbed)
    times, _, attempted, failures = worker.run_loop(workload, inputs, seconds=0.0)
    assert attempted == 1 and times == [] and "gap" in failures[0]
    monkeypatch.undo()
    times, _, attempted, failures = worker.run_loop(workload, inputs, seconds=0.0)
    assert attempted == 1 and len(times) == 1 and failures == []


def test_traced_order_scan_counts_phi_evaluations():
    import snyder_coulomb

    workload = WORKLOADS["order-scan"]()
    inputs = workload.generate(3)[:2]
    tracer = Tracer()
    assert tracer.install(snyder_coulomb) == []
    try:
        times, _, attempted, _ = worker.run_loop(workload, inputs, seconds=0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert attempted == 1 and len(times) == 1
    layers = layer_metrics(tracer)
    assert layers["numerics.solve_closed.phi_per_solve"] > 2
    assert layers["analytic.phase_closed.calls"] == pytest.approx(
        7 * layers["numerics.solve_closed.phi_per_solve"])
    assert layers["numerics.quad.calls"] == 0
    assert snyder_coulomb.numerics.quad.__module__.startswith("scipy")


def _run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_names_every_metric_with_its_unit(trace, key):
    status, lines = _run(["--workload", "order-scan", "--seed", "5", "--seconds", "0.5",
                          "--trace", str(trace)])
    assert status == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    status, lines = _run(["--workload", "spectrum", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path)
    assert status != 0
    assert not any(line.startswith("{") for line in lines)
