"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q
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

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, gate_bound_sweep, gate_machine_sweep, gate_verify_suite  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in DECLARED[kind]}


def _run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=root)


def _result(workload: str, trace: int) -> dict:
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_declared_workloads_exist():
    assert [workload["name"] for workload in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_have_their_units(workload):
    metrics = _result(workload, 0)["metrics"]
    assert {name: metric["unit"] for name, metric in metrics.items()} == _units("end_to_end")
    assert all(metric["value"] > 0 for metric in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = _result(workload, 1)["metrics"], _result(workload, 1)["metrics"]
    units = _units("per_layer")
    assert {name: metric["unit"] for name, metric in first.items()} == units
    counts = [name for name, unit in units.items() if unit == "count"]
    assert {name: first[name]["value"] for name in counts} == {name: second[name]["value"] for name in counts}


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    import circleclone
    from circleclone import cli, cloner, linalg, nosignalling, pauli, verify

    modules = [cli, verify, nosignalling, cloner, linalg, pauli]
    before = [dict(vars(module)) for module in modules]
    tracer = Tracer(circleclone)
    tracer.install()
    try:
        assert cloner.partial_trace is not before[3]["partial_trace"]
        assert verify.CHECKS is not before[1]["CHECKS"]
    finally:
        tracer.restore()
    for module, snapshot in zip(modules, before):
        assert all(vars(module)[name] is value for name, value in snapshot.items())


def test_gates_can_fail():
    bound = "phi,eta1,eta2,max_radius_found,circle_radius,deviation\n0,1,0,1,1,0\n1.5,0,1,1.01,1,0.01\n"
    assert gate_bound_sweep(["--n-phi", "2"], bound, 0)[:2] == (2, 1)
    assert gate_bound_sweep(["--n-phi", "3"], bound, 0)[:2] == (3, 2)
    machine = ("phi,eta1,eta2,fidelity_o,fidelity_b,ppt_min_eig,isotropy_residual\n"
               "0,1,0,1,0.5,0,0\n0.7,0.7,0.7,0.85,0.85,-1e-6,0\n0.7,0.7,0.7,0.85,0.85,0,1e-9\n")
    assert gate_machine_sweep(["--n-points", "3"], machine, 0)[:2] == (3, 2)
    verify = "PASS  a  measured 0\nFAIL  b  measured 1\n"
    assert gate_verify_suite([], verify, 1)[:2] == (26, 25)
    assert gate_verify_suite([], "PASS  a\n" * 26, 3)[:2] == (26, 1)


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench" / path.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = _run("bound_sweep", 0, tmp_path)
    assert completed.returncode != 0 and completed.stdout == ""
