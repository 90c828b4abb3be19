"""Fast checks of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import gates  # noqa: E402
import workloads  # noqa: E402


def run_bench(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        item = result["metrics"][m["name"]]
        assert item["unit"] == m["unit"]
        assert math.isfinite(item["value"])
        assert any(line.startswith(f"{m['name']} = ") and line.endswith(m["unit"])
                   for line in lines)
    assert any(line.startswith("failure_rate = 0.0 ratio") for line in lines)
    facts = json.loads(next(line for line in lines if line.startswith("facts "))[6:])
    assert facts["seed"] == 7 and facts["workload"] == workload
    assert facts["thread_env"]["OPENBLAS_NUM_THREADS"] == str(min(2, facts["nproc"]))


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "coupling_sweep", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_sweep_inputs_follow_the_seed():
    configs = ROOT / "configs"
    first = workloads.coupling_sweep(configs, 5, smoke=False)
    assert first == workloads.coupling_sweep(configs, 5, smoke=False)
    assert first != workloads.coupling_sweep(configs, 6, smoke=False)
    assert len(first.ops) == workloads.SWEEP_SETS
    for op in first.ops:
        values = dict(item.split("=") for item in op.sets)
        assert float(values["g_minus"]) <= 0.5
        assert float(values.get("g_plus", 0.0)) <= 0.5


def test_gates_reject_wrong_header_and_changed_bytes():
    op = workloads.Op("evolve", ROOT / "configs" / "fig2.cfg")
    good = gates.HEADERS["evolve"] + "\n0.0,1.0,0.0,0.0,1.0,1.0,0.375,1.0,-1.0\n"
    ref = _result(good)
    assert gates.check_reference(None, op, _result("t,norm2\n0.0,1.0\n"))
    assert gates.check_reference(None, op, _result(good, code=2))
    assert gates.same_as_reference(_result(good.replace("0.375", "0.376")), ref)
    assert not gates.same_as_reference(_result(good), ref)


def _result(text: str, code: int = 0):
    return SimpleNamespace(code=code, seconds=0.0, out=text.encode(), stdout="")
