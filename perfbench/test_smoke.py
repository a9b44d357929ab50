"""Smoke test of the benchmark: every workload at tiny length, both modes.

Run from the repository root with ``python3 -m pytest perfbench``. Each run
must end with the result line the benchmark's contract asks for, naming
exactly the metrics of BENCHMARK.json with their units, and must print the
numbers each workload derives from them.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DERIVED = {
    "nav5-train": ["train_env_steps_per_s", "slow_suite_cpu_h.criterion_6",
                   "slow_suite_cpu_h.criterion_7"],
    "nav8-update": ["cycle_ms.sa-matd3.p50", "cycle_ms.sa-matd3.p80",
                    "cycle_ms.sa-matd3.samples", "cycle_ms.matd3.p50",
                    "cycle_ms.matd3.p80", "cycle_ms.matd3.samples",
                    "cycle_ratio.sa-matd3/matd3.p50"],
    "pp9-rollout": ["collect_env_steps_per_s", "eval_episodes_per_s"],
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    text = "\n".join(lines[:-1])
    assert "meta {" in text and "failed_ops" in text
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        for name in DERIVED[workload]:
            assert f"  {name} " in text, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
