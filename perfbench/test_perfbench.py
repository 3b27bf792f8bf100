"""Self-test of the benchmark: miniature workloads, names, units, failures.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, env=None) -> dict:
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--mini"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["text"] = lines[:-1]
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in CONTRACT["workloads"]])
def test_miniature_emits_every_declared_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics", "text"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:
        value = result["metrics"][metric["name"]]["value"]
        assert isinstance(value, (int, float))
        assert any(line.startswith(f"{workload} {metric['name']} = ") for line in result["text"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    provenance = json.loads(result["text"][0].split(" ", 1)[1])
    for key in ("seed", "nproc", "python", "scipy", "highs", "git_commit", "dispatchers"):
        assert key in provenance


def test_injected_worker_failure_is_counted(tmp_path):
    plan = {
        "seed": 0,
        "state_dir": str(tmp_path / "faults"),
        "faults": [{"point": "worker.run", "action": "raise", "times": 1}],
    }
    env = dict(os.environ, REPRO_FAULTS=json.dumps(plan))
    result = run_bench("service_cold", 0, env=env)
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["success_ratio"]["value"] < 1.0
    assert any(line.startswith("service_cold failed_ratio = ") and not line.endswith("= 0")
               for line in result["text"])


def test_bare_directory_is_refused(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_flows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
