"""Smoke test of the benchmark, so it does not rot.

Each workload runs at smoke size, plain and traced.  The test checks that
every metric BENCHMARK.json names prints with its unit and that the run's
correctness checks pass.  It never checks a timing.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, workload, trace=0, seed=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def smoke(workload, trace=0, seed=1):
    proc = run_bench(ROOT, workload, trace, seed)
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit_and_checks_pass(workload, trace):
    record, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert record["failures"] == []
    assert set(record["sha256"]) == {"manifest.tsv", "pretrain.ckpt", "finetune.ckpt",
                                     "adapt.ckpt", "finetune.report", "adapt.report"}
    assert set(record["eer"]) == {"finetune", "adapt"}


def test_seed_selects_the_inputs():
    first, _ = smoke("recipe", seed=1)
    second, _ = smoke("recipe", seed=2)
    assert first["sha256"]["manifest.tsv"] != second["sha256"]["manifest.tsv"]


def test_fails_without_printing_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "recipe")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
