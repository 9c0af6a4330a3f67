"""Smoke tests of the benchmark itself (n = 2 analogues; seconds, not minutes).

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--seed", "7", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_lines(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    report, result = result_lines(bench("--workload", workload, "--trace", str(trace), "--smoke"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace:
        assert report["findings"] == []
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_reference_counts_as_error(tmp_path):
    refs = tmp_path / "references"
    shutil.copytree(ROOT / "bench" / "references", refs)
    doc = json.loads((refs / "ggl-n-2.json").read_text())
    doc["result"]["p"]["text"] += " + 1"
    (refs / "ggl-n-2.json").write_text(json.dumps(doc))
    report, result = result_lines(
        bench("--workload", "threshold-n4", "--smoke", "--references", str(refs)))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert report["error_rate"] > 0
    assert all("ggl-n-2.json" in e["error"] for e in report["errors"])


def test_seed_drives_routes_inputs_only():
    sys.path.insert(0, str(ROOT / "bench"))
    from run import workload_jobs

    a, used = workload_jobs("routes", 1, smoke=False)
    assert used and a == workload_jobs("routes", 1, smoke=False)[0]
    assert a != workload_jobs("routes", 2, smoke=False)[0]
    fixed, used = workload_jobs("threshold-n4", 1, smoke=False)
    assert not used and fixed == workload_jobs("threshold-n4", 2, smoke=False)[0]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "threshold-n4", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sampled_job_leaves_out_stopped_time_and_is_killed_at_deadline():
    sys.path.insert(0, str(ROOT / "bench"))
    from run import spawn

    ran = spawn([sys.executable, "-c", "import time; time.sleep(0.8); print('done')"], 30,
                sample=True)
    assert ran.code == 0 and ran.stdout.strip() == "done"
    assert len(ran.calibration) >= 4  # before, at least two while stopped, after
    assert 0.8 <= ran.wall_s < 0.8 + 0.5
    ran = spawn([sys.executable, "-c", "while True: pass"], 1.0, sample=True)
    assert ran.code is None
