"""Smoke test of the benchmark at tiny bounds; it checks no timings.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py
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
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]

# A counter each workload must move, so a traced run that wraps nothing fails.
MOVED = {
    "verify-cli": "cli.main.self_s",
    "image-deep": "verify.image.candidates",
    "crystal-deep": "lattice_crystal.enumerate_image.elements",
    "generators-deep": "verify.steps.toggles_checked",
}


def run(workload: str, trace: int, seed: int = 3, cwd: Path = ROOT) -> dict:
    done = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = run(workload, 0)
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads((HERE / "out" / f"{workload}-seed3-trace0.json").read_text())
    assert set(report["env"]) == {"python", "platform", "git_revision", "nproc"}
    assert report["seed"] == 3
    assert report["jobs"] and all(job["word"] for job in report["jobs"])
    assert report["work_per_pass"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first, second = run(workload, 1), run(workload, 1)
    units = {name: m["unit"] for name, m in first["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first["metrics"][MOVED[workload]]["value"] > 0
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_changed_verdict_counts_as_failure():
    sys.path.insert(0, str(HERE))
    import run as bench

    bench.import_package()
    import workloads as wl

    expected = json.loads((HERE / "expected.json").read_text())
    jobs = wl.draw_jobs("image-deep", 1, "tiny", expected)
    tampered = dict(expected)
    tampered[jobs[0].id] = dict(expected[jobs[0].id], digest="0" * 16)
    runner = bench.Runner(wl, jobs, tampered)
    runner.run_pass()
    assert [f["job"] for f in runner.failures] == [jobs[0].id]
    assert runner.attempted == len(jobs)


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "image-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
