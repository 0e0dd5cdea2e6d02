"""Tests of the benchmark itself.  Run with ``python -m pytest bench``.

They use the smoke mode (one cycle per run, one set-up probe) and take
about a minute, most of it in the fresh processes of cli-cold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _smoke(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--smoke", "--workload", workload,
         "--seed", "3", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def smoke_runs() -> dict:
    return {(w, t): _smoke(w, t) for w in ("sweep-tilted", "sweep-rect", "cli-cold")
            for t in (0, 1)}


def test_every_metric_is_printed_with_its_unit(smoke_runs):
    for (workload, trace), result in smoke_runs.items():
        specs = MANIFEST["per_layer" if trace else "end_to_end"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (workload, trace)
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
            spec["name"]: spec["unit"] for spec in specs}
        assert result["attempted"] >= 1


def test_seed_defects_count_as_failed_points(smoke_runs):
    for workload in ("sweep-tilted", "sweep-rect", "cli-cold"):
        assert smoke_runs[workload, 0]["metrics"]["failed_frac"]["value"] > 0.0


def test_no_airy_call_on_sweep_rect(smoke_runs):
    metrics = smoke_runs["sweep-rect", 1]["metrics"]
    airy_calls = {k: v["value"] for k, v in metrics.items()
                  if k.startswith("airy.") and k.endswith(".calls")}
    assert len(airy_calls) == 4
    assert set(airy_calls.values()) == {0}
    assert metrics["airy.calls_per_point"]["value"] == 0


def test_per_point_counts_repeat_exactly(smoke_runs):
    again = _smoke("sweep-tilted", 1)["metrics"]
    first = smoke_runs["sweep-tilted", 1]["metrics"]
    for name in ("airy.calls_per_point", "scattering.solves_per_point"):
        assert first[name]["value"] == again[name]["value"]
        assert first[name]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "sweep-rect", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_tail_keeps_ten_samples_beyond():
    value, percentile, samples = run.tail([float(i) for i in range(100)])
    assert (value, percentile, samples) == (89.0, 90.0, 100)
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_sweep_check_flags_wrong_rows():
    op = {"argv": ["sweep", "--format", "csv"], "family": "sym", "points": 3}
    header = "gap,T,R,product\n# units: nm,dimensionless,dimensionless,hbar\n"
    good = "1.0,0.25,0.75,0.5\n"
    text = header + good + "2.0,0.25,0.70,0.5\n" + "3.0,0.25,0.75,0.6\n# skipped_rows: 0\n"
    assert checks.check_sweep(op, 0, text) == (1, 2)
    assert checks.check_sweep(op, 0, header + good + "# skipped_rows: 2\n") == (1, 0)
    assert checks.check_sweep(op, 4, "") == (0, 0)
