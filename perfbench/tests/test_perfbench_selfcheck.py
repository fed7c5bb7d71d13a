"""Self-tests of the benchmark itself, at tiny sizes.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import driver, runs, workloads  # noqa: E402
from repro import MatcherPool  # noqa: E402
from repro.workloads import Replayer, pool_fingerprint  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def tiny(name: str, seed: int = 3) -> workloads.Workload:
    return workloads.make(name, seed, size="tiny")


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_reports_every_end_to_end_metric(name):
    result, details = runs.end_to_end(tiny(name), seconds=0.05)
    assert result["correct"], details["problems"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_per_layer_metric(name):
    result, details = runs.traced(tiny(name), write_spans=False)
    assert result["correct"], details["problems"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _counts(result):
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "ratio") and not k.startswith("trace.")}


def test_traced_counts_repeat_for_a_seed():
    first, _ = runs.traced(tiny("window-replay"), write_spans=False)
    second, _ = runs.traced(tiny("window-replay"), write_spans=False)
    assert _counts(first) == _counts(second)
    assert first["metrics"]["pool.expired_edges"]["value"] > 0
    assert first["metrics"]["plan.view_repairs"]["value"] > 0


@pytest.mark.parametrize("name,fault", [
    ("bounded-fanout", "drop-delta"),
    ("attr-churn", "corrupt-match"),
    ("window-replay", "corrupt-match"),
])
def test_injected_fault_is_counted_as_failed(name, fault):
    result, details = runs.end_to_end(tiny(name), seconds=0.05, fault=fault)
    assert not result["correct"]
    assert result["failed"] > 0
    assert details["failed_frac"] > 0
    assert details["problems"]


def test_window_stream_feeds_the_pool_like_replayer():
    work = tiny("window-replay")
    setup = driver.set_up(work)
    res = driver.stream(setup.pool, work, None, max_flushes=20)
    assert not res.problems

    def make_pool() -> MatcherPool:
        return driver.set_up(work).pool

    replayed = Replayer(
        workloads.as_trace(work, upto=work.warmup + res.flushes), make_pool
    ).run()
    assert pool_fingerprint(replayed) == pool_fingerprint(setup.pool)


def test_inputs_depend_only_on_the_seed():
    assert tiny("attr-churn", 5).fingerprint() == tiny("attr-churn", 5).fingerprint()
    assert tiny("attr-churn", 5).fingerprint() != tiny("attr-churn", 6).fingerprint()


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", NAMES[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
