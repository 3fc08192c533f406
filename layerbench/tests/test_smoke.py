"""Smoke test of the layered benchmark: a few ticks of each workload.

Run from the repository root:

    python3 -m pytest layerbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import replay  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The faults need ~3 s of simulated time before every disconnect is due.
TICKS = {"faults-4x384": 200}

LAYER_SPANS = {
    "client.begin", "widgets.render", "client.end",
    "compositor.watchdog", "compositor.compose", "compositor.framerate",
    "pixel.clear", "pixel.blit_native", "frame_queue.take",
    "frame_queue.release", "shm.read_header", "shm.read_heartbeat",
    "sinks.present",
}


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} == set(replay.WORKLOADS)


@pytest.mark.parametrize("workload", replay.WORKLOADS)
def test_workload_smoke(workload):
    res = run.measure(workload, seed=3, seconds=60, trace=True,
                      max_ticks=TICKS.get(workload, 40))
    assert {n: u for n, _, u, *_ in res["e2e"]} == _units(SPEC["end_to_end"])
    assert {n: u for n, _, u, *_ in res["layer"]} == _units(SPEC["per_layer"])
    for r in res["runs"]:
        assert r.failed == 0, r.problems
        assert r.checks >= 1
    expected = set(LAYER_SPANS)
    if workload == "mosaic-8x384":
        expected.add("pixel.blit_convert")
    assert expected <= set(res["tracer"].name)
    if workload == "faults-4x384":
        assert res["runs"][1].outcomes["disconnected"] > 0


def test_cli_prints_result_last():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "mosaic-8x384",
         "--seed", "1", "--seconds", "0.02", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_units(SPEC["end_to_end"]))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "mosaic-8x384",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "metrics" not in out.stdout
