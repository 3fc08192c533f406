import json

from fbcomp import sinks
from fbcomp.bench import BenchConfig, BenchmarkReport


class TestReport:
    def test_names_the_crc32_backend(self):
        report = BenchmarkReport(machine="host", config=BenchConfig())
        assert json.loads(report.to_json())["crc32"] == sinks.CRC32_BACKEND
        assert report.to_text().splitlines()[0] == \
            f"machine: host, crc32 {sinks.CRC32_BACKEND}"


def _load_trajectory():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent.parent / "tools" / "bench_trajectory.py"
    spec = importlib.util.spec_from_file_location("bench_trajectory", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestTrajectory:
    def test_writes_medians_host_and_wall_times(self, tmp_path, monkeypatch):
        # No benchmark runs: run_once is replaced by canned closing lines.
        traj = _load_trajectory()
        calls = []

        def fake_run_once(workload, seed, trace):
            calls.append((workload, seed, trace))
            name = "trace.overhead_frac" if trace else "compose_ms.p50"
            return {"correct": True, "attempted": 10, "failed": 0,
                    "metrics": {name: {"value": float(seed), "unit": "ms"}},
                    "wall_s": 2.0 * seed}

        monkeypatch.setattr(traj, "run_once", fake_run_once)
        monkeypatch.setattr(traj, "ROOT", tmp_path)
        pkg = tmp_path / "src" / "pkg"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text("x = 1\n\n   \ny = 2\n")
        (pkg / "b.py").write_text("# one\n")
        (pkg / "notes.txt").write_text("not counted\n")
        assert traj.main(["--tag", "t"]) == 0
        point = json.loads((tmp_path / "BENCH_t.json").read_text())
        assert point["src_lines"] == 3
        assert point["host"]["crc32"] == sinks.CRC32_BACKEND
        assert set(point["workloads"]) == set(traj.WORKLOADS)
        for wl in traj.WORKLOADS:
            entry = point["workloads"][wl]
            assert entry["end_to_end"]["compose_ms.p50"] == \
                {"median": 2.0, "unit": "ms", "runs": [1.0, 2.0, 3.0]}
            assert "trace.overhead_frac" in entry["per_layer"]
            assert entry["wall_s"] == {"untraced": [2.0, 4.0, 6.0], "traced": 2.0}
            assert entry["correct"] and entry["failed"] == 0
        assert point["seeds"] == [1, 2, 3]
        assert calls.count(("mosaic-8x384", traj.TRACED_SEED, 1)) == 1
        assert len(calls) == (len(traj.SEEDS) + 1) * len(traj.WORKLOADS)
