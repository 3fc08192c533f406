import json
import platform
from dataclasses import replace

import pytest

from fbcomp import bench, sinks
from fbcomp.bench import BenchConfig, BenchmarkReport, load_bench_config
from fbcomp.pixel import PixelFormat


class TestLoadBenchConfig:
    def load(self, tmp_path, text):
        path = tmp_path / "suite.cfg"
        path.write_text(text)
        return load_bench_config(path)

    def test_empty_file_gives_defaults(self, tmp_path):
        assert self.load(tmp_path, "") == BenchConfig()
        assert self.load(tmp_path, "[bench]\n") == BenchConfig()

    def test_duration_key_sets_duration_s(self, tmp_path):
        # Three clients fit side by side only if narrower than the default.
        config = self.load(tmp_path, "[bench]\nduration = 2.5\nclient_count = 3\n"
                                     "client_width = 512\n")
        assert config == BenchConfig(duration_s=2.5, client_count=3,
                                     client_width=512)

    @pytest.mark.parametrize("text, named", [
        ("[bench]\nduraton = 2\n", "'duraton'"),
        ("[bench]\nphase_duration = 2\n", "'phase_duration'"),
        ("[bench]\n[target]\nwidth = 10\n", r"\[target\]"),
        # The composited phases always tick at 0.95 x the measured direct fps.
        ("[bench]\ncompose_rate = 30\n", "'compose_rate'"),
    ], ids=["key", "old-key", "section", "compose-rate"])
    def test_unknown_key_or_section_rejected(self, tmp_path, text, named):
        with pytest.raises(ValueError, match=named):
            self.load(tmp_path, text)

    @pytest.mark.parametrize("text, named", [
        ("[bench]\nclient_count = 0\n", "client_count"),
        ("[bench]\nduration = 0\n", "duration"),
        ("[bench]\nduration = inf\n", "duration"),
        ("[bench]\nqueue_depth = 0\n", "queue_depth"),
        ("[bench]\nqueue_depth = 1\n", "queue_depth must be in 2..8, got 1"),
        ("[bench]\nqueue_depth = 9\n", "queue_depth"),
        ("[bench]\nclient_width = 0\n", "client_width must be at least 64"),
        ("[bench]\nclient_height = 63\n", "client_height must be at least 64"),
        ("[bench]\ntarget_width = -1\n", "target_width must be at least 64"),
        ("[bench]\ntarget_height = 0\n", "target_height must be at least 64"),
        ("[bench]\nclient_count = 3\n", "client_width must be at most"),
        ("[bench]\nclient_height = 901\n", "client_height must be at most"),
        ("[bench]\ncomplexity = 0\n", "complexity"),
        ("[bench]\nsink = bogus\n", "sink must be one of null, checksum"),
        ("[bench]\nsink = images\n", "sink must be one of null, checksum"),
    ], ids=["client-count-0", "duration-0", "duration-inf", "queue-depth-0",
            "queue-depth-1", "queue-depth-9",
            "client-width-0", "client-height-below-min-side",
            "target-width-negative", "target-height-0",
            "clients-wider-than-target", "client-taller-than-target",
            "complexity-0", "sink-unknown", "sink-images"])
    def test_out_of_range_value_rejected(self, tmp_path, text, named):
        with pytest.raises(ValueError, match=r"\[bench\] " + named):
            self.load(tmp_path, text)

    def test_wall_engine_phases_refused_off_x86_64(self, monkeypatch):
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        with pytest.raises(ValueError, match=r"\[bench\] phases c and d: .* "
                                             r"on this aarch64 host"):
            BenchConfig()

    def test_report_keeps_phase_duration_key(self):
        report = BenchmarkReport(machine="host", config=BenchConfig(duration_s=2.0))
        assert json.loads(report.to_json())["config"]["phase_duration_s"] == 2.0


SMALL = BenchConfig(target_width=128, target_height=128, client_width=64,
                    client_height=64, client_count=1, duration_s=0.2)


class TestFramebufferPhase:
    @pytest.mark.parametrize("depth", [2, 8])
    def test_presents_every_submitted_frame_once_in_order(self, monkeypatch,
                                                          depth):
        # The framebuffer path presents straight after each submit, so the
        # newest-frame take finds exactly that frame: none is skipped or
        # repeated.
        sessions, after_submit = [], []
        open_session = bench.open_direct_session

        def kept_session(*args):
            session = open_session(*args)
            end_frame, present = session.end_frame, session.present_direct
            submitted = [False]

            def traced_end_frame():
                end_frame()
                submitted[0] = True

            def traced_present():
                seq = present()
                if submitted[0]:
                    after_submit.append(seq)
                    submitted[0] = False
                return seq

            session.end_frame = traced_end_frame
            session.present_direct = traced_present
            sessions.append(session)
            return session

        monkeypatch.setattr(bench, "open_direct_session", kept_session)
        config = replace(SMALL, queue_depth=depth)
        direct_fps, framebuffer_fps = bench.measure_single_process(config)
        assert direct_fps > 0 and framebuffer_fps > 0
        (session,) = sessions
        assert session.frames_submitted > 1
        assert after_submit == list(range(1, session.frames_submitted + 1))

    def test_both_paths_present_the_same_frame_in_each_pair(self,
                                                            monkeypatch):
        # The checksum is over normalized R8G8B8A8 bytes, so the format is
        # recorded beside it.
        class Recorder:
            def __init__(self):
                self.frames = []

            def present(self, surface, now_us):
                self.frames.append((surface.format,
                                    sinks.frame_checksum(surface)))

        made = []
        monkeypatch.setattr(sinks, "make_sink", lambda kind: (
            made.append(Recorder()) or made[-1]))
        config = replace(SMALL, format=PixelFormat.B8G8R8A8)
        bench.measure_single_process(config)
        one, other = made   # the direct sink and the session's
        assert len(one.frames) > 4
        assert one.frames == other.frames
        assert {fmt for fmt, _ in one.frames} == {PixelFormat.B8G8R8A8}
        # Each pair renders a later frame time than the one before.
        checksums = [crc for _, crc in one.frames]
        assert all(a != b for a, b in zip(checksums, checksums[1:]))


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
                    "wall_s": 2.0 * seed, "ticks": 100 * seed,
                    "timed_s": 1.5 * seed}

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
            assert entry["ticks"] == {"untraced": [100, 200, 300], "traced": 100}
            assert entry["timed_s"] == {"untraced": [1.5, 3.0, 4.5], "traced": 1.5}
            assert entry["correct"] and entry["failed"] == 0
        assert point["seeds"] == [1, 2, 3]
        assert calls.count(("mosaic-8x384", traj.TRACED_SEED, 1)) == 1
        assert len(calls) == (len(traj.SEEDS) + 1) * len(traj.WORKLOADS)

    def test_reads_ticks_and_timed_seconds_from_the_summary_line(self):
        summary = _load_trajectory().SUMMARY.search(
            "host: python 3.11\nworkload faults-4x384, seed 2: 12345 ticks, "
            "205.75 s simulated, 30.01 s in timed calls, 412 output checks\n")
        assert (int(summary[1]), float(summary[2])) == (12345, 30.01)
