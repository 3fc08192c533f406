import json
import platform

import pytest

from fbcomp import bench, scenario, shm
from fbcomp.cli import main
from fbcomp.pixel import PixelFormat, SurfaceGeometry
from fbcomp.scenario import (ClientSpec, FaultAction, RunSpec, ScenarioConfig,
                             TargetSpec)

SCENARIO = ScenarioConfig(
    target=TargetSpec(width=512, height=256, rate=30),
    run=RunSpec(duration_s=0.5, clock="sim", sink="checksum"),
    clients=(
        ClientSpec("alpha", width=128, height=128, x=16, y=16, fps=48,
                   timeout_s=0.2),
        ClientSpec("beta", width=128, height=128, x=256, y=16, fps=48,
                   timeout_s=0.2),
    ),
)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(SCENARIO.serialize())
    return path


class TestRun:
    def test_exit_zero_and_report(self, scenario_file, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert main(["run", str(scenario_file), "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "server_frames=15" in out
        assert "client alpha:" in out and "client beta:" in out
        data = json.loads(report.read_text())
        assert data["server_frames"] == 15
        assert set(data["clients"]) == {"alpha", "beta"}

    def test_duration_override(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--duration", "0.2"]) == 0
        assert "server_frames=6" in capsys.readouterr().out

    def test_disconnect_reported(self, tmp_path, capsys):
        config = ScenarioConfig(
            target=SCENARIO.target,
            run=RunSpec(duration_s=1.0, clock="sim", sink="null"),
            clients=SCENARIO.clients[:1] + (
                ClientSpec("beta", width=128, height=128, x=256, y=16,
                           fps=48, timeout_s=0.2,
                           faults=(FaultAction("stall", 0.2),)),),
        )
        path = tmp_path / "s.cfg"
        path.write_text(config.serialize())
        assert main(["run", str(path)]) == 0
        assert "(watchdog)" in capsys.readouterr().out

    def test_images_sink(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "frames"
        out_dir.mkdir()
        assert main(["run", str(scenario_file), "--sink", "images",
                     "--sink-dir", str(out_dir), "--duration", "0.2"]) == 0
        ppms = list(out_dir.glob("frame_*.ppm"))
        assert len(ppms) == 6
        assert main(["replay", str(out_dir / "index.txt")]) == 0


class TestValidate:
    def test_well_formed_dump(self, tmp_path, capsys):
        config = shm.RegionConfig(
            geometry=SurfaceGeometry.for_width(64, 64),
            formats=(PixelFormat.R8G8B8A8,), framerate=30,
            timeout_us=100_000, queue_depth=2)
        buf, _ = shm.allocate_region(config)
        shm.publish(buf)
        dump = tmp_path / "region.bin"
        dump.write_bytes(bytes(buf))
        assert main(["validate", str(dump)]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_corrupt_dump(self, tmp_path, capsys):
        dump = tmp_path / "junk.bin"
        dump.write_bytes(b"\x00" * 4096)
        assert main(["validate", str(dump)]) == 1
        assert "VIOLATION" in capsys.readouterr().out


class TestReplay:
    def test_tampered_sequence(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "frames"
        out_dir.mkdir()
        main(["run", str(scenario_file), "--sink", "images",
              "--sink-dir", str(out_dir), "--duration", "0.1"])
        victim = next(out_dir.glob("frame_*.ppm"))
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0xFF
        victim.write_bytes(bytes(data))
        assert main(["replay", str(out_dir / "index.txt")]) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestParser:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_sink_rejected(self, scenario_file):
        with pytest.raises(SystemExit):
            main(["run", str(scenario_file), "--sink", "laserprinter"])

    @pytest.mark.parametrize("command", ["run", "bench"])
    @pytest.mark.parametrize("seconds", ["-1", "0", "inf"])
    def test_non_positive_duration_rejected(self, scenario_file, command,
                                            seconds):
        with pytest.raises(SystemExit) as exc:
            main([command, str(scenario_file), "--duration", seconds])
        assert exc.value.code == 2


class TestConfigErrors:
    @pytest.mark.parametrize("command, text", [
        ("run", "[run]\nduraton = 1\n"),
        ("run", "[target]\nrate = 0\n[client:a]\n"),
        ("run", "[client:a]\nfps = 0\n"),
        ("run", "no section header\n"),
        ("bench", "[bench]\nduraton = 1\n"),
        ("bench", "[bench]\nclient_count = two\n"),
        ("run", "[client:a]\nqueue_depth = 0\n"),
        ("run", "[run]\nduration = -1\n"),
        ("bench", "[bench]\nqueue_depth = 0\n"),
        ("run", "[client:a]\ntimeout = 1e303\n"),
        ("run", "[target]\nwidth = 0\n[client:a]\n"),
        ("run", "[client:a]\nx = 2000\n"),
        ("run", "[client:a]\n[client:b]\nx = 700\n"),
        ("bench", "[bench]\nclient_width = 0\n"),
        ("run", "[client:a]\nwidget = countres\n"),
        ("run", "[run]\nclock = walll\n"),
        ("run", "[run]\nsink = bogus\n"),
        ("run", "[run]\nsink = images\n"),
        ("bench", "[bench]\nsink = bogus\n"),
        ("run", "[target]\nbackground = -1\n"),
        ("run", "[client:a]\nfaults = crash@nan\n"),
        ("run", "[client:a]\nfaults = stall@0.2:0\n"),
    ], ids=["run-unknown-key", "run-rate-0", "run-fps-0", "run-no-header",
            "bench-unknown-key", "bench-bad-int", "run-queue-depth-0",
            "run-duration-negative", "bench-queue-depth-0",
            "run-timeout-overflows-float", "run-target-width-0",
            "run-x-outside-target", "run-overlapping-placements",
            "bench-client-width-0", "run-widget-misspelt",
            "run-clock-misspelt", "run-sink-unknown",
            "run-images-sink-without-dir", "bench-sink-unknown",
            "run-background-negative", "run-fault-time-nan",
            "run-stall-duration-0"])
    def test_bad_file_is_one_line_and_exit_two(self, tmp_path, capsys,
                                               command, text):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"fbcomp: error: {path}: ")

    @pytest.mark.parametrize("command", ["run", "bench", "validate", "replay"])
    def test_missing_file_is_one_line_and_exit_two(self, tmp_path, capsys,
                                                   command):
        path = tmp_path / "absent.cfg"
        assert main([command, str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"fbcomp: error: {path}: ")

    def test_option_checked_with_the_file(self, scenario_file, capsys):
        # --sink images needs --sink-dir, as sink = images needs sink_dir.
        assert main(["run", str(scenario_file), "--sink", "images"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "[run] sink_dir must be set" in line

    def test_wall_clock_off_x86_64_is_exit_two(self, scenario_file,
                                                monkeypatch, capsys):
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        assert main(["run", str(scenario_file), "--clock", "wall"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"fbcomp: error: {scenario_file}: [run] clock")

    @pytest.mark.parametrize("with_file", [False, True])
    def test_bench_off_x86_64_is_exit_two_before_any_phase(
            self, tmp_path, monkeypatch, capsys, with_file):
        # Phases c and d run the wall engine, so no phase may start.
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        monkeypatch.setattr(bench, "run_benchmark", lambda config: pytest.fail(
            "a bench phase ran on an aarch64 host"))
        path = tmp_path / "suite.cfg"
        path.write_text("[bench]\n")
        args = ["bench", "--duration", "0.2"] + ([str(path)] if with_file else [])
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        where = f"{path}: " if with_file else ""
        assert line.startswith(f"fbcomp: error: {where}[bench] ")
        assert "clock must be sim on this aarch64 host" in line

    def test_sink_dir_that_cannot_be_made_is_exit_two(self, scenario_file,
                                                      tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", str(scenario_file), "--sink", "images",
                     "--sink-dir", str(blocker / "frames")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"fbcomp: error: {scenario_file}: ")

    def test_error_after_loading_still_raises(self, scenario_file,
                                              monkeypatch):
        # Only loading is reported as a bad file; a ValueError raised by the
        # run itself surfaces with its traceback.
        def run_scenario(config):
            raise ValueError("raised by the run")
        monkeypatch.setattr(scenario, "run_scenario", run_scenario)
        with pytest.raises(ValueError, match="raised by the run"):
            main(["run", str(scenario_file)])
