"""Overhead benchmarks: direct loop vs framebuffer API vs compositor.

Absolute fps depends entirely on the machine, so only the ratios
between configurations are meaningful:

  a. direct      - render straight into a full-display surface, present.
  b. framebuffer - the identical frame through the frame-queue API.
  c. compositor  - all clients at once, in their own processes, composed
                   onto the full display (contended figures).
  d. capability  - each client alone under the compositor at its own
                   placement.

All phases use the same widget renderer and the same sink kind.
Phases a and b run in one loop, a frame of each in turn, so host drift
hits both alike.

Phase d exists because the reference deployment gives every partition
its own CPU, so a client's achievable rate under the compositor is a
property of the compositing path, not of how many siblings share a
core. On a host with fewer cores than partitions, phase c only
measures the scheduler; phase d measures the per-client cost of going
through the compositor, which is what the smaller-surface speedup
claim is about.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

from . import scenario, shm, sinks, widgets
from .client import open_direct_session
from .clock import WallClock
from .pixel import PixelFormat, Surface, SurfaceGeometry


SINKS = ("null", "checksum")  # the sinks that need no directory


@dataclass(frozen=True)
class BenchConfig:
    target_width: int = 1600
    target_height: int = 900
    client_width: int = 768
    client_height: int = 768
    client_count: int = 2
    format: PixelFormat = PixelFormat.R8G8B8A8
    complexity: int = 2
    duration_s: float = 5.0
    # One queue slot is always pinned by the held frame, so a depth of
    # at least 2 leaves the producer a slot, and a deeper queue keeps
    # free-running clients from stalling on one.
    queue_depth: int = 5
    sink: str = "checksum"           # one of SINKS

    def __post_init__(self):
        scenario._require_one_of(SINKS, "bench", "sink", self.sink)
        scenario._require(self.client_count >= 1, "bench", "client_count",
                          self.client_count, "at least 1")
        scenario._require(scenario._positive(self.duration_s), "bench",
                          "duration", self.duration_s, "positive and finite")
        scenario._require(self.queue_depth in shm.QUEUE_DEPTHS, "bench",
                          "queue_depth", self.queue_depth,
                          f"in {shm.QUEUE_DEPTHS[0]}..{shm.QUEUE_DEPTHS[-1]}")
        scenario._require(self.complexity >= 1, "bench", "complexity",
                          self.complexity, "at least 1")
        # Every phase renders the counters widget, on the target and on
        # each client, and the clients sit side by side on the target.
        for key in ("target_width", "target_height", "client_width",
                    "client_height"):
            scenario._require(getattr(self, key) >= widgets.MIN_SIDE, "bench",
                              key, getattr(self, key),
                              f"at least {widgets.MIN_SIDE}")
        scenario._require(
            self.client_count * self.client_width <= self.target_width,
            "bench", "client_width", self.client_width,
            f"at most target_width / client_count "
            f"({self.target_width} / {self.client_count})")
        scenario._require(self.client_height <= self.target_height, "bench",
                          "client_height", self.client_height,
                          f"at most target_height ({self.target_height})")
        try:
            self.run_spec()
        except ValueError as exc:
            raise ValueError(f"[bench] phases c and d: {exc}") from exc

    def run_spec(self) -> scenario.RunSpec:
        """The [run] section of the composited phases, c and d."""
        return scenario.RunSpec(duration_s=self.duration_s, clock="wall",
                                sink=self.sink)


def load_bench_config(path) -> BenchConfig:
    """The [bench] section of a suite file; its keys follow `BenchConfig`."""
    sections = scenario.read_sections(Path(path).read_text(), "bench")
    return scenario.from_section(BenchConfig, sections.get("bench", {}))


@dataclass
class BenchmarkReport:
    machine: str
    config: BenchConfig
    direct_fps: float = 0.0
    framebuffer_fps: float = 0.0
    composited_fps: float = 0.0
    compose_rate: float = 0.0
    # Phase c: all clients running at once (CPU-contended on small hosts).
    client_fps: Dict[str, float] = field(default_factory=dict)
    # Phase d: each client alone under the compositor.
    client_capability_fps: Dict[str, float] = field(default_factory=dict)
    client_placements: Dict[str, tuple] = field(default_factory=dict)

    @property
    def framebuffer_ratio(self) -> float:
        return self.framebuffer_fps / self.direct_fps if self.direct_fps else 0.0

    @property
    def composited_ratio(self) -> float:
        return self.composited_fps / self.direct_fps if self.direct_fps else 0.0

    @property
    def min_client_ratio(self) -> float:
        if not self.client_capability_fps or not self.direct_fps:
            return 0.0
        return min(self.client_capability_fps.values()) / self.direct_fps

    def to_text(self) -> str:
        lines = [
            f"machine: {self.machine}, crc32 {sinks.CRC32_BACKEND}",
            f"target {self.config.target_width}x{self.config.target_height}, "
            f"clients {self.config.client_count}x "
            f"{self.config.client_width}x{self.config.client_height}, "
            f"complexity {self.config.complexity}, "
            f"compose rate {self.compose_rate:.1f} Hz",
            "",
            f"{'configuration':<34}{'fps':>10}{'vs direct':>12}",
            f"{'direct':<34}{self.direct_fps:>10.2f}{1.0:>12.3f}",
            f"{'framebuffer API':<34}{self.framebuffer_fps:>10.2f}"
            f"{self.framebuffer_ratio:>12.3f}",
            f"{'compositor output':<34}{self.composited_fps:>10.2f}"
            f"{self.composited_ratio:>12.3f}",
        ]
        for name in sorted(self.client_capability_fps):
            fps = self.client_capability_fps[name]
            ratio = fps / self.direct_fps if self.direct_fps else 0.0
            at = self.client_placements.get(name)
            suffix = f" at {at}" if at else ""
            lines.append(f"{'client ' + name + suffix:<34}"
                         f"{fps:>10.2f}{ratio:>12.3f}")
        for name in sorted(self.client_fps):
            fps = self.client_fps[name]
            ratio = fps / self.direct_fps if self.direct_fps else 0.0
            lines.append(f"{'client ' + name + ' (contended)':<34}"
                         f"{fps:>10.2f}{ratio:>12.3f}")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "machine": self.machine,
            "crc32": sinks.CRC32_BACKEND,
            "config": {
                "target": [self.config.target_width, self.config.target_height],
                "client": [self.config.client_width, self.config.client_height],
                "client_count": self.config.client_count,
                "complexity": self.config.complexity,
                "phase_duration_s": self.config.duration_s,
                "sink": self.config.sink,
            },
            "direct_fps": self.direct_fps,
            "framebuffer_fps": self.framebuffer_fps,
            "composited_fps": self.composited_fps,
            "compose_rate": self.compose_rate,
            "client_fps": self.client_fps,
            "client_capability_fps": self.client_capability_fps,
            "client_placements": {k: list(v) for k, v in self.client_placements.items()},
            "ratios": {
                "framebuffer_vs_direct": self.framebuffer_ratio,
                "composited_vs_direct": self.composited_ratio,
                "min_client_vs_direct": self.min_client_ratio,
            },
        }, indent=2)


def measure_single_process(config: BenchConfig) -> Tuple[float, float]:
    """Phases a and b; returns (direct_fps, framebuffer_fps).

    Each iteration renders one frame time down both paths, in an order
    that alternates every iteration (the second path finds the grids
    warm), and times each path on its own. The first pair in each order
    is untimed warm-up. Each path gets `config.duration_s` timed seconds.
    """
    clock = WallClock()
    geometry = SurfaceGeometry.for_width(config.target_width,
                                         config.target_height, config.format)
    surface = Surface.allocate(geometry, config.format)
    sink = sinks.make_sink(config.sink)
    session = open_direct_session(shm.RegionConfig(
        geometry=geometry, formats=(config.format,), framerate=1000,
        timeout_us=10_000_000, queue_depth=config.queue_depth),
        sinks.make_sink(config.sink), clock)

    def direct(t: float) -> None:
        widgets.render_counters(surface, t, config.complexity)
        sink.present(surface, clock.now_us())

    def framebuffer(t: float) -> None:
        # Each frame is presented straight after its submit, so the take
        # frees every slot but the held one and a begin always finds one.
        widgets.render_counters(session.try_begin_frame(), t,
                                config.complexity)
        session.end_frame()
        session.present_direct()

    paths = (direct, framebuffer)
    timed_ns, frames = [0, 0], [0, 0]
    start = time.perf_counter_ns()
    pairs = 0
    while min(timed_ns) < config.duration_s * 1e9:
        t = (time.perf_counter_ns() - start) / 1e9
        for i in ((0, 1), (1, 0))[pairs % 2]:
            begin = time.perf_counter_ns()
            paths[i](t)
            if pairs >= 2:
                timed_ns[i] += time.perf_counter_ns() - begin
                frames[i] += 1
        pairs += 1
    return frames[0] * 1e9 / timed_ns[0], frames[1] * 1e9 / timed_ns[1]


def client_placements(config: BenchConfig) -> Dict[str, tuple]:
    """Side-by-side placements c0..cN on the target, centered vertically."""
    gap = max(0, (config.target_width
                  - config.client_count * config.client_width)
              // (config.client_count + 1))
    y = max(0, (config.target_height - config.client_height) // 2)
    return {
        f"c{i}": (gap + i * (config.client_width + gap), y,
                  config.client_width, config.client_height)
        for i in range(config.client_count)
    }


def measure_composited(config: BenchConfig, rate: float,
                       only: Optional[str] = None):
    """Run clients through the compositor; phases c and d.

    Returns (composited_fps, {client: fps}). With `only` set, a single
    client runs alone at its usual placement (the capability phase);
    otherwise every client runs at once. The compositor ticks at `rate`
    and sleeps between ticks so the clients get the CPU in between.
    """
    clients = tuple(scenario.ClientSpec(
        name=name, width=w, height=h, x=x, y=y,
        fps=500.0, queue_depth=config.queue_depth,
        min_fps=0.0, timeout_s=10.0, widget="counters",
        complexity=config.complexity, format=config.format)
        for name, (x, y, w, h) in client_placements(config).items()
        if only in (None, name))
    cfg = scenario.ScenarioConfig(
        target=scenario.TargetSpec(config.target_width, config.target_height,
                                   config.format, rate=rate),
        run=config.run_spec(),
        clients=clients,
    )
    report = scenario.run_scenario(cfg)
    composited_fps = report.server_frames / config.duration_s
    client_fps = {name: res.submitted / config.duration_s
                  for name, res in report.clients.items()}
    return composited_fps, client_fps


def run_benchmark(config: Optional[BenchConfig] = None) -> BenchmarkReport:
    config = config or BenchConfig()
    report = BenchmarkReport(
        machine=f"{platform.platform()} / {platform.processor() or platform.machine()}",
        config=config)
    report.direct_fps, report.framebuffer_fps = measure_single_process(config)
    # Tick just under the measured direct rate: the output-rate
    # comparison then reflects compose overhead, not an arbitrary cap.
    report.compose_rate = rate = max(1.0, 0.95 * report.direct_fps)
    report.composited_fps, report.client_fps = measure_composited(config, rate)
    report.client_placements = client_placements(config)
    for name in sorted(report.client_placements):
        _, solo = measure_composited(config, rate, only=name)
        report.client_capability_fps[name] = solo[name]
    return report
