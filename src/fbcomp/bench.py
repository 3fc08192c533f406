"""Overhead benchmarks: direct loop vs framebuffer API vs compositor.

Absolute fps depends entirely on the machine, so only the ratios
between configurations are meaningful:

  a. direct      - render straight into a full-display surface, present.
  b. framebuffer - the identical loop through the frame-queue API.
  c. compositor  - all clients at once, in their own processes, composed
                   onto the full display (contended figures).
  d. capability  - each client alone under the compositor at its own
                   placement.

All phases use the same widget renderer and the same sink kind.

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
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional

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
    # Compositor tick rate for the composited phases. None picks
    # 0.95 x the direct fps measured in the same run, so the output-rate
    # comparison tests compose overhead rather than an arbitrary cap.
    compose_rate: Optional[float] = None

    def __post_init__(self):
        scenario._require_one_of(SINKS, "bench", "sink", self.sink)
        scenario._require(self.client_count >= 1, "bench", "client_count",
                          self.client_count, "at least 1")
        scenario._require(scenario._positive(self.duration_s), "bench",
                          "duration", self.duration_s, "positive and finite")
        scenario._require(self.compose_rate is None
                          or scenario._positive(self.compose_rate), "bench",
                          "compose_rate", self.compose_rate,
                          "positive and finite, or empty")
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


def _target_geometry(config: BenchConfig) -> SurfaceGeometry:
    return SurfaceGeometry.for_width(config.target_width, config.target_height,
                                     config.format)


def measure_direct(config: BenchConfig, duration_s: float) -> float:
    """Phase a: plain render-and-present loop on the full display."""
    clock = WallClock()
    sink = sinks.make_sink(config.sink)
    surface = Surface.allocate(_target_geometry(config), config.format)
    frames = 0
    start = clock.now_us()
    end = start + int(duration_s * 1e6)
    while clock.now_us() < end:
        widgets.render_counters(surface, (clock.now_us() - start) / 1e6,
                                config.complexity)
        sink.present(surface, clock.now_us())
        frames += 1
    return frames * 1e6 / (clock.now_us() - start)


def measure_framebuffer(config: BenchConfig, duration_s: float) -> float:
    """Phase b: the same loop through the frame-queue session API."""
    clock = WallClock()
    sink = sinks.make_sink(config.sink)
    session = open_direct_session(shm.RegionConfig(
        geometry=_target_geometry(config), formats=(config.format,),
        framerate=1000, timeout_us=10_000_000, queue_depth=config.queue_depth),
        sink, clock)
    frames = 0
    start = clock.now_us()
    end = start + int(duration_s * 1e6)
    while clock.now_us() < end:
        surface = session.try_begin_frame()
        if surface is None:
            session.present_direct()
            continue
        widgets.render_counters(surface, (clock.now_us() - start) / 1e6,
                                config.complexity)
        session.end_frame()
        if session.present_direct() is not None:
            frames += 1
    return frames * 1e6 / (clock.now_us() - start)


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


def measure_composited(config: BenchConfig, duration_s: float, rate: float,
                       only: Optional[str] = None):
    """Run clients through the compositor; phases c and d.

    Returns (composited_fps, {client: fps}). With `only` set, a single
    client runs alone at its usual placement (the capability phase);
    otherwise every client runs at once. The compositor ticks at `rate`
    and sleeps between ticks so the clients get the CPU in between.
    """
    placements = client_placements(config)
    clients = []
    for name, (x, y, w, h) in placements.items():
        if only is not None and name != only:
            continue
        clients.append(scenario.ClientSpec(
            name=name, width=w, height=h, x=x, y=y,
            fps=500.0, queue_depth=config.queue_depth,
            min_fps=0.0, timeout_s=10.0, widget="counters",
            complexity=config.complexity, format=config.format))
    cfg = scenario.ScenarioConfig(
        target=scenario.TargetSpec(config.target_width, config.target_height,
                                   config.format, rate=rate),
        run=scenario.RunSpec(duration_s=duration_s, clock="wall",
                             sink=config.sink),
        clients=tuple(clients),
    )
    report = scenario.run_scenario(cfg)
    composited_fps = report.server_frames / duration_s
    client_fps = {name: res.submitted / duration_s
                  for name, res in report.clients.items()}
    return composited_fps, client_fps


def run_benchmark(config: Optional[BenchConfig] = None) -> BenchmarkReport:
    config = config or BenchConfig()
    report = BenchmarkReport(
        machine=f"{platform.platform()} / {platform.processor() or platform.machine()}",
        config=config)
    dur = config.duration_s
    # Short warmup so numpy code paths and caches are hot before timing.
    measure_direct(config, min(1.0, dur))
    # Interleave the single-process phases in short alternating slices:
    # slow drift in host load then hits both sides equally instead of
    # skewing whichever phase ran during the bad stretch.
    slices = 5
    direct_samples, fb_samples = [], []
    for _ in range(slices):
        direct_samples.append(measure_direct(config, dur / slices))
        fb_samples.append(measure_framebuffer(config, dur / slices))
    report.direct_fps = sum(direct_samples) / slices
    report.framebuffer_fps = sum(fb_samples) / slices
    # Tick just under the measured direct rate: the output-rate
    # comparison then reflects compose overhead, not an arbitrary cap.
    rate = config.compose_rate or max(1.0, 0.95 * report.direct_fps)
    report.compose_rate = rate
    composited, client_fps = measure_composited(config, dur, rate)
    report.composited_fps = composited
    report.client_fps = client_fps
    report.client_placements = client_placements(config)
    for name in sorted(report.client_placements):
        _, solo = measure_composited(config, dur, rate, only=name)
        report.client_capability_fps[name] = solo[name]
    return report
