"""Scenario configuration and the partition-simulation harness.

A scenario describes a compositing target plus a set of demo clients
with optional fault scripts, and runs in one of two engines:

- "sim": single process, discrete simulated clock. Fully deterministic;
  used by all correctness and fault-containment tests.
- "wall": the calling process is the server, plus one forked process
  per client, shared-memory regions in /dev/shm, wall clock. Every
  region is laid out and published before any client process starts.
  Used for process-isolation checks and benchmarks; x86_64 only.

One event loop (`_run_loop`) drives both: the sim engine runs the server
and every partition step in one process, while in the wall engine the
caller runs the server steps and each client process its own. A
partition's only channel to the server is its region: the report reads
each client's counts there, and its exit status from the partition (sim)
or from its process exit code (wall).

The text format is INI: a [target] section, a [run] section, and one
[client:<name>] section per client. Fault scripts are comma-separated
actions: stall@<start>:<duration>, crash@<t>, garbage-header@<t>,
flip-status@<t>, slow-to:<fps>@<t> (times in seconds).
"""

from __future__ import annotations

import configparser
import heapq
import io
import json
import math
import multiprocessing
import platform
import signal
import sys
import uuid
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import (Callable, Dict, List, Mapping, Optional, Tuple, Union,
                    get_args, get_origin, get_type_hints)

from . import regions, shm, sinks, widgets
from .client import connect_session
from .clock import Clock, SimClock, WallClock
from .compositor import CompositionTarget, CompositorServer
from .errors import FramebufferError
from .frame_queue import STATUS_RECORD_SIZE
from .pixel import PixelFormat, Rect, SurfaceGeometry

_FAULT_KINDS = ("stall", "crash", "garbage-header", "flip-status", "slow-to")
WIDGETS = ("pattern", "counters")
CLOCKS = ("sim", "wall")
SINKS = ("null", "checksum", "images")


# -- configuration ---------------------------------------------------------

@dataclass(frozen=True)
class FaultAction:
    kind: str
    at_s: float
    duration_s: Optional[float] = None   # stall only; None = forever
    fps: Optional[float] = None          # slow-to only

    def __post_init__(self):
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not (math.isfinite(self.at_s) and self.at_s >= 0):
            raise ValueError(f"{self.kind} time must be finite and not "
                             f"negative, got {self.at_s!r}")
        if self.kind == "stall" and self.duration_s is not None \
                and not _positive(self.duration_s):
            raise ValueError(f"stall duration must be positive and finite "
                             f"(inf: forever), got {self.duration_s!r}")
        if self.kind == "slow-to" and not _positive(self.fps):
            raise ValueError(f"slow-to fps must be positive and finite, "
                             f"got {self.fps!r}")

    def serialize(self) -> str:
        if self.kind == "stall":
            dur = "inf" if self.duration_s is None else _fmt(self.duration_s)
            return f"stall@{_fmt(self.at_s)}:{dur}"
        if self.kind == "slow-to":
            return f"slow-to:{_fmt(self.fps)}@{_fmt(self.at_s)}"
        return f"{self.kind}@{_fmt(self.at_s)}"

    @classmethod
    def parse(cls, text: str) -> "FaultAction":
        text = text.strip()
        if text.startswith("slow-to:"):
            rest = text[len("slow-to:"):]
            fps_s, _, at = rest.partition("@")
            return cls("slow-to", float(at), fps=float(fps_s))
        kind, _, when = text.partition("@")
        if kind == "stall":
            at, _, dur = when.partition(":")
            duration = None if dur in ("", "inf") else float(dur)
            return cls("stall", float(at), duration_s=duration)
        return cls(kind, float(when))


def _fmt(x: float) -> str:
    return repr(float(x))


def _positive(x) -> bool:
    return x is not None and math.isfinite(x) and x > 0


def _require(ok: bool, section: str, key: str, value, rule: str) -> None:
    """Reject a config value that breaks `rule`, naming its section and key."""
    if not ok:
        raise ValueError(f"[{section}] {key} must be {rule}, got {value!r}")


def _require_one_of(allowed: tuple, section: str, key: str, value) -> None:
    _require(value in allowed, section, key, value,
             f"one of {', '.join(allowed)}")


# -- the config schema -----------------------------------------------------

# The config dataclasses are the schema of every INI section: a field's
# key is its name less any trailing "_s", its type picks its codec and a
# missing key takes its default. Field metadata "title" marks the field
# the section title names; "show" overrides how the field is written.

_CODECS = {  # field type: (parse, show)
    int: (lambda text: int(text, 0), str),
    float: (float, _fmt),
    str: (str, str),
    PixelFormat: (lambda text: PixelFormat[text], lambda fmt: fmt.name),
    Tuple[FaultAction, ...]: (
        lambda text: tuple(FaultAction.parse(p)
                           for p in text.split(",") if p.strip()),
        lambda faults: ", ".join(a.serialize() for a in faults)),
}


def _codec(tp) -> tuple:
    """(parse, show) for a field type; empty text is None for Optional[X]."""
    if get_origin(tp) is not Union:
        return _CODECS[tp]
    (inner,) = set(get_args(tp)) - {type(None)}
    parse, show = _CODECS[inner]
    return (lambda text: parse(text) if text else None,
            lambda value: "" if value is None else show(value))


def _keyed_fields(cls) -> Dict[str, tuple]:
    """{INI key: (field name, parse, show)} for each keyed field of `cls`."""
    hints = get_type_hints(cls)
    out = {}
    for f in fields(cls):
        if not f.metadata.get("title"):
            parse, show = _codec(hints[f.name])
            out[f.name.removesuffix("_s")] = (
                f.name, parse, f.metadata.get("show", show))
    return out


def to_section(spec) -> Dict[str, str]:
    """The INI section of a config dataclass: every keyed field, as text."""
    return {key: show(getattr(spec, name))
            for key, (name, _, show) in _keyed_fields(type(spec)).items()}


def from_section(cls, section: Mapping[str, str], **given):
    """Build `cls` from an INI section plus the title fields in `given`;
    a missing key takes its default and an unknown key raises ValueError."""
    keyed = _keyed_fields(cls)
    values = dict(given)
    for key, text in section.items():
        if key not in keyed:
            raise ValueError(f"unknown key {key!r} for {cls.__name__}; "
                             f"known keys: {', '.join(keyed)}")
        name, parse, _ = keyed[key]
        try:
            values[name] = parse(text)
        except (ValueError, KeyError) as exc:
            raise ValueError(f"bad value {text!r} for key {key!r} of "
                             f"{cls.__name__}: {exc}") from exc
    return cls(**values)


def read_sections(text: str, *known: str) -> Dict[str, Mapping[str, str]]:
    """The sections of INI `text` by title, in file order. Each title is
    one of `known` or starts with a known "<kind>:"; others raise ValueError."""
    # No title names the empty section, so [DEFAULT] is checked as any other.
    cp = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValueError(" ".join(str(exc).split())) from exc
    for title in cp.sections():
        kind, colon, _ = title.partition(":")
        if title not in known and not (colon and kind + ":" in known):
            raise ValueError(f"unknown section [{title}]")
    return {title: cp[title] for title in cp.sections()}


@dataclass(frozen=True)
class ClientSpec:
    name: str = field(metadata={"title": True})
    width: int = 768
    height: int = 768
    x: int = 0
    y: int = 0
    fps: float = 48.0
    queue_depth: int = 3
    min_fps: float = 1.0
    timeout_s: float = 0.5
    widget: str = "pattern"          # one of WIDGETS
    complexity: int = 1
    format: PixelFormat = PixelFormat.R8G8B8A8
    faults: Tuple[FaultAction, ...] = ()

    def __post_init__(self):
        section = f"client:{self.name}"
        _require_one_of(WIDGETS, section, "widget", self.widget)
        _require(_positive(self.fps), section, "fps", self.fps,
                 "positive and finite")
        _require(math.isfinite(self.min_fps) and self.min_fps >= 0, section,
                 "min_fps", self.min_fps, "finite and not negative")
        _require(self.complexity >= 1, section, "complexity", self.complexity,
                 "at least 1")
        if self.widget == "counters":
            for key in ("width", "height"):
                _require(getattr(self, key) >= widgets.MIN_SIDE, section, key,
                         getattr(self, key),
                         f"at least {widgets.MIN_SIDE} for the counters widget")
        _require(_positive(self.timeout_s * 1e6), section, "timeout",
                 self.timeout_s, "positive and finite in microseconds")
        try:
            self.region_config()
        except ValueError as exc:
            raise ValueError(f"[{section}] {exc}") from exc

    @property
    def placement(self) -> Rect:
        return Rect(self.x, self.y, self.width, self.height)

    def region_config(self) -> shm.RegionConfig:
        return shm.RegionConfig(
            geometry=SurfaceGeometry.for_width(self.width, self.height,
                                               self.format),
            formats=(self.format,),
            framerate=max(1, int(self.fps)),
            timeout_us=int(self.timeout_s * 1e6),
            queue_depth=self.queue_depth,
        )


@dataclass(frozen=True)
class TargetSpec:
    width: int = 1600
    height: int = 900
    format: PixelFormat = PixelFormat.R8G8B8A8
    rate: float = 30.0
    background: int = field(default=0x000000FF,
                            metadata={"show": "0x{:08x}".format})

    def __post_init__(self):
        _require(self.width >= 1, "target", "width", self.width, "at least 1")
        _require(self.height >= 1, "target", "height", self.height,
                 "at least 1")
        # The compose period is whole microseconds, at least one.
        _require(_positive(self.rate) and self.rate <= 1e6, "target", "rate",
                 self.rate, "positive and at most 1000000")
        _require(0 <= self.background <= 0xFFFFFFFF, "target", "background",
                 self.background, "a u32 pixel, in 0..0xffffffff")

    @property
    def geometry(self) -> SurfaceGeometry:
        return SurfaceGeometry.for_width(self.width, self.height, self.format)


@dataclass(frozen=True)
class RunSpec:
    duration_s: float = 5.0
    clock: str = "sim"               # one of CLOCKS
    sink: str = "checksum"           # one of SINKS
    sink_dir: Optional[str] = None
    watchdog_poll_s: float = 0.01

    def __post_init__(self):
        _require_one_of(CLOCKS, "run", "clock", self.clock)
        # README "Store order": the frame protocol needs x86-TSO.
        _require(self.clock == "sim" or platform.machine() == "x86_64", "run",
                 "clock", self.clock, f"sim on this {platform.machine()} "
                 "host, since the wall engine needs x86-TSO store order")
        _require_one_of(SINKS, "run", "sink", self.sink)
        _require(self.sink != "images" or bool(self.sink_dir), "run",
                 "sink_dir", self.sink_dir, "set for the images sink")
        _require(_positive(self.duration_s), "run", "duration",
                 self.duration_s, "positive and finite")
        _require(_positive(self.watchdog_poll_s), "run", "watchdog_poll",
                 self.watchdog_poll_s, "positive and finite")


@dataclass(frozen=True)
class ScenarioConfig:
    target: TargetSpec = TargetSpec()
    run: RunSpec = RunSpec()
    clients: Tuple[ClientSpec, ...] = ()

    def __post_init__(self):
        # The server refuses a placement outside the target or over any
        # registered client; every client registers at the start of a run.
        tw, th = self.target.width, self.target.height
        for i, c in enumerate(self.clients):
            section = f"client:{c.name}"
            for key, at, side, size, room in (("x", c.x, "width", c.width, tw),
                                              ("y", c.y, "height", c.height, th)):
                _require(0 <= at and at + size <= room, section, key, at,
                         f"at least 0 with {key} + {side} ({size}) at most "
                         f"the target {side} {room}")
            for other in self.clients[:i]:
                if c.placement.overlaps(other.placement):
                    raise ValueError(
                        f"[{section}] placement {c.placement} overlaps "
                        f"[client:{other.name}] {other.placement}")

    def serialize(self) -> str:
        """The config as scenario-file text that `parse_scenario` reads
        back to an equal config: the writer of the tests' scenario files
        and the parser's round-trip oracle."""
        cp = configparser.ConfigParser(interpolation=None)
        cp.read_dict({"target": to_section(self.target),
                      "run": to_section(self.run),
                      **{f"client:{c.name}": to_section(c)
                         for c in self.clients}})
        out = io.StringIO()
        cp.write(out)
        return out.getvalue()


def parse_scenario(text: str) -> ScenarioConfig:
    sections = read_sections(text, "target", "run", "client:")
    return ScenarioConfig(
        target=from_section(TargetSpec, sections.get("target", {})),
        run=from_section(RunSpec, sections.get("run", {})),
        clients=tuple(from_section(ClientSpec, s, name=title[len("client:"):])
                      for title, s in sections.items()
                      if title.startswith("client:")))


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario(Path(path).read_text())


# -- reports ---------------------------------------------------------------

@dataclass
class ClientResult:
    name: str
    submitted: int = 0
    presented: int = 0
    skipped: int = 0
    disconnect: Optional[Tuple[int, str]] = None  # (t_us, reason)
    exit_status: str = "ok"                       # "ok" | "crashed" | "lost"


@dataclass
class ScenarioReport:
    duration_us: int
    clock: str
    server_frames: int = 0
    clients: Dict[str, ClientResult] = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)
    sink: str = "checksum"
    sink_dir: Optional[str] = None
    index_path: Optional[str] = None
    checksums: List[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        out = asdict(self)
        del out["checksums"]
        for client in out["clients"].values():
            del client["name"]
        return json.dumps(out, indent=2)


# -- fault interpretation --------------------------------------------------

class _FaultState:
    """Per-client interpreter over a time-ordered fault script."""

    def __init__(self, spec: ClientSpec):
        # Of two slow-to actions at one time, the larger fps sorts last and wins.
        self.actions = sorted(spec.faults, key=lambda a: (a.at_s, a.fps or 0.0))
        self.done: set = set()   # kinds of one-shot action already taken

    def _due(self, kind: str, t_s: float) -> bool:
        return any(a.kind == kind and a.at_s <= t_s for a in self.actions)

    def crashed(self, t_s: float) -> bool:
        return self._due("crash", t_s)

    def stalled(self, t_s: float) -> bool:
        return any(a.kind == "stall" and a.at_s <= t_s < a.at_s + (
            math.inf if a.duration_s is None else a.duration_s)
            for a in self.actions)

    def once_due(self, kind: str, t_s: float) -> bool:
        """True the first time an action of `kind` is due."""
        if kind in self.done or not self._due(kind, t_s):
            return False
        self.done.add(kind)
        return True

    def fps_at(self, t_s: float, base: float) -> float:
        return next((a.fps for a in reversed(self.actions)
                     if a.kind == "slow-to" and a.at_s <= t_s), base)


def _scribble_header(region) -> None:
    buf = memoryview(region)
    buf[:shm.HEADER_SIZE] = (b"\xde\xad\xbe\xef" * 15)[:shm.HEADER_SIZE]


def _flip_statuses(region, spec: ClientSpec) -> None:
    """Write a status word outside FREE..DRAWING into every slot."""
    buf = memoryview(region)
    h = shm.layout_for(spec.region_config())
    for i in range(h.frame_count):
        offset = h.frame_offset + i * STATUS_RECORD_SIZE
        buf[offset:offset + 4] = b"\xff" * 4


# -- the event loop shared by both engines -----------------------------------

_Step = Callable[[int], Optional[int]]


def _run_loop(clock: Clock, end_us: int,
              steps: List[Tuple[int, int, str, _Step]]) -> None:
    """Run each step at its due time until none is due by `end_us`.

    An entry is (due_us, order, name, step); `step(due_us)` returns its
    next due time, or None when it is done. Entries due at the same time
    run by (order, name). SimClock jumps to each due time; WallClock
    sleeps until it.
    """
    heap = list(steps)
    heapq.heapify(heap)
    while heap and heap[0][0] <= end_us:
        t, order, name, step = heapq.heappop(heap)
        clock.sleep_us(max(0, t - clock.now_us()))
        due = step(t)
        if due is not None:
            heapq.heappush(heap, (due, order, name, step))


class _Partition:
    """One client's frame step: fault script, rendering and exit status."""

    def __init__(self, spec: ClientSpec, region, clock: Clock):
        self.spec = spec
        self.session = connect_session(region, clock)
        self.region = region
        self.clock = clock
        self.start_us = clock.now_us()
        self.faults = _FaultState(spec)
        self.exit_status = "ok"

    def step(self, t: int) -> Optional[int]:
        now = self.clock.now_us()  # equals t under SimClock
        t_s = (now - self.start_us) / 1e6
        if self.faults.crashed(t_s):
            self.exit_status = "crashed"
            return None
        if self.faults.once_due("garbage-header", t_s):
            _scribble_header(self.region)
        if self.faults.once_due("flip-status", t_s):
            _flip_statuses(self.region, self.spec)
        due = now + max(1, int(1e6 / self.faults.fps_at(t_s, self.spec.fps)))
        if self.faults.stalled(t_s):
            return due
        try:
            surface = self.session.try_begin_frame()
            if surface is None:
                return due
            if self.spec.widget == "counters":
                widgets.render_counters(surface, t_s, self.spec.complexity)
            else:
                widgets.render_pattern(surface, self.session.frames_submitted)
            self.session.end_frame()
        except FramebufferError:
            self.exit_status = "lost"
            return None
        return due


class _Server:
    """The compositor side: watchdog polls and compose ticks.

    Missed periods are dropped, not replayed: a slow compose must never
    build a backlog that outlives the run.
    """

    def __init__(self, config: ScenarioConfig, clock: Clock):
        self.sink = sinks.make_sink(config.run.sink, config.run.sink_dir)
        target = CompositionTarget(config.target.geometry, config.target.format,
                                   config.target.background)
        self.server = CompositorServer(target, self.sink, clock)
        self.clock = clock
        self.compose_period = int(1e6 / config.target.rate)
        self.watchdog_period = max(1, int(config.run.watchdog_poll_s * 1e6))
        self.violations: List[str] = []
        self.start_us = 0

    def steps(self, start_us: int) -> List[Tuple[int, int, str, _Step]]:
        """Loop entries for both server steps; `start_us` is the time origin
        of the report."""
        self.start_us = start_us
        return [(start_us + self.watchdog_period, 1, "@watchdog", self.watchdog),
                (start_us + self.compose_period, 3, "@compose", self.compose)]

    def watchdog(self, t: int) -> int:
        self.server.check_watchdogs(self.clock.now_us())
        return max(t + self.watchdog_period, self.clock.now_us())

    def compose(self, t: int) -> int:
        now = self.clock.now_us()
        try:
            self.server.compose_once(now)
        except FramebufferError as exc:
            self.violations.append(
                f"compose at {now - self.start_us}us failed: {exc}")
        self.server.check_framerates(now)
        return max(t + self.compose_period, self.clock.now_us())


def _build_report(config: ScenarioConfig, server: _Server,
                  exit_statuses: List[str]) -> ScenarioReport:
    """Assemble the report from the compositor's counts (its presents and
    each client's new takes), each client's exit status and the counts its
    region shows: the newest sequence counts its submits, and the
    heartbeat counts them plus each begin that found no FREE slot. The
    server's table only grows, in config order, so it pairs with
    `config.clients` in order."""
    sink = server.sink
    report = ScenarioReport(
        duration_us=int(config.run.duration_s * 1e6), clock=config.run.clock,
        server_frames=server.server.frames_presented,
        violations=list(server.violations),
        sink=config.run.sink, sink_dir=config.run.sink_dir,
        index_path=(str(sink.close())
                    if isinstance(sink, sinks.ImageSequenceSink) else None),
        checksums=(sink.checksums()
                   if isinstance(sink, sinks.ChecksumSink) else []))
    for spec, desc, status in zip(config.clients,
                                  server.server.clients.values(),
                                  exit_statuses):
        submitted = desc.queue.newest_sequence()
        heartbeat = shm.read_heartbeat(desc.region, desc.header)
        report.clients[spec.name] = ClientResult(
            spec.name, submitted=submitted,
            presented=desc.presented,
            skipped=max(0, heartbeat - submitted),
            disconnect=next(((e.t_us - server.start_us, e.reason)
                             for e in server.server.events
                             if e.client_id == desc.id), None),
            exit_status=status)
    return report


# -- simulated engine ------------------------------------------------------

def _run_sim(config: ScenarioConfig) -> ScenarioReport:
    clock = SimClock()
    server = _Server(config, clock)
    partitions = []
    for spec in config.clients:
        buf, _ = shm.allocate_region(spec.region_config())
        shm.publish(buf)
        server.server.register_client(buf, spec.placement, spec.min_fps)
        partitions.append(_Partition(spec, buf, clock))
    steps = server.steps(0) + [(0, 2, p.spec.name, p.step) for p in partitions]
    _run_loop(clock, int(config.run.duration_s * 1e6), steps)
    return _build_report(config, server, [p.exit_status for p in partitions])


# -- multi-process engine --------------------------------------------------

# A client process's exit code per exit status; any other is a client bug.
_EXIT_CODES = {"ok": 0, "crashed": 17, "lost": 18}


def _client_main(spec: ClientSpec, duration_s: float,
                 region_name: str) -> None:
    """One partition's process: attach to its own region, run its frame
    step and exit with the code of its exit status. A forked child gets
    `spec` as the object itself, without pickling."""
    signal.signal(signal.SIGTERM, signal.SIG_DFL)   # terminate() ends it
    clock = WallClock()
    region = regions.open_region(region_name)
    partition = _Partition(spec, region.buf, clock)
    start = partition.start_us
    _run_loop(clock, start + int(duration_s * 1e6),
              [(start, 2, spec.name, partition.step)])
    sys.exit(_EXIT_CODES[partition.exit_status])


def _run_wall(config: ScenarioConfig) -> ScenarioReport:
    """The calling process is the server. It lays out, publishes and
    registers every region before the first client process starts; no
    region mapping survives a fork, so each client maps only its own.
    While it runs, SIGTERM raises SystemExit, so a terminated run still
    ends its client processes and unlinks its regions."""
    session = uuid.uuid4().hex[:12]
    names = [regions.region_name(session, i)
             for i in range(len(config.clients))]
    ctx = multiprocessing.get_context("fork")
    clock = WallClock()
    server = _Server(config, clock)
    mapped, procs = [], []
    previous = signal.signal(signal.SIGTERM,
                             lambda signum, _: sys.exit(128 + signum))
    try:
        for spec, name in zip(config.clients, names):
            rc = spec.region_config()
            mapped.append(regions.create_region(
                name, shm.required_region_size(rc)))
            shm.encode_header(rc, mapped[-1].buf)
            shm.publish(mapped[-1].buf)
            server.server.register_client(mapped[-1].buf, spec.placement,
                                          spec.min_fps,
                                          pixel_buf=mapped[-1].readonly_buf)
        for spec, name in zip(config.clients, names):
            procs.append(ctx.Process(
                target=_client_main,
                args=(spec, config.run.duration_s, name)))
            procs[-1].start()
        start = clock.now_us()
        _run_loop(clock, start + int(config.run.duration_s * 1e6),
                  server.steps(start))
        statuses = {code: status for status, code in _EXIT_CODES.items()}
        for spec, proc in zip(config.clients, procs):
            proc.join(5)  # a client still running reads None
            if proc.exitcode not in statuses:
                server.violations.append(
                    f"client {spec.name}: process exit code {proc.exitcode}")
        return _build_report(config, server, [
            statuses.get(p.exitcode, "crashed") for p in procs])
    finally:
        signal.signal(signal.SIGTERM, previous)
        for p in procs:
            if p.is_alive():
                p.terminate()
            p.join()
        for region in mapped:
            region.close()
        for name in names:
            regions.unlink_region(name)


def run_scenario(config: ScenarioConfig) -> ScenarioReport:
    return (_run_sim if config.run.clock == "sim" else _run_wall)(config)
