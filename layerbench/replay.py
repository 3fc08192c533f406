"""Fixed-schedule, single-thread replay of one workload through the stack.

A SimClock orders the events: each client's frames at its own rate, the
watchdog poll, and compose ticks. The schedule depends only on the
workload file and the seed, so every run with the same seed does the
same work in the same order. Every call into the stack is timed with the
monotonic wall clock (time.perf_counter_ns); simulated time only orders
the events.

Client regions are real /dev/shm regions from fbcomp.regions. The server
maps each region twice, like the wall engine, and reads pixels through the
read-only mapping; the client attaches through a mapping of its own.

Correctness is checked outside the timed calls: on sampled ticks the
composed target is compared with a plain-numpy reference built from what
the replay submitted, and at the end every disconnect is checked against
the fault script.

The benchmark runs on shared hosts whose speed drifts by tens of percent
over minutes. Before the first tick and right after each output check,
before any further call into the stack, a fixed workload that does not
touch the stack is timed (HostSpeed); the median over a replay gives a
factor that scales the replay's times to a nominal host speed. The output
check reads the whole target and writes a whole reference whatever the
stack wrote, and the workload runs once untimed first, so the factor does
not depend on the cache state the stack leaves behind. Wall-clock times
are printed next to the scaled ones.
"""

from __future__ import annotations

import heapq
import math
import os
import random
import re
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, Iterator, List, Optional

import numpy as np

from fbcomp import regions, scenario, shm, widgets
from fbcomp.client import ClientSession, connect_session
from fbcomp.clock import SimClock
from fbcomp.compositor import (INDICATOR_COLOR, INDICATOR_FILL,
                               ClientState, CompositionTarget,
                               CompositorServer)
from fbcomp.errors import FramebufferError
from fbcomp.pixel import PixelFormat, Surface
from fbcomp.sinks import ChecksumSink

WORKLOAD_DIR = Path(__file__).resolve().parent / "workloads"
WORKLOADS = tuple(sorted(p.stem for p in WORKLOAD_DIR.glob("*.ini")))

# Output check on every CHECK_EVERY-th tick; a prime, so the sampled ticks
# do not lock onto the phase of a client's frame rate.
CHECK_EVERY = 29

# HostSpeed's workload takes this long on the nominal host (about the
# median on the 2-core x86_64 host the benchmark was built on).
NOMINAL_CAL_NS = 900_000

# Reasons the server may give for a disconnect caused by each fault kind.
# A garbage header fails compose's magic check ("fault"); the watchdog says
# "corrupt-header" if it cannot read the heartbeat.
EXPECTED_REASONS = {
    "stall": {"watchdog"},
    "crash": {"watchdog"},
    "garbage-header": {"fault", "corrupt-header"},
    "slow-to": {"low-fps"},
}


# -- workload ---------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    config: scenario.ScenarioConfig   # rates and fault times after seeding
    phase_us: tuple                   # first-frame offset of each client


def make_workload(name: str, seed: int) -> Workload:
    """Load `name`'s scenario file and perturb it with `seed`.

    The seed scales each client's fps by [0.98, 1.02] and each fault time
    by [0.8, 1.2], and draws each client's first-frame phase within one
    frame period. The stack sees only the resulting schedule.
    """
    base = scenario.load_scenario(WORKLOAD_DIR / f"{name}.ini")
    rng = random.Random(f"{name}/{seed}")
    clients, phases = [], []
    for spec in base.clients:
        fps = spec.fps * rng.uniform(0.98, 1.02)
        faults = tuple(replace(a, at_s=a.at_s * rng.uniform(0.8, 1.2))
                       for a in spec.faults)
        clients.append(replace(spec, fps=fps, faults=faults))
        phases.append(rng.randrange(int(1e6 / fps)))
    return Workload(name, replace(base, clients=tuple(clients)), tuple(phases))


class FaultScript:
    """What a client's fault script asks of it at simulated time t (s)."""

    def __init__(self, spec: scenario.ClientSpec):
        self.spec = spec
        self.actions = sorted(spec.faults, key=lambda a: a.at_s)
        self.scribbled = False

    def crashed(self, t: float) -> bool:
        return any(a.kind == "crash" and t >= a.at_s for a in self.actions)

    def stalled(self, t: float) -> bool:
        return any(a.kind == "stall" and a.at_s <= t < (
            math.inf if a.duration_s is None else a.at_s + a.duration_s)
            for a in self.actions)

    def scribble_due(self, t: float) -> bool:
        if self.scribbled or not any(a.kind == "garbage-header" and t >= a.at_s
                                     for a in self.actions):
            return False
        self.scribbled = True
        return True

    def fps(self, t: float) -> float:
        fps = self.spec.fps
        for a in self.actions:
            if a.kind == "slow-to" and t >= a.at_s:
                fps = a.fps
        return fps

    def first(self):
        return self.actions[0] if self.actions else None

    def due_s(self, fps_window_s: float, poll_s: float) -> float:
        """Simulated time by which the first fault must have disconnected."""
        a = self.first()
        if a.kind in ("stall", "crash"):
            return a.at_s + self.spec.timeout_s + 2 * poll_s + 0.05
        if a.kind == "garbage-header":
            return a.at_s + 2.0 / self.spec.fps + 0.05
        # Once a full window has passed since the slow-down, the window holds
        # only slow frames.
        return a.at_s + fps_window_s + 0.25


# -- the stack under test -----------------------------------------------------

class BenchSink:
    """The server's output: a ChecksumSink, plus the bytes it was handed."""

    def __init__(self):
        self.inner = ChecksumSink()
        self.bytes = 0

    def present(self, surface: Surface, now_us: int) -> None:
        g = surface.geometry
        self.bytes += g.width * g.height * 4
        self.inner.present(surface, now_us)

    @property
    def count(self) -> int:
        return self.inner.count


@dataclass
class Client:
    spec: scenario.ClientSpec
    mapping: regions.SharedRegion      # the client's own mapping
    session: ClientSession
    client_id: int
    faults: FaultScript
    frame_index: int = 0
    alive: bool = True
    # sequence -> render argument (frame index or time) of recent frames
    submitted: Dict[int, object] = field(default_factory=dict)


class Stack:
    """Regions, server and attached clients for one workload."""

    def __init__(self, workload: Workload, session_name: str,
                 create_ns: Optional[List[int]] = None):
        cfg = workload.config
        self.workload = workload
        self.clients: List[Client] = []
        self._regions: List[regions.SharedRegion] = []
        self._names: List[str] = []
        self.clock = SimClock()
        self.sink = BenchSink()
        self.target = CompositionTarget(cfg.target.geometry, cfg.target.format,
                                        cfg.target.background)
        self.server = CompositorServer(self.target, self.sink, self.clock)
        try:
            for spec in cfg.clients:
                self._add_client(spec, session_name, create_ns)
        except BaseException:
            self.close()
            raise

    def _add_client(self, spec, session_name, create_ns) -> None:
        rc = spec.region_config()
        name = regions.region_name(session_name, spec.name)
        t0 = perf_counter_ns()
        region = regions.create_region(name, shm.required_region_size(rc))
        if create_ns is not None:
            create_ns.append(perf_counter_ns() - t0)
        self._names.append(name)
        self._regions.append(region)
        shm.encode_header(rc, region.buf)
        shm.publish(region.buf)
        desc = self.server.register_client(region.buf, spec.placement,
                                           spec.min_fps,
                                           pixel_buf=region.readonly_buf)
        mapping = regions.open_region(name)
        self._regions.append(mapping)
        session = connect_session(mapping.buf, self.clock)
        # Warm-up: the first render of a size builds the widget's grids.
        scratch = Surface.allocate(rc.geometry, spec.format)
        render(spec, scratch, 0.0, 0)
        self.clients.append(Client(spec, mapping, session, desc.id,
                                   FaultScript(spec)))

    def close(self) -> None:
        """Unmap and unlink every region (a mapping still viewed by numpy
        arrays is unmapped when they are collected)."""
        for r in self._regions:
            r.close()
        for name in self._names:
            regions.unlink_region(name)
        self._regions, self._names = [], []


def render(spec: scenario.ClientSpec, surface: Surface, t_s: float,
           frame_index: int) -> None:
    if spec.widget == "counters":
        widgets.render_counters(surface, t_s, spec.complexity)
    else:
        widgets.render_pattern(surface, frame_index)


def setup_stack(workload: Workload, tag: str,
                create_ns: Optional[List[int]] = None) -> Stack:
    """Build a fresh stack, with the widget grids built from cold."""
    # The widget grid cache is process-wide; clear it so that every set-up
    # pays the same warm-up a freshly started client process would.
    cache = getattr(widgets, "_grid_cache", None)
    if cache is not None:
        cache.clear()
    return Stack(workload, f"lb{os.getpid()}{tag}", create_ns)


# -- host speed ---------------------------------------------------------------

class HostSpeed:
    """Times a fixed workload that does not touch the stack.

    A float32 sine, a 2.4 MB copy and an interpreter loop stand for the
    render, blit and queue code. The median sample says how fast the shared
    host ran during a replay. The loop takes about two thirds of the time:
    on the host the benchmark was built on, compose_ms.p50 and frames_per_s
    followed the interpreter's speed more closely than numpy's from one run
    to the next.
    """

    def __init__(self):
        self._x = np.linspace(0.0, 1.0, 65536, dtype=np.float32)
        self._y = np.empty_like(self._x)
        self._src = np.ones(600_000, np.uint32)
        self._dst = np.empty_like(self._src)
        self.samples: List[int] = []

    def _work(self) -> None:
        np.sin(self._x, out=self._y)
        self._dst[:] = self._src
        acc = 0
        for i in range(10000):
            acc += i & 7

    def sample(self, repeats: int = 3) -> None:
        """Time `repeats` passes after one untimed pass that warms the cache."""
        self._work()
        for _ in range(repeats):
            t0 = perf_counter_ns()
            self._work()
            self.samples.append(perf_counter_ns() - t0)

    def scale(self) -> float:
        """Factor that brings this replay's times to the nominal host."""
        return NOMINAL_CAL_NS / statistics.median(self.samples)


# -- tracing hook -------------------------------------------------------------

class NoTrace:
    """Stand-in for spans.Tracer when tracing is off."""

    def __init__(self):
        self.tick = 0

    @staticmethod
    def call(name, fn, *args):
        return fn(*args)


# -- replay -------------------------------------------------------------------

@dataclass
class Replay:
    ticks: int = 0
    busy_ns: int = 0
    compose_ns: List[int] = field(default_factory=list)
    client_ns: List[int] = field(default_factory=list)
    produce_attempts: int = 0      # scheduled client frames not stalled
    begin_none: int = 0            # attempts that found no FREE slot
    submitted: int = 0
    flushed: int = 0               # submitted frames never presented
    outcomes: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(
        ("new", "held", "empty", "disconnected"), 0))
    all_held_ticks: int = 0
    blit_bytes: int = 0
    # correctness
    attempted: int = 0
    failed: int = 0
    checks: int = 0
    problems: List[str] = field(default_factory=list)
    sim_end_us: int = 0
    speed: HostSpeed = field(default_factory=HostSpeed)

    def fail(self, msg: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(msg)


_WATCHDOG, _CLIENT, _COMPOSE = 1, 2, 3


def run_replay(stack: Stack, *, budget_ns: Optional[int] = None,
               min_samples: int = 0, max_ticks: Optional[int] = None) -> Replay:
    """Replay the workload's schedule on `stack`, untraced.

    Stops after the compose tick at which the summed call time reaches
    `budget_ns` and both compose ticks and client frames number at least
    `min_samples`, or after `max_ticks` ticks. A host too slow to gather
    the samples stops at three times the budget.
    """
    if budget_ns is None and max_ticks is None:
        raise ValueError("need a time budget or a tick count")
    for out in replay_ticks(stack):
        if out.ticks == max_ticks or _spent(out, budget_ns, min_samples):
            break
    check_disconnects(stack, out)
    return out


def replay_ticks(stack: Stack, tracer=None) -> Iterator[Replay]:
    """Replay the schedule on `stack`; yield the tally after each tick."""
    tracer = tracer or NoTrace()
    cfg = stack.workload.config
    server, clock = stack.server, stack.clock
    compose_period = int(1e6 / cfg.target.rate)
    poll_period = max(1, int(cfg.run.watchdog_poll_s * 1e6))
    checker = OutputChecker(stack)
    last_seq = {c.client_id: 0 for c in stack.clients}
    out = Replay()

    heap = [(phase, _CLIENT, i) for i, phase in enumerate(stack.workload.phase_us)]
    heap += [(poll_period, _WATCHDOG, -1), (compose_period, _COMPOSE, -1)]
    heapq.heapify(heap)
    server_ns = 0          # watchdog time since the previous compose tick
    tracer.tick = 1
    out.speed.sample()
    while True:
        t, kind, who = heapq.heappop(heap)
        clock.advance_to(t)
        if kind == _WATCHDOG:
            t0 = perf_counter_ns()
            tracer.call("compositor.watchdog", server.check_watchdogs, t)
            server_ns += perf_counter_ns() - t0
            heapq.heappush(heap, (t + poll_period, _WATCHDOG, -1))
        elif kind == _CLIENT:
            c = stack.clients[who]
            next_t = _client_event(c, t, out, tracer, server)
            if next_t is not None:
                heapq.heappush(heap, (next_t, _CLIENT, who))
        else:
            t0 = perf_counter_ns()
            report = None
            try:
                report = tracer.call("compositor.compose", server.compose_once, t)
                tracer.call("compositor.framerate", server.check_framerates, t)
            except FramebufferError as exc:
                out.fail(f"tick {out.ticks + 1}: compose failed: {exc}")
            dt = perf_counter_ns() - t0 + server_ns
            server_ns = 0
            out.compose_ns.append(dt)
            out.busy_ns += dt
            out.ticks += 1
            out.attempted += 1
            tracer.tick = out.ticks + 1
            if report is not None:
                _tally(report, stack, last_seq, out)
                if out.ticks % CHECK_EVERY == 0:
                    out.checks += 1
                    problem = checker.check(report)
                    if problem:
                        out.fail(f"tick {out.ticks} (t={t}us): {problem}")
                    out.speed.sample()
            out.sim_end_us = t
            heapq.heappush(heap, (t + compose_period, _COMPOSE, -1))
            yield out


def _spent(out: Replay, budget_ns: Optional[int], min_samples: int) -> bool:
    if budget_ns is None or out.busy_ns < budget_ns:
        return False
    return (out.busy_ns >= 3 * budget_ns or min(out.ticks, len(out.client_ns))
            >= min_samples)


def _client_event(c: Client, t: int, out: Replay, tracer,
                  server: CompositorServer) -> Optional[int]:
    """One scheduled produce attempt; returns the client's next event time."""
    if not c.alive:
        return None
    t_s = t / 1e6
    if c.faults.crashed(t_s):
        c.alive = False
        return None
    if c.faults.scribble_due(t_s):
        c.mapping.buf[:shm.HEADER_SIZE] = (b"\xde\xad\xbe\xef" * 16)[:shm.HEADER_SIZE]
    next_t = t + max(1, int(1e6 / c.faults.fps(t_s)))
    if c.faults.stalled(t_s):
        return next_t
    session = c.session
    t0 = perf_counter_ns()
    try:
        surface = tracer.call("client.begin", session.try_begin_frame)
        if surface is not None:
            tracer.call("widgets.render", render, c.spec, surface, t_s,
                        c.frame_index)
            tracer.call("client.end", session.end_frame)
    except FramebufferError as exc:
        out.busy_ns += perf_counter_ns() - t0
        c.alive = False
        if server.clients[c.client_id].state is not ClientState.DISCONNECTED:
            out.attempted += 1
            out.fail(f"client {c.spec.name} failed while connected: {exc!r}")
        return None
    dt = perf_counter_ns() - t0
    out.busy_ns += dt
    out.produce_attempts += 1
    out.attempted += 1
    if surface is None:
        out.begin_none += 1
        return next_t
    out.client_ns.append(dt)
    out.submitted += 1
    # Sequences start at 1 in a fresh region and rise by one per submit.
    c.submitted[session.frames_submitted] = (
        t_s if c.spec.widget == "counters" else c.frame_index)
    c.frame_index += 1
    return next_t


def _tally(report, stack: Stack, last_seq: Dict[int, int], out: Replay) -> None:
    held = 0
    for cr in report.clients:
        out.outcomes[cr.outcome] += 1
        if cr.outcome not in ("new", "held"):
            continue
        c = _by_id(stack, cr.client_id)
        out.blit_bytes += c.spec.width * c.spec.height * 4
        held += cr.outcome == "held"
        if cr.outcome == "new":
            out.flushed += cr.sequence - last_seq[cr.client_id] - 1
            last_seq[cr.client_id] = cr.sequence
            for seq in [s for s in c.submitted if s < cr.sequence]:
                del c.submitted[seq]
    if report.clients and held == len(report.clients):
        out.all_held_ticks += 1


def _by_id(stack: Stack, client_id: int) -> Client:
    return next(c for c in stack.clients if c.client_id == client_id)


def check_disconnects(stack: Stack, out: Replay) -> None:
    """Every disconnect matches the fault script; due faults did fire, and
    none later than due."""
    server = stack.server
    end_s = out.sim_end_us / 1e6
    fps_window_s = server.fps_window_us / 1e6
    poll_s = stack.workload.config.run.watchdog_poll_s
    events = {}
    for e in server.events:
        events.setdefault(e.client_id, []).append(e)
    for c in stack.clients:
        got = events.get(c.client_id, [])
        first = c.faults.first()
        if first is None:
            out.attempted += 1
            if got:
                out.fail(f"healthy client {c.spec.name} disconnected: "
                         f"{got[0].reason} at {got[0].t_us}us")
            continue
        due_s = c.faults.due_s(fps_window_s, poll_s)
        if not got and end_s < due_s:
            continue
        out.attempted += 1
        if not got:
            out.fail(f"client {c.spec.name}: {first.kind} fault at "
                     f"{first.at_s:.3f}s never disconnected it")
        elif got[0].reason not in EXPECTED_REASONS[first.kind]:
            out.fail(f"client {c.spec.name}: {first.kind} fault gave reason "
                     f"{got[0].reason!r}")
        elif got[0].t_us < first.at_s * 1e6:
            out.fail(f"client {c.spec.name} disconnected at {got[0].t_us}us, "
                     f"before its fault at {first.at_s:.3f}s")
        elif got[0].t_us > due_s * 1e6:
            out.fail(f"client {c.spec.name} disconnected at {got[0].t_us}us, "
                     f"after its {first.kind} disconnect was due at "
                     f"{due_s:.3f}s")


# -- output oracle ------------------------------------------------------------

def _byte_order(fmt: PixelFormat) -> List[str]:
    """Channels in memory order, read off the format's name."""
    return re.findall("[RGBA]", PixelFormat(fmt).name)


def _pixel(rgba, fmt: PixelFormat) -> np.ndarray:
    return np.array([rgba["RGBA".index(ch)] for ch in _byte_order(fmt)],
                    np.uint8)


def _convert(px: np.ndarray, src: PixelFormat, dst: PixelFormat) -> np.ndarray:
    order = _byte_order(src)
    return px[..., [order.index(ch) for ch in _byte_order(dst)]]


class OutputChecker:
    """Plain-numpy reference for the composed target."""

    def __init__(self, stack: Stack):
        self.stack = stack
        tgt = stack.workload.config.target
        self.format = tgt.format
        bg = tgt.background & 0xFFFFFFFF
        self.background = _pixel(bg.to_bytes(4, "big"), tgt.format)
        self.indicator = {
            int.from_bytes(_pixel(INDICATOR_COLOR, tgt.format).tobytes(), "little"),
            int.from_bytes(_pixel(INDICATOR_FILL, tgt.format).tobytes(), "little"),
        }
        self._frames = {}   # client_id -> (sequence, frame in target format)

    def _frame(self, c: Client, seq: int) -> np.ndarray:
        cached = self._frames.get(c.client_id)
        if cached is not None and cached[0] == seq:
            return cached[1]
        arg = c.submitted[seq]
        spec = c.spec
        if spec.widget == "counters":
            ref = Surface.allocate(spec.region_config().geometry, spec.format)
            widgets.render_counters(ref, arg, spec.complexity)
            px = np.array(ref.pixels())
        else:
            # render_pattern writes these bytes whatever the format.
            px = np.empty((spec.height, spec.width, 4), np.uint8)
            px[:] = (arg & 0xFF, (arg >> 8) & 0xFF, (arg * 37) & 0xFF, 255)
        frame = np.ascontiguousarray(_convert(px, spec.format, self.format))
        self._frames[c.client_id] = (seq, frame)
        return frame

    def check(self, report) -> Optional[str]:
        actual = self.stack.target.surface.pixels()
        expected = np.empty_like(actual)
        expected[:] = self.background
        for cr in report.clients:
            c = _by_id(self.stack, cr.client_id)
            p = c.spec.placement
            area = (slice(p.y, p.y + p.height), slice(p.x, p.x + p.width))
            if cr.outcome in ("new", "held"):
                if cr.sequence not in c.submitted:
                    return f"client {c.spec.name} shows unknown frame {cr.sequence}"
                expected[area] = self._frame(c, cr.sequence)
            elif cr.outcome == "disconnected":
                colours = np.ascontiguousarray(actual[area]).view(np.uint32)
                if not np.isin(colours, list(self.indicator)).all():
                    return (f"disconnected client {c.spec.name} shows "
                            f"colours other than the indicator")
                expected[area] = actual[area]
        if not np.array_equal(actual, expected):
            rows, cols = np.nonzero((actual != expected).any(axis=2))
            return (f"{len(rows)} pixels differ from the reference, first at "
                    f"({cols[0]}, {rows[0]})")
        return None
