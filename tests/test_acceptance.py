"""Acceptance suite: one test per release criterion.

Each test prints a single [PASS]/[FAIL] summary line with the measured
numbers (run with -s, or read the captured-output section on failure)
and then asserts. These are intentionally end-to-end and heavier than
the unit suites; the whole file stays within a few minutes of runtime.
"""

import random
import time

import numpy as np

from fbcomp import shm
from fbcomp.bench import BenchConfig, run_benchmark
from fbcomp.clock import SimClock
from fbcomp.errors import (CorruptRegion, IncompatibleProtocol,
                           RegionTooSmall, ServerUnavailable)
from fbcomp.pixel import (PixelFormat, Rect, Surface, SurfaceGeometry, blit,
                          compute_pitch, convert_pixel)
from fbcomp.scenario import (ClientSpec, FaultAction, RunSpec, ScenarioConfig,
                             TargetSpec, run_scenario)

from queue_model import explore
from test_compositor import make_client, make_server, submit
from test_frame_queue import run_tearing_stress
from test_shm import random_config, small_config


def _verdict(name, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, flush=True)
    assert ok, line


def test_1_state_machine_soundness():
    # Exhaustive interleaving of one producer and one consumer over a
    # real queue: every observed status transition must be a legal edge.
    start = time.monotonic()
    total_states = 0
    violations = []
    for depth in (1, 2, 3):
        states, bad = explore(depth)
        total_states += states
        violations.extend(bad)
    elapsed = time.monotonic() - start
    _verdict("state-machine soundness",
             not violations and elapsed < 60.0,
             f"{total_states} states, {len(violations)} illegal edges, "
             f"{elapsed:.1f}s")


def test_2_tearing_freedom():
    # 60 s of threaded producer/consumer stress with randomized delays;
    # every displayed frame's embedded checksum must still validate.
    checked, failures = run_tearing_stress(60.0, seed=20260825)
    _verdict("tearing freedom",
             checked > 0 and not failures,
             f"{checked} frames checked, {len(failures)} torn")


def test_3_protocol_round_trip_and_fuzz():
    rng = random.Random(31337)
    mismatches = 0
    for _ in range(1000):
        config = random_config(rng)
        buf, lay = shm.allocate_region(config)
        shm.publish(buf)
        queue, header = shm.client_attach(buf)
        good = (queue.geometry == config.geometry
                and header.framerate == config.framerate
                and header.timeout_us == config.timeout_us
                and header.frame_count == config.queue_depth == queue.depth
                and tuple(PixelFormat(f) for f in header.formats) == config.formats
                and header.frame_offset == lay.frame_offset
                and header.frame_data_offset == lay.frame_data_offset
                and header.frame_padding == config.frame_padding)
        mismatches += not good

    # Header fuzzing: every mutated region must either produce a
    # violation report or attach cleanly. An out-of-bounds read would
    # surface as struct.error/IndexError and fail the test outright.
    base, _ = shm.allocate_region(small_config())
    shm.publish(base)
    reported = clean = 0
    for _ in range(10_000):
        buf = bytearray(base)
        for _ in range(rng.randint(1, 8)):
            buf[rng.randrange(shm.HEADER_SIZE)] = rng.randrange(256)
        violations = shm.validate_region(buf)
        if violations:
            reported += 1
            continue
        try:
            queue, header = shm.client_attach(buf)
        except (ServerUnavailable, IncompatibleProtocol, CorruptRegion,
                RegionTooSmall):
            reported += 1
            continue
        assert header.frame_count == queue.depth
        clean += 1
    _verdict("protocol round-trip",
             mismatches == 0 and reported + clean == 10_000,
             f"1000 round-trips ({mismatches} mismatches); fuzz: "
             f"{reported} reported, {clean} clean attaches")


def test_4_overhead_ratios():
    # Single-process fps through the frame-queue API and the composited
    # path must stay within fixed fractions of the direct render loop;
    # each client must beat the full-display rate by 1.2x when measured
    # with the compositor (capability phase, see fbcomp.bench).
    start = time.monotonic()
    report = None
    for _ in range(2):  # one retry absorbs a noisy-host run
        report = run_benchmark(BenchConfig())
        if (report.framebuffer_ratio >= 0.95
                and report.composited_ratio >= 0.85
                and report.min_client_ratio >= 1.2):
            break
    elapsed = time.monotonic() - start
    ok = (report.framebuffer_ratio >= 0.95
          and report.composited_ratio >= 0.85
          and report.min_client_ratio >= 1.2
          and elapsed < 300.0)
    _verdict("overhead ratios", ok,
             f"direct {report.direct_fps:.1f} fps; framebuffer "
             f"{report.framebuffer_ratio:.3f}x (need >=0.95), composited "
             f"{report.composited_ratio:.3f}x (need >=0.85), min client "
             f"{report.min_client_ratio:.3f}x (need >=1.2), {elapsed:.0f}s")


def _watchdog_schedule(seed):
    """One randomized stall schedule; returns (error or None)."""
    rng = random.Random(seed)
    poll = rng.choice([1_000, 2_000, 5_000, 10_000])
    timeout = rng.randint(8 * poll, 50 * poll)
    hb_period = rng.randint(poll, timeout // 3)
    stall_start = rng.randint(hb_period, 10 * hb_period)

    clock = SimClock()
    server, _ = make_server(clock=clock)
    buf, _session = make_client(clock, timeout_us=timeout, framerate=1000)
    header = shm.read_header(buf)
    server.register_client(buf, Rect(0, 0, 64, 64), 0.0)

    writes = [k * hb_period for k in range(1, stall_start // hb_period + 1)
              if k * hb_period < stall_start]
    # Oracle: the server samples the heartbeat at poll ticks, so the
    # deadline is (tick at which the last change was observed) + timeout
    # and the disconnect must land on the first tick past it.
    observed = 0
    observed_at = 0
    t = 0
    horizon = stall_start + timeout + 3 * poll
    while t < horizon:
        t += poll
        clock.advance_to(t)
        value = sum(1 for w in writes if w <= t)
        shm.write_heartbeat(buf, header, value)
        if value != observed:
            observed, observed_at = value, t
        server.check_watchdogs(t)
        if server.events:
            break
    if not server.events:
        return f"seed {seed}: no disconnect by {horizon}us"
    event = server.events[0]
    deadline = observed_at + timeout
    expected = ((deadline // poll) + 1) * poll  # first tick past deadline
    if event.t_us != expected or event.reason != "watchdog":
        return (f"seed {seed}: disconnect at {event.t_us}us ({event.reason}), "
                f"expected {expected}us (poll {poll}, timeout {timeout})")
    return None


def test_5_watchdog_timing():
    errors = [e for e in (_watchdog_schedule(5000 + i) for i in range(200))
              if e is not None]

    # A client that always heartbeats within its timeout must survive
    # a million simulated frames without a single disconnect.
    clock = SimClock()
    server, _ = make_server(clock=clock)
    timeout = 100_000
    buf, _session = make_client(clock, timeout_us=timeout)
    header = shm.read_header(buf)
    server.register_client(buf, Rect(0, 0, 64, 64), 0.0)
    period = timeout // 2
    now = 0
    for i in range(1_000_000):
        now += period
        shm.write_heartbeat(buf, header, i + 1)
        server.check_watchdogs(now)
        if server.events:
            break
    steady_ok = not server.events
    _verdict("watchdog timing",
             not errors and steady_ok,
             f"200 schedules ({len(errors)} off-tick"
             f"{'; first: ' + errors[0] if errors else ''}), "
             f"10^6 punctual frames, {len(server.events)} false disconnects")


def _containment_config(fault=None):
    a = ClientSpec(name="a", width=96, height=96, x=0, y=0, fps=48.0,
                   min_fps=20.0, timeout_s=0.5,
                   faults=(fault,) if fault else ())
    b = ClientSpec(name="b", width=96, height=96, x=200, y=0, fps=48.0,
                   min_fps=20.0, timeout_s=0.5)
    return ScenarioConfig(
        target=TargetSpec(width=400, height=300, rate=30.0),
        run=RunSpec(duration_s=3.0, clock="sim", sink="checksum"),
        clients=(a, b))


def test_6_fault_containment_matrix():
    baseline = run_scenario(_containment_config())
    expected_frames = 90  # 3 s at 30 Hz, one present per compose period
    faults = {
        "stall": FaultAction("stall", 1.0),
        "crash": FaultAction("crash", 1.0),
        "garbage-header": FaultAction("garbage-header", 1.0),
        "slow-to": FaultAction("slow-to", 1.0, fps=10.0),  # min_fps / 2
        "flip-status": FaultAction("flip-status", 1.0),
    }
    problems = []
    if baseline.server_frames != expected_frames:
        problems.append(f"baseline presented {baseline.server_frames}")
    for name, fault in faults.items():
        report = run_scenario(_containment_config(fault))
        drift = abs(report.clients["b"].presented
                    - baseline.clients["b"].presented)
        if drift > 1:
            problems.append(f"{name}: B drifted by {drift} frames")
        if report.server_frames != expected_frames:
            problems.append(f"{name}: server presented "
                            f"{report.server_frames}/{expected_frames}")
        if report.clients["a"].disconnect is None:
            problems.append(f"{name}: faulty client was never disconnected")
    _verdict("fault containment", not problems,
             f"{len(faults)} faults, B baseline {baseline.clients['b'].presented} "
             f"presented; {'; '.join(problems) or 'no drift'}")


def test_7_preservation_golden():
    # A client that stops submitting but keeps heartbeating gets its
    # last frame re-presented byte-identically on every compose.
    clock = SimClock()
    server, sink = make_server(clock=clock)
    buf, session = make_client(clock)
    desc = server.register_client(buf, Rect(10, 20, 64, 64), 0.0)
    submit(session, 42)
    server.compose_once(clock.now_us())
    golden_sum = sink.checksums()[-1]
    golden_px = server.target.surface.pixels()[20:84, 10:74].copy()
    stale = 0
    for _ in range(50):
        clock.sleep_us(desc.header.timeout_us // 2)
        session.heartbeat()
        server.check_watchdogs(clock.now_us())
        rep = server.compose_once(clock.now_us())
        same = (rep.clients[0].outcome == "held"
                and sink.checksums()[-1] == golden_sum
                and np.array_equal(
                    server.target.surface.pixels()[20:84, 10:74], golden_px))
        stale += not same
    _verdict("preservation", stale == 0,
             f"50 re-presents, {stale} diverged from golden checksum")


def _naive_layout(fmt):
    """Channel order from the format name alone: byte i holds letter i."""
    return [c.lower() for c in fmt.name if c.isalpha()]


def _oracle_convert(value, src, dst):
    raw = value.to_bytes(4, "little")
    channels = {ch: raw[i] for i, ch in enumerate(_naive_layout(src))}
    return int.from_bytes(bytes(channels[ch] for ch in _naive_layout(dst)),
                          "little")


def test_8_pixel_conversion():
    mismatches = 0
    pairs = 0
    for src in PixelFormat:
        for dst in PixelFormat:
            if src == dst:
                continue
            pairs += 1
            for i, probe_ch in enumerate(_naive_layout(src)):
                for v in range(256):
                    raw = bytearray((0x11, 0x22, 0x33, 0x44))
                    raw[i] = v
                    value = int.from_bytes(raw, "little")
                    if convert_pixel(value, src, dst) != \
                            _oracle_convert(value, src, dst):
                        mismatches += 1

    # blit against a naive per-pixel reference on random geometries.
    rng = random.Random(424242)
    blit_bad = 0
    for _ in range(100):
        sfmt, dfmt = rng.choice(list(PixelFormat)), rng.choice(list(PixelFormat))
        sw, sh = rng.randint(1, 24), rng.randint(1, 24)
        sgeom = SurfaceGeometry(sw, sh, compute_pitch(
            sw, sfmt, rng.choice([4, 16, 64])))
        src = Surface(bytearray(rng.randbytes(sgeom.frame_bytes)), sgeom, sfmt)
        dw, dh = sw + rng.randint(0, 16), sh + rng.randint(0, 16)
        dgeom = SurfaceGeometry(dw, dh, compute_pitch(
            dw, dfmt, rng.choice([4, 16, 64])))
        dst = Surface(bytearray(rng.randbytes(dgeom.frame_bytes)), dgeom, dfmt)
        x, y = rng.randint(0, dw - sw), rng.randint(0, dh - sh)

        expected = dst.pixels().copy()
        for yy in range(sh):
            for xx in range(sw):
                pixel = int.from_bytes(
                    bytes(src.pixels()[yy, xx]), "little")
                out = _oracle_convert(pixel, sfmt, dfmt)
                expected[y + yy, x + xx] = list(out.to_bytes(4, "little"))
        blit(src, dst, Rect(x, y, sw, sh))
        if not np.array_equal(dst.pixels(), expected):
            blit_bad += 1
    _verdict("pixel conversion",
             mismatches == 0 and blit_bad == 0,
             f"{pairs} format pairs x 4 channels x 256 probes, "
             f"{mismatches} mismatches; 100 blits, {blit_bad} diverged")
