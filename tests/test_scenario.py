import hashlib
import json
import multiprocessing
import os
import platform
import re
import time
import uuid
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbcomp import regions, widgets
from fbcomp import bench
from fbcomp.bench import BenchConfig
from fbcomp.compositor import CompositorServer, INDICATOR_COLOR, INDICATOR_FILL
from fbcomp.pixel import PixelFormat, Surface
from fbcomp.widgets import MIN_SIDE
from fbcomp.scenario import (CLOCKS, SINKS, WIDGETS, ClientSpec, FaultAction,
                             RunSpec, ScenarioConfig, TargetSpec, from_section,
                             load_scenario, parse_scenario, run_scenario,
                             to_section)

from test_acceptance import _containment_config, _naive_layout

ROOT = Path(__file__).resolve().parents[1]

# Rates and durations a spec accepts.
_rates = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
# Text that survives the INI file: nothing stripped, no line breaks.
_names = st.text("abcxyz019_./-", min_size=1, max_size=12)
_sizes = st.integers(min_value=1)
# Sides the counters widget renders: every bench phase draws it.
_sides = st.integers(min_value=MIN_SIDE)
_depths = st.integers(2, 8)
_faults = st.tuples(
    st.sampled_from(["stall", "crash", "garbage-header", "flip-status",
                     "slow-to"]),
    st.floats(0, 100), st.one_of(st.none(), st.floats(0.001, 50)),
    st.floats(0.1, 240)).map(lambda k: FaultAction(
        k[0], k[1], duration_s=k[2] if k[0] == "stall" else None,
        fps=k[3] if k[0] == "slow-to" else None))


def _every_field(cls, **given):
    """st.builds of `cls` drawing every field: from `given`, else inferred
    from its type (builds alone leaves defaulted fields at their default)."""
    return st.builds(cls, **{f.name: given.get(f.name, ...)
                             for f in fields(cls)})


def _min_side(widget):
    return MIN_SIDE if widget == "counters" else 1


SECTIONS = {
    # A compose period is at least one whole microsecond.
    TargetSpec: _every_field(TargetSpec, width=_sizes, height=_sizes,
                             rate=st.floats(min_value=0.0, exclude_min=True,
                                            max_value=1e6),
                             background=st.integers(0, 2**32 - 1)),
    # The images sink needs a directory.
    RunSpec: st.sampled_from(SINKS).flatmap(lambda sink: _every_field(
        RunSpec, duration_s=_rates, clock=st.sampled_from(CLOCKS),
        sink=st.just(sink),
        sink_dir=_names if sink == "images" else st.none() | _names,
        watchdog_poll_s=_rates)),
    # A timeout of 2 s covers two frame periods at any fps (the region
    # rounds fps down, to at least 1). The width (as a pitch of 4 bytes a
    # pixel, rounded up), height and fps each fit a u32 header word, and
    # a counters client is at least MIN_SIDE a side.
    ClientSpec: st.sampled_from(WIDGETS).flatmap(lambda widget: _every_field(
        ClientSpec, name=_names,
        fps=st.floats(min_value=0.0, exclude_min=True, max_value=2.0**32,
                      exclude_max=True),
        width=st.integers(_min_side(widget), 2**30 - 16),
        height=st.integers(_min_side(widget), 2**32 - 1),
        queue_depth=_depths,
        min_fps=st.floats(min_value=0.0, allow_infinity=False),
        complexity=st.integers(min_value=1), timeout_s=st.floats(2.0, 1e9),
        widget=st.just(widget),
        faults=st.lists(_faults, max_size=3).map(tuple))),
    BenchConfig: st.tuples(_sizes, _sides, _sides).flatmap(
        lambda sizes: _every_field(
            BenchConfig, duration_s=_rates, sink=st.sampled_from(bench.SINKS),
            client_count=st.just(sizes[0]), client_width=st.just(sizes[1]),
            client_height=st.just(sizes[2]),
            # The clients sit side by side on the target.
            target_width=st.integers(min_value=sizes[0] * sizes[1]),
            target_height=st.integers(min_value=sizes[2]),
            # One slot is always held for display, so a bench queue
            # needs at least two.
            complexity=_sizes, queue_depth=st.integers(2, 8))),
}


@st.composite
def _scenarios(draw):
    """Scenarios a run accepts: up to three clients, each placed inside
    its own column strip of the target, so none overlaps another."""
    target = draw(SECTIONS[TargetSpec])
    specs = draw(st.lists(SECTIONS[ClientSpec], max_size=min(3, target.width),
                          unique_by=lambda c: c.name))
    clients = []
    for i, spec in enumerate(specs):
        x0 = i * target.width // len(specs)
        x1 = (i + 1) * target.width // len(specs)
        side = _min_side(spec.widget)
        if side > min(x1 - x0, target.height):  # no room for the counters
            spec, side = replace(spec, widget="pattern"), 1
        width = draw(st.integers(side, min(x1 - x0, 2**30 - 16)))
        height = draw(st.integers(side, min(target.height, 2**32 - 1)))
        clients.append(replace(
            spec, width=width, height=height,
            x=draw(st.integers(x0, x1 - width)),
            y=draw(st.integers(0, target.height - height))))
    return ScenarioConfig(target, draw(SECTIONS[RunSpec]), tuple(clients))


def two_client_config(duration_s=1.0, clock="sim", sink="checksum", **kw):
    base = dict(width=128, height=128, y=16, fps=48, timeout_s=0.2)
    a = ClientSpec("alpha", **{**base, "x": 16, **kw.pop("a", {})})
    b = ClientSpec("beta", **{**base, "x": 256, **kw.pop("b", {})})
    return ScenarioConfig(
        target=TargetSpec(width=512, height=256, rate=30),
        run=RunSpec(duration_s=duration_s, clock=clock, sink=sink, **kw),
        clients=(a, b),
    )


def _pixel_bytes(fmt, r, g, b, a):
    """One pixel's four bytes in `fmt`, from the format's name alone."""
    channel = {"r": r, "g": g, "b": b, "a": a}
    return [channel[c] for c in _naive_layout(fmt)]


def _pattern_frame(spec, sequence, fmt):
    """The frame a pattern client submits as `sequence`, drawn in the
    client's format and moved to `fmt` by plain byte reordering."""
    frame = Surface.allocate(spec.region_config().geometry, spec.format)
    widgets.render_pattern(frame, sequence - 1)
    src, dst = _naive_layout(spec.format), _naive_layout(fmt)
    return frame.pixels()[..., [src.index(c) for c in dst]]


def _target_problems(config, target, report):
    """Where the composed target differs from the reference: each shown
    frame's pattern, only indicator colours over a disconnected client,
    background everywhere else. Client ids follow the config's order."""
    fmt = target.format
    actual = target.surface.pixels()
    expected = np.empty_like(actual)
    expected[:] = _pixel_bytes(fmt, *config.target.background.to_bytes(4, "big"))
    indicator = [int.from_bytes(bytes(_pixel_bytes(fmt, *c)), "little")
                 for c in (INDICATOR_COLOR, INDICATOR_FILL)]
    problems = []
    for cr in report.clients:
        spec = config.clients[cr.client_id - 1]
        p = spec.placement
        area = (slice(p.y, p.y + p.height), slice(p.x, p.x + p.width))
        if cr.outcome in ("new", "held"):
            expected[area] = _pattern_frame(spec, cr.sequence, fmt)
        elif cr.outcome == "disconnected":
            if not np.isin(actual[area].view("<u4"), indicator).all():
                problems.append(f"{spec.name}: not only indicator colours")
            expected[area] = actual[area]
    if not np.array_equal(actual, expected):
        problems.append(f"{(actual != expected).any(axis=2).sum()} pixels "
                        f"differ at t={report.t_us}")
    return problems


class TestConfigFormat:
    def test_round_trip_equality(self):
        config = two_client_config(
            a={"faults": (FaultAction("stall", 0.5, duration_s=0.25),
                          FaultAction("crash", 2.0))},
            b={"faults": (FaultAction("slow-to", 1.0, fps=5.0),
                          FaultAction("garbage-header", 3.0)),
               "widget": "counters", "complexity": 3,
               "format": PixelFormat.B8G8R8A8},
        )
        assert parse_scenario(config.serialize()) == config

    @pytest.mark.parametrize("cls", list(SECTIONS), ids=lambda c: c.__name__)
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_section_round_trip(self, cls, data):
        spec = data.draw(SECTIONS[cls])
        title = {"name": spec.name} if cls is ClientSpec else {}
        assert from_section(cls, to_section(spec), **title) == spec

    @settings(max_examples=50, deadline=None)
    @given(_scenarios())
    def test_scenario_text_round_trip(self, config):
        assert parse_scenario(config.serialize()) == config

    @pytest.mark.parametrize("text, named", [
        ("[target]\nwidht = 10\n", "'widht'"),
        ("[run]\nduraton = 2\n", "'duraton'"),
        ("[run]\nduration_s = 2\n", "'duration_s'"),
        ("[client:a]\nfsp = 30\n", "'fsp'"),
        ("[client:a]\nname = b\n", "'name'"),
        ("[targte]\nwidth = 10\n", r"\[targte\]"),
        ("[client]\nfps = 30\n", r"\[client\]"),
        ("[DEFAULT]\nfps = 30\n", r"\[DEFAULT\]"),
    ], ids=["target-key", "run-key", "run-field-name", "client-key",
            "client-name-key", "section", "untitled-client", "default-section"])
    def test_unknown_key_or_section_rejected(self, text, named):
        with pytest.raises(ValueError, match=named):
            parse_scenario(text)

    @pytest.mark.parametrize("text, named", [
        ("[target]\nrate = 0\n", r"\[target\] rate"),
        ("[target]\nrate = -30\n", r"\[target\] rate"),
        ("[target]\nrate = inf\n", r"\[target\] rate"),
        ("[target]\nrate = nan\n", r"\[target\] rate"),
        ("[target]\nrate = 2000000\n",
         r"\[target\] rate must be positive and at most 1000000"),
        ("[client:a]\nfps = 0\n", r"\[client:a\] fps"),
        ("[client:a]\nfps = -1\n", r"\[client:a\] fps"),
        ("[client:a]\nfps = inf\n", r"\[client:a\] fps"),
        ("[client:a]\nfps = nan\n", r"\[client:a\] fps"),
        ("[client:a]\nmin_fps = -0.5\n", r"\[client:a\] min_fps"),
        ("[client:a]\nmin_fps = inf\n", r"\[client:a\] min_fps"),
        ("[client:a]\nmin_fps = nan\n", r"\[client:a\] min_fps"),
        ("[client:a]\ncomplexity = 0\n", r"\[client:a\] complexity"),
        ("[client:a]\ncomplexity = -2\n", r"\[client:a\] complexity"),
        ("[client:a]\nfaults = slow-to:0@1\n", "slow-to fps"),
        ("[client:a]\nfaults = crash@nan\n",
         "'faults'.*crash time must be finite and not negative, got nan"),
        ("[client:a]\nfaults = crash@inf\n", "crash time must be finite"),
        ("[client:a]\nfaults = garbage-header@-1\n",
         "garbage-header time must be finite and not negative"),
        ("[client:a]\nfaults = stall@1:-5\n",
         "'faults'.*stall duration must be positive and finite"),
        ("[client:a]\nfaults = stall@1:0\n", "stall duration must be positive"),
        ("[client:a]\nfaults = stall@1:nan\n", "stall duration must be positive"),
        ("[client:a]\nqueue_depth = 0\n", r"\[client:a\] queue depth"),
        ("[client:a]\nqueue_depth = 1\n",
         r"\[client:a\] queue depth: frameCount 1 outside 2\.\.8"),
        ("[client:a]\nqueue_depth = 9\n", r"\[client:a\] queue depth"),
        ("[client:a]\ntimeout = 0\n", r"\[client:a\] timeout"),
        ("[client:a]\ntimeout = inf\n", r"\[client:a\] timeout"),
        ("[client:a]\nfps = 48\ntimeout = 0.01\n",
         r"\[client:a\] timeout 10000us below two frame periods"),
        ("[client:a]\nwidth = 0\n", r"\[client:a\] width"),
        ("[client:a]\nfps = 1e12\n",
         r"\[client:a\] framerate 1000000000000 does not fit its u32"),
        ("[client:a]\ntimeout = 1e20\n",
         r"\[client:a\] timeout_us \d+ does not fit its u64 header word"),
        ("[client:a]\ntimeout = 1e303\n", r"\[client:a\] timeout must be"),
        ("[run]\nduration = -1\n", r"\[run\] duration"),
        ("[run]\nduration = 0\n", r"\[run\] duration"),
        ("[run]\nduration = inf\n", r"\[run\] duration"),
        ("[run]\nwatchdog_poll = 0\n", r"\[run\] watchdog_poll"),
        ("[target]\nwidth = 0\n", r"\[target\] width"),
        ("[target]\nheight = -1\n", r"\[target\] height"),
        ("[client:a]\nx = 2000\n", r"\[client:a\] x .* target width 1600"),
        ("[client:a]\ny = -1\n", r"\[client:a\] y must be at least 0"),
        ("[client:a]\nwidth = 2000\nheight = 64\n",
         r"\[client:a\] x .* x \+ width \(2000\)"),
        ("[target]\nwidth = 512\n[client:a]\n", r"\[client:a\] x .* 512"),
        ("[client:a]\n[client:b]\nx = 700\n",
         r"\[client:b\] placement .* overlaps \[client:a\]"),
        ("[client:a]\nwidget = counters\nwidth = 32\nheight = 64\n",
         r"\[client:a\] width must be at least 64"),
        ("[client:a]\nwidget = countres\n",
         r"\[client:a\] widget must be one of pattern, counters"),
        ("[run]\nclock = walll\n", r"\[run\] clock must be one of sim, wall"),
        ("[run]\nsink = bogus\n",
         r"\[run\] sink must be one of null, checksum, images"),
        ("[run]\nsink = images\n", r"\[run\] sink_dir must be set"),
        ("[target]\nbackground = -1\n", r"\[target\] background"),
        ("[target]\nbackground = 0x1ffffffff\n", r"\[target\] background"),
    ], ids=["rate-0", "rate-negative", "rate-inf", "rate-nan",
            "rate-above-1e6", "fps-0",
            "fps-negative", "fps-inf", "fps-nan", "min-fps-negative",
            "min-fps-inf", "min-fps-nan", "complexity-0",
            "complexity-negative", "slow-to-fps-0", "fault-time-nan",
            "fault-time-inf", "fault-time-negative", "stall-duration-negative",
            "stall-duration-0", "stall-duration-nan", "queue-depth-0",
            "queue-depth-1", "queue-depth-9", "timeout-0", "timeout-inf",
            "timeout-below-two-periods", "width-0", "fps-over-u32",
            "timeout-over-u64", "timeout-overflows-float", "duration-negative",
            "duration-0", "duration-inf", "watchdog-poll-0", "target-width-0",
            "target-height-negative", "x-outside-target", "y-negative",
            "wider-than-target", "client-wider-than-small-target",
            "overlapping-placements", "counters-below-min-side",
            "widget-misspelt", "clock-misspelt", "sink-unknown",
            "images-sink-without-dir", "background-negative",
            "background-over-u32"])
    def test_out_of_range_value_rejected(self, text, named):
        with pytest.raises(ValueError, match=named):
            parse_scenario(text)

    def test_spec_checks_values_when_built(self):
        with pytest.raises(ValueError, match=r"\[client:a\] fps"):
            ClientSpec("a", fps=0.0)
        with pytest.raises(ValueError, match=r"\[target\] rate"):
            replace(TargetSpec(), rate=0.0)
        # Zero min_fps is a client no frame rate disconnects.
        assert ClientSpec("a", min_fps=0.0).min_fps == 0.0

    @pytest.mark.parametrize("text, named", [
        ("no section header\n", "no section headers"),
        ("[client:a]\nfps = 1\nfps = 2\n", "'fps'"),
        ("[client:a]\nwidth = wide\n", "'width'"),
        ("[client:a]\nformat = RGB565\n", "'format'"),
        ("[client:a]\nfaults = explode@1\n", "'faults'"),
    ], ids=["no-header", "duplicate-key", "bad-int", "bad-format",
            "bad-fault"])
    def test_unparsable_text_raises_value_error(self, text, named):
        with pytest.raises(ValueError, match=named):
            parse_scenario(text)

    def test_defaults_from_empty_sections(self):
        config = parse_scenario("[target]\n[run]\n")
        assert config.target == TargetSpec()
        assert config.run == RunSpec()
        assert config.clients == ()

    @given(_faults)
    @settings(max_examples=100, deadline=None)
    def test_fault_action_round_trip(self, action):
        assert FaultAction.parse(action.serialize()) == action

    def test_stall_forever(self):
        assert FaultAction.parse("stall@1.5") == FaultAction("stall", 1.5)
        assert FaultAction.parse("stall@1.5:inf") == FaultAction("stall", 1.5)

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultAction("explode", 1.0)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match=r"\[run\] clock"):
            two_client_config(clock="lunar")

    def test_wall_engine_refused_off_x86_64(self, monkeypatch):
        # The frame protocol relies on x86-TSO store order between processes.
        monkeypatch.setattr(platform, "machine", lambda: "aarch64")
        with pytest.raises(ValueError, match=r"\[run\] clock must be sim "
                                             r"on this aarch64 host"):
            RunSpec(clock="wall")
        assert RunSpec(clock="sim").clock == "sim"


def _repository_ini_files():
    files = {p.name: p.read_text()
             for p in sorted((ROOT / "layerbench" / "workloads").glob("*.ini"))}
    (example,) = re.findall(r"```ini\n(.*?)```",
                            (ROOT / "README.md").read_text(), re.S)
    files["README.md"] = example
    return files


class TestRepositoryFiles:
    """Every scenario file in the repository parses strictly and
    round-trips through serialize."""

    @pytest.mark.parametrize("name", sorted(_repository_ini_files()))
    def test_parses_strictly_and_round_trips(self, name):
        config = parse_scenario(_repository_ini_files()[name])
        assert config.clients
        assert parse_scenario(config.serialize()) == config


class TestSimEngine:
    def test_baseline_counts(self):
        report = run_scenario(two_client_config())
        assert report.ok
        # 30 Hz target over one second
        assert report.server_frames == 30
        for result in report.clients.values():
            assert result.exit_status == "ok"
            assert result.disconnect is None
            # 48 fps producers into a depth-3 queue: a fresh frame for
            # nearly every compose
            assert 28 <= result.presented <= 30
            assert result.submitted >= 40

    def test_presented_is_the_compositors_count(self, monkeypatch):
        # Each client's presented is its descriptor's count of new takes,
        # which is the number of "new" outcomes its compose reports show.
        servers, new = set(), {}
        compose_once = CompositorServer.compose_once

        def counted_compose(server, now_us):
            report = compose_once(server, now_us)
            servers.add(server)
            for cr in report.clients:
                if cr.outcome == "new":
                    new[cr.client_id] = new.get(cr.client_id, 0) + 1
            return report

        monkeypatch.setattr(CompositorServer, "compose_once", counted_compose)
        config = two_client_config(a={"faults": (FaultAction("stall", 0.4),)})
        report = run_scenario(config)
        (server,) = servers
        assert report.clients["alpha"].disconnect is not None
        for spec, desc in zip(config.clients, server.clients.values()):
            assert report.clients[spec.name].presented == desc.presented \
                == new[desc.id] > 0

    def test_deterministic_replay(self):
        first = run_scenario(two_client_config(a={"widget": "counters"}))
        second = run_scenario(two_client_config(a={"widget": "counters"}))
        assert first.checksums == second.checksums
        assert first.to_json() == second.to_json()

    def test_stall_fault_trips_watchdog(self):
        config = two_client_config(
            duration_s=1.5,
            a={"faults": (FaultAction("stall", 0.4),)})
        report = run_scenario(config)
        alpha = report.clients["alpha"]
        assert alpha.disconnect is not None
        t_us, reason = alpha.disconnect
        assert reason == "watchdog"
        # deadline = last observed heartbeat + timeout, within one poll tick
        assert 600_000 <= t_us <= 650_000
        beta = report.clients["beta"]
        assert beta.disconnect is None and beta.presented >= 40

    def test_full_queue_keeps_heartbeat(self):
        # Compose every 0.5 s drains the queue less often than the 0.3 s
        # watchdog budget: a healthy 48 fps client spends most of each
        # period on a full queue and must stay connected.
        config = two_client_config(duration_s=2.0,
                                   a={"timeout_s": 0.3}, b={"timeout_s": 0.3})
        config = replace(config, target=replace(config.target, rate=2.0))
        report = run_scenario(config)
        for result in report.clients.values():
            assert result.disconnect is None
            assert result.exit_status == "ok"
            assert result.skipped > 0

    def test_crash_fault(self):
        config = two_client_config(
            duration_s=1.5,
            a={"faults": (FaultAction("crash", 0.3),)})
        report = run_scenario(config)
        alpha = report.clients["alpha"]
        assert alpha.exit_status == "crashed"
        assert alpha.disconnect is not None and alpha.disconnect[1] == "watchdog"
        assert report.clients["beta"].disconnect is None

    def test_garbage_header_fault(self):
        config = two_client_config(
            duration_s=1.0,
            a={"faults": (FaultAction("garbage-header", 0.3),)})
        report = run_scenario(config)
        alpha = report.clients["alpha"]
        assert alpha.disconnect is not None
        assert alpha.disconnect[1] == "fault"
        assert report.server_frames == 30  # server kept composing
        assert report.clients["beta"].disconnect is None

    def test_flip_status_fault(self):
        # Every slot's status turns invalid: the client's own next begin
        # fails (lost) and the server's next take disconnects it (fault).
        baseline = run_scenario(two_client_config(duration_s=1.0))
        config = two_client_config(
            duration_s=1.0,
            a={"faults": (FaultAction("flip-status", 0.3),)})
        report = run_scenario(config)
        alpha, beta = report.clients["alpha"], report.clients["beta"]
        assert alpha.exit_status == "lost"
        assert alpha.disconnect is not None and alpha.disconnect[1] == "fault"
        assert report.server_frames == 30
        assert beta.disconnect is None
        assert beta.presented == baseline.clients["beta"].presented

    def test_slow_to_fault_trips_fps_policy(self):
        config = two_client_config(
            duration_s=4.0,
            a={"min_fps": 20.0, "timeout_s": 2.0,
               "faults": (FaultAction("slow-to", 0.5, fps=5.0),)},
            b={"min_fps": 20.0})
        report = run_scenario(config)
        alpha = report.clients["alpha"]
        assert alpha.disconnect is not None and alpha.disconnect[1] == "low-fps"
        assert report.clients["beta"].disconnect is None

    # Recorded from the engine before both engines shared one event loop:
    # (server_frames, {client: (presented, submitted, disconnect)},
    # sha256 of the JSON checksum list). Pattern clients only, so no
    # floating-point rendering is involved; this pins the event order.
    GOLDEN = {
        None: (90, {"a": (90, 145, None), "b": (90, 145, None)},
               "5af8ddf4d2b9e5dfb4ee287e49c7e6c42e274aa4c65ac8c41bc12ab76f4812dd"),
        "stall": (90, {"a": (30, 49, (1510000, "watchdog")),
                       "b": (90, 145, None)},
                  "6ef9cadd9b2a20870a4afad35f2f417a735c98b0a1de95b0fb7f390745e45b79"),
        "crash": (90, {"a": (30, 49, (1510000, "watchdog")),
                       "b": (90, 145, None)},
                  "6ef9cadd9b2a20870a4afad35f2f417a735c98b0a1de95b0fb7f390745e45b79"),
        "garbage-header": (90, {"a": (30, 50, (1033323, "fault")),
                                "b": (90, 145, None)},
                           "87e57c82f2cc17ea42e685d5848b434cc3a22255512d018819ad4ee146a97f2d"),
        "slow-to": (90, {"a": (46, 65, (2566641, "low-fps")),
                         "b": (90, 145, None)},
                    "2fd04c52e2f601c3af88d4567047b9c329a28969ba62dc606c17f0ba603e0293"),
    }

    @pytest.mark.parametrize("fault", list(GOLDEN))
    def test_golden_containment_runs(self, fault):
        actions = {"stall": FaultAction("stall", 1.0),
                   "crash": FaultAction("crash", 1.0),
                   "garbage-header": FaultAction("garbage-header", 1.0),
                   "slow-to": FaultAction("slow-to", 1.0, fps=10.0)}
        report = run_scenario(_containment_config(actions.get(fault)))
        frames, clients, digest = self.GOLDEN[fault]
        assert report.server_frames == frames
        assert {name: (c.presented, c.submitted, c.disconnect)
                for name, c in report.clients.items()} == clients
        assert hashlib.sha256(
            json.dumps(report.checksums).encode()).hexdigest() == digest

    # SHA-256 of the JSON checksum list of each benchmark workload file run
    # for 3 s of simulated time, recorded while every tick still repainted
    # and checksummed the whole target. The counters widget renders with
    # floating point, so reference-2x768 pins this host's numpy as well.
    WORKLOAD_GOLDEN = {
        "faults-4x384":
            "da2375146bd92203101f51c30f79572279edf43c3f19992c5c375921aae95990",
        "mosaic-8x384":
            "e64a1fe6790d640ec9521404ea01378717cd699da4cb714fa19d76a4eff011c5",
        "reference-2x768":
            "c888880084e59bb9c654ca0f9982fcb80ad46d117e9319564aeffd602738c220",
    }

    @pytest.mark.parametrize("name", sorted(WORKLOAD_GOLDEN))
    def test_golden_workload_files(self, name):
        path = (Path(__file__).resolve().parents[1] / "layerbench" / "workloads"
                / f"{name}.ini")
        config = load_scenario(path)
        config = replace(config, run=replace(config.run, duration_s=3.0,
                                             clock="sim"))
        report = run_scenario(config)
        assert report.server_frames == 180
        assert hashlib.sha256(
            json.dumps(report.checksums).encode()).hexdigest() \
            == self.WORKLOAD_GOLDEN[name]

    def test_image_sink_produces_replayable_index(self, tmp_path):
        config = two_client_config(duration_s=0.2, sink="images",
                                   sink_dir=str(tmp_path))
        report = run_scenario(config)
        assert report.index_path is not None
        from fbcomp.sinks import replay_index
        assert replay_index(report.index_path) == []


class TestWallEngine:
    def test_smoke(self):
        config = two_client_config(duration_s=0.6, clock="wall", sink="null")
        report = run_scenario(config)
        assert report.ok, report.violations
        assert report.server_frames >= 10
        for result in report.clients.values():
            assert result.exit_status == "ok"
            assert result.submitted > 0
            assert result.presented > 0
            assert result.disconnect is None

    def test_crashed_client_contained(self):
        # One partition dies mid-run; the server notices via the watchdog
        # and the surviving partition is unaffected.
        config = two_client_config(
            duration_s=1.2, clock="wall", sink="null",
            a={"faults": (FaultAction("crash", 0.2),)})
        report = run_scenario(config)
        assert report.ok, report.violations
        alpha = report.clients["alpha"]
        assert alpha.exit_status == "crashed"
        assert alpha.disconnect is not None and alpha.disconnect[1] == "watchdog"
        beta = report.clients["beta"]
        assert beta.exit_status == "ok" and beta.disconnect is None
        assert beta.submitted > 0
        # Its region still shows the frames it submitted before the crash.
        assert alpha.submitted > 0 and alpha.skipped >= 0

    def test_watchdog_polled_between_compose_ticks(self):
        # A 5 Hz compose must not quantize watchdog decisions to 200 ms:
        # the crash at 0.3 s plus the 0.3 s timeout fires at about 0.6 s.
        config = two_client_config(
            duration_s=1.2, clock="wall", sink="null",
            a={"timeout_s": 0.3, "faults": (FaultAction("crash", 0.3),)},
            b={"timeout_s": 0.3})
        config = replace(config, target=replace(config.target, rate=5.0))
        report = run_scenario(config)
        assert report.ok, report.violations
        alpha = report.clients["alpha"]
        assert alpha.exit_status == "crashed"
        assert alpha.disconnect is not None
        t_us, reason = alpha.disconnect
        assert reason == "watchdog"
        assert t_us < 700_000

    def test_disconnected_client_reports_lost(self):
        config = two_client_config(
            duration_s=1.0, clock="wall", sink="null",
            a={"faults": (FaultAction("garbage-header", 0.3),)})
        report = run_scenario(config)
        assert report.ok, report.violations
        alpha = report.clients["alpha"]
        assert alpha.disconnect is not None
        assert alpha.exit_status == "lost"
        assert report.clients["beta"].exit_status == "ok"

    def test_header_scribbled_at_start_contained(self, monkeypatch):
        # Every region is registered before its client starts, so a client
        # that corrupts its header at once is disconnected, not refused,
        # however slow the registration.
        register_client = CompositorServer.register_client

        def slow_register(self, *args, **kw):
            time.sleep(0.05)
            return register_client(self, *args, **kw)

        monkeypatch.setattr(CompositorServer, "register_client", slow_register)
        config = two_client_config(
            duration_s=0.4, clock="wall", sink="null",
            a={"faults": (FaultAction("garbage-header", 0.0),)})
        report = run_scenario(config)
        assert report.ok, report.violations
        alpha = report.clients["alpha"]
        assert alpha.disconnect is not None and alpha.disconnect[1] == "fault"
        assert alpha.exit_status == "lost"
        assert report.clients["beta"].exit_status == "ok"

    def test_client_name_reaches_no_file_name(self):
        # Regions are named by index and counts are read from them, so a
        # name with '/' or too long for a file name runs like any other.
        long_name = "x" * 300
        config = parse_scenario(
            "[target]\nwidth = 256\nheight = 128\n"
            "[run]\nclock = wall\nsink = null\nduration = 0.6\n"
            "[client:a/b]\nwidth = 64\nheight = 64\n"
            f"[client:{long_name}]\nx = 128\nwidth = 64\nheight = 64\n")
        report = run_scenario(config)
        assert report.ok, report.violations
        assert sorted(report.clients) == ["a/b", long_name]
        for result in report.clients.values():
            assert result.exit_status == "ok"
            assert result.presented > 0

    def test_target_pixels_match_client_frames_across_processes(
            self, monkeypatch):
        # Frames drawn in forked clients, read by the server through the
        # read-only mapping, native and converted, beside a garbage-header
        # and a stalled client: every 7th composed target is checked
        # against plain numpy in the calling process, which is the server.
        fmt = PixelFormat.B8G8R8A8
        config = ScenarioConfig(
            target=TargetSpec(width=320, height=80, format=fmt, rate=60),
            run=RunSpec(duration_s=1.0, clock="wall", sink="null"),
            clients=tuple(ClientSpec(
                name, width=64, height=64, x=80 * i, y=8, fps=fps,
                timeout_s=0.2, format=f, faults=faults)
                for i, (name, f, fps, faults) in enumerate([
                    ("native", fmt, 48, ()),
                    ("converted", PixelFormat.A8R8G8B8, 20, ()),
                    ("garbage", fmt, 48, (FaultAction("garbage-header", 0.3),)),
                    ("stall", PixelFormat.A8R8G8B8, 48,
                     (FaultAction("stall", 0.2),))])))
        compose_once = CompositorServer.compose_once
        problems, outcomes, ticks = [], set(), [0]

        def checked_compose(server, now_us):
            report = compose_once(server, now_us)
            ticks[0] += 1
            if ticks[0] % 7 == 0:
                problems.extend(_target_problems(config, server.target, report))
                outcomes.update((config.clients[cr.client_id - 1].name,
                                 cr.outcome) for cr in report.clients)
            return report

        monkeypatch.setattr(CompositorServer, "compose_once", checked_compose)
        report = run_scenario(config)
        assert report.ok, report.violations
        assert problems == []
        assert {("native", "new"), ("converted", "new"),
                ("converted", "held"), ("garbage", "disconnected"),
                ("stall", "disconnected")} <= outcomes

    def test_bug_in_a_client_process_is_a_violation(self, monkeypatch):
        # A client process that raises anything but a FramebufferError
        # exits with code 1, which no fault script explains.
        def render_bug(surface, n):
            raise RuntimeError("render bug")

        monkeypatch.setattr(widgets, "render_pattern", render_bug)
        config = two_client_config(duration_s=0.3, clock="wall", sink="null")
        report = run_scenario(config)
        assert not report.ok
        assert report.violations == [
            f"client {name}: process exit code 1" for name in ("alpha", "beta")]

    def test_server_bug_propagates_and_cleans_up(self, monkeypatch):
        created = []
        create_region = regions.create_region
        monkeypatch.setattr(regions, "create_region", lambda name, size: (
            created.append(name) or create_region(name, size)))

        def compose_bug(self, now_us):
            raise RuntimeError("compose bug")

        monkeypatch.setattr(CompositorServer, "compose_once", compose_bug)
        config = two_client_config(duration_s=0.6, clock="wall", sink="null")
        with pytest.raises(RuntimeError, match="compose bug"):
            run_scenario(config)
        assert len(created) == 2
        for name in created:
            with pytest.raises(FileNotFoundError):
                regions.open_region(name)
        assert multiprocessing.active_children() == []

    def test_each_client_maps_only_its_own_region(self, monkeypatch, tmp_path):
        # Runs in each forked client: record the regions this process maps.
        def record_maps(surface, n):
            out = tmp_path / f"{os.getpid()}.maps"
            if not out.exists():
                out.write_text("\n".join(
                    line.split(maxsplit=5)[5]
                    for line in Path("/proc/self/maps").read_text().splitlines()
                    if "/fbcomp-" in line))

        monkeypatch.setattr(widgets, "render_pattern", record_maps)
        config = ScenarioConfig(
            target=TargetSpec(width=256, height=64, rate=30),
            run=RunSpec(duration_s=0.4, clock="wall", sink="null"),
            clients=tuple(ClientSpec(name, width=64, height=64, x=80 * i)
                          for i, name in enumerate("abc")))
        report = run_scenario(config)
        assert report.ok, report.violations
        mapped = [set(path.read_text().splitlines())
                  for path in tmp_path.glob("*.maps")]
        assert len(mapped) == 3
        assert all(len(paths) == 1 for paths in mapped)
        assert len(set.union(*mapped)) == 3


def _unique(prefix: str) -> str:
    """A region session name no other run can hold, as `_run_wall` picks."""
    return f"{prefix}-{uuid.uuid4().hex[:12]}"


class TestSharedRegions:
    def test_readonly_mapping_rejects_writes(self):
        name = regions.region_name(_unique("test-ro"), "x")
        region = regions.create_region(name, 8192)
        try:
            view = memoryview(region.readonly_buf)
            assert view.readonly
            with pytest.raises(TypeError):
                region.readonly_buf[0] = 1
        finally:
            region.close()
            regions.unlink_region(region.name)

    def test_writes_visible_through_readonly_mapping(self):
        name = regions.region_name(_unique("test-vis"), "x")
        region = regions.create_region(name, 8192)
        try:
            region.buf[100:104] = b"\x01\x02\x03\x04"
            assert bytes(region.readonly_buf[100:104]) == b"\x01\x02\x03\x04"
        finally:
            region.close()
            regions.unlink_region(region.name)

    def test_taken_name_refused_and_first_region_kept(self):
        name = regions.region_name(_unique("test-twice"), "x")
        first = regions.create_region(name, 8192)
        try:
            first.buf[100:104] = b"\x01\x02\x03\x04"
            with pytest.raises(FileExistsError):
                regions.create_region(name, 4096)
            opened = regions.open_region(name)
            try:
                assert opened.size == 8192
                assert bytes(opened.buf[100:104]) == b"\x01\x02\x03\x04"
            finally:
                opened.close()
        finally:
            first.close()
            regions.unlink_region(name)

    def test_open_missing_region(self):
        with pytest.raises(FileNotFoundError):
            regions.open_region(regions.region_name(_unique("test-none"), "y"))
