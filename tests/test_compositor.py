import random
import struct
import uuid

import numpy as np
import pytest

from fbcomp import regions, shm
from fbcomp.client import connect_session
from fbcomp.clock import SimClock
from fbcomp.compositor import (ClientState, CompositionTarget, CompositorServer,
                               INDICATOR_COLOR, INDICATOR_FILL)
from fbcomp.errors import (IncompatibleProtocol, PlacementConflict,
                           PresentFailure, SessionLost)
from fbcomp.frame_queue import STATUS_RECORD_SIZE, FrameState
from fbcomp.pixel import (PixelFormat, Rect, Surface, SurfaceGeometry, blit,
                          compute_pitch, pack_channels)
from fbcomp.sinks import ChecksumSink, frame_checksum
from fbcomp.widgets import render_pattern

TIMEOUT_US = 200_000


def make_server(width=400, height=300, clock=None, sink=None):
    clock = clock or SimClock()
    sink = sink if sink is not None else ChecksumSink()
    geometry = SurfaceGeometry(width, height, compute_pitch(width, PixelFormat.R8G8B8A8))
    target = CompositionTarget(geometry, PixelFormat.R8G8B8A8,
                               background=0x101010FF)
    return CompositorServer(target, sink, clock), sink


def make_client(clock, width=64, height=64, fmt=PixelFormat.R8G8B8A8,
                depth=3, timeout_us=TIMEOUT_US, framerate=30):
    config = shm.RegionConfig(
        geometry=SurfaceGeometry(width, height, compute_pitch(width, fmt)),
        formats=(fmt,), framerate=framerate, timeout_us=timeout_us,
        queue_depth=depth, frame_padding=64)
    buf, _ = shm.allocate_region(config)
    shm.publish(buf)
    return buf, connect_session(buf, clock)


def forge_slot(buf, index, status, sequence):
    """Overwrite one slot's status record, as a client may."""
    offset = shm.read_header(buf).frame_offset + index * STATUS_RECORD_SIZE
    struct.pack_into("<I4xQ", buf, offset, int(status), sequence)


def forge_ready_sequence(buf, session, sequence):
    """Overwrite the sequence of the client's READY slot, as a client may."""
    header = shm.read_header(buf)
    (index,) = [i for i, st in enumerate(session.queue.statuses())
                if st is FrameState.READY]
    struct.pack_into("<Q", buf,
                     header.frame_offset + index * STATUS_RECORD_SIZE + 8, sequence)


def old_crosshatch(fmt, width, height):
    """Reference crosshatch from a per-pixel mask, as compose drew it on every tick."""
    fill = np.frombuffer(pack_channels(fmt, *INDICATOR_FILL).to_bytes(4, "little"),
                         np.uint8)
    line = np.frombuffer(pack_channels(fmt, *INDICATOR_COLOR).to_bytes(4, "little"),
                         np.uint8)
    px = np.empty((height, width, 4), np.uint8)
    px[:] = fill
    yy, xx = np.mgrid[0:height, 0:width]
    mask = (((xx + yy) % 16) < 2) | (((xx - yy) % 16) < 2)
    px[mask] = line
    return px


class FailOnceSink(ChecksumSink):
    """A checksum sink whose next present raises while `fail` is set."""

    fail = False

    def present(self, surface, now_us):
        if self.fail:
            self.fail = False
            raise OSError("display unplugged")
        super().present(surface, now_us)


def fill_drawing_slot(session, pixel=0xFFFFFFFF):
    """Write into the slot the server holds, as a client may."""
    (index,) = [i for i, st in enumerate(session.queue.statuses())
                if st is FrameState.DRAWING]
    session.queue.surface(index).fill(pixel)


def submit(session, index):
    surface = session.try_begin_frame()
    assert surface is not None
    render_pattern(surface, index)
    session.end_frame()


class TestRegister:
    def test_two_side_by_side_clients(self):
        clock = SimClock()
        server, _ = make_server(1600, 900, clock)
        a_buf, _ = make_client(clock, 768, 768)
        b_buf, _ = make_client(clock, 768, 768)
        da = server.register_client(a_buf, Rect(16, 66, 768, 768), 30)
        db = server.register_client(b_buf, Rect(816, 66, 768, 768), 30)
        assert da.state is ClientState.ACTIVE and db.state is ClientState.ACTIVE

    def test_one_pixel_overlap_conflict(self):
        clock = SimClock()
        server, _ = make_server(1600, 900, clock)
        a_buf, _ = make_client(clock, 768, 768)
        b_buf, _ = make_client(clock, 768, 768)
        server.register_client(a_buf, Rect(16, 66, 768, 768), 30)
        with pytest.raises(PlacementConflict):
            server.register_client(b_buf, Rect(783, 66, 768, 768), 30)

    def test_out_of_bounds_placement(self):
        clock = SimClock()
        server, _ = make_server(1600, 900, clock)
        buf, _ = make_client(clock, 768, 768)
        with pytest.raises(ValueError):
            server.register_client(buf, Rect(900, 66, 768, 768), 30)

    def test_corrupt_region_rejected_with_report(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, _ = make_client(clock)
        buf[4] ^= 0xFF  # break the magic
        with pytest.raises(IncompatibleProtocol, match="magic"):
            server.register_client(buf, Rect(0, 0, 64, 64), 1)


class TestCompose:
    def test_two_ready_clients_both_blitted(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock)
        b_buf, b = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        db = server.register_client(b_buf, Rect(100, 0, 64, 64), 1)
        submit(a, 1)
        submit(b, 2)
        rep = server.compose_once(clock.now_us())
        by_id = {r.client_id: r for r in rep.clients}
        assert by_id[da.id].outcome == "new" and by_id[da.id].sequence == 1
        assert by_id[db.id].outcome == "new" and by_id[db.id].sequence == 1
        px = server.target.surface.pixels()
        assert px[0, 0, 0] == 1      # pattern frame 1 from client a
        assert px[0, 100, 0] == 2    # pattern frame 2 from client b

    def test_held_frame_redrawn_when_no_new(self):
        clock = SimClock()
        server, sink = make_server(clock=clock)
        a_buf, a = make_client(clock)
        server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        submit(a, 7)
        first = server.compose_once(clock.now_us())
        assert first.clients[0].outcome == "new"
        checksum_1 = sink.checksums()[-1]
        second = server.compose_once(clock.now_us())
        assert second.clients[0].outcome == "held"
        assert second.clients[0].sequence == first.clients[0].sequence
        assert sink.checksums()[-1] == checksum_1

    def test_zero_clients_background_frame(self):
        server, sink = make_server()
        rep = server.compose_once(0)
        assert rep.clients == []
        assert sink.count == 1
        px = server.target.surface.pixels()
        assert tuple(px[0, 0]) == (0x10, 0x10, 0x10, 0xFF)

    def test_flush_policy_presents_newest(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock)
        server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        for i in range(3):
            submit(a, i)
        rep = server.compose_once(clock.now_us())
        assert rep.clients[0].sequence == 3

    def test_format_conversion_on_compose(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, session = make_client(clock, fmt=PixelFormat.B8G8R8A8)
        server.register_client(buf, Rect(0, 0, 64, 64), 1)
        surface = session.try_begin_frame()
        surface.fill(pack_channels(PixelFormat.B8G8R8A8, 10, 20, 30, 255))
        session.end_frame()
        server.compose_once(clock.now_us())
        # target is R8G8B8A8: channels must come out by name, not by position
        assert tuple(server.target.surface.pixels()[0, 0]) == (10, 20, 30, 255)

    def test_presented_counts_new_takes_only(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        # (frames submitted before the tick, its outcome, presented after)
        for frames, outcome, presented in ((0, "empty", 0), (1, "new", 1),
                                           (0, "held", 1), (2, "new", 2),
                                           (1, "new", 3), (0, "held", 3)):
            for i in range(frames):
                submit(a, i)
            rep = server.compose_once(clock.now_us())
            assert rep.clients[0].outcome == outcome
            assert da.presented == presented
        submit(a, 9)
        server.disconnect(da, "watchdog", clock.now_us())
        for _ in range(2):
            assert server.compose_once(clock.now_us()).clients[0].outcome \
                == "disconnected"
        assert da.presented == 3

    def test_take_in_a_failed_present_is_counted(self):
        # The target keeps a frame taken in a tick whose present fails,
        # and the next present shows it.
        clock = SimClock()
        server, sink = make_server(clock=clock, sink=FailOnceSink())
        a_buf, a = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)
        sink.fail = True
        with pytest.raises(PresentFailure):
            server.compose_once(clock.now_us())
        assert da.presented == 1
        assert server.compose_once(clock.now_us()).clients[0].outcome == "held"
        assert da.presented == 1 and sink.count == 1

    def test_pixels_read_only_without_a_pixel_mapping(self):
        # With no pixel_buf the server still reads every slot's pixels
        # through a read-only view, and drives the status records.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        assert not any(da.queue.surface(i).writable
                       for i in range(da.queue.depth))
        submit(a, 5)
        assert server.compose_once(clock.now_us()).clients[0].outcome == "new"
        assert a.queue.statuses().count(FrameState.DRAWING) == 1
        assert server.target.surface.pixels()[0, 0, 0] == 5

    def test_two_format_region_uses_first_format(self):
        # Registered before the client attaches, as every scenario does:
        # server and client must both read frames as formats[0].
        clock = SimClock()
        server, _ = make_server(clock=clock)
        config = shm.RegionConfig(
            geometry=SurfaceGeometry(64, 64, compute_pitch(64, PixelFormat.B8G8R8A8)),
            formats=(PixelFormat.B8G8R8A8, PixelFormat.R8G8B8A8), framerate=30,
            timeout_us=TIMEOUT_US, queue_depth=2, frame_padding=64)
        buf, _ = shm.allocate_region(config)
        shm.publish(buf)
        server.register_client(buf, Rect(0, 0, 64, 64), 1)
        session = connect_session(buf, clock)
        assert session.queue.format is PixelFormat.B8G8R8A8
        surface = session.try_begin_frame()
        surface.fill(pack_channels(PixelFormat.B8G8R8A8, 255, 0, 0, 255))
        session.end_frame()
        server.compose_once(clock.now_us())
        assert tuple(server.target.surface.pixels()[0, 0]) == (255, 0, 0, 255)

    def test_client_pixels_visible_through_readonly_cached_view(self):
        # The server reads pixels through its own read-only mapping of the
        # region and keeps one surface per slot across takes; every take
        # must still show what the client last wrote through its mapping.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        config = shm.RegionConfig(
            geometry=SurfaceGeometry(64, 64, compute_pitch(64, PixelFormat.R8G8B8A8)),
            formats=(PixelFormat.R8G8B8A8,), framerate=30,
            timeout_us=TIMEOUT_US, queue_depth=2, frame_padding=64)
        name = regions.region_name(f"test-cache-{uuid.uuid4().hex[:12]}", "x")
        region = regions.create_region(name, shm.required_region_size(config))
        mapping = None
        try:
            shm.encode_header(config, region.buf)
            shm.publish(region.buf)
            desc = server.register_client(region.buf, Rect(0, 0, 64, 64), 1,
                                          pixel_buf=region.readonly_buf)
            mapping = regions.open_region(name)
            session = connect_session(mapping.buf, clock)
            seen = set()
            for i in range(6):
                submit(session, i)
                rep = server.compose_once(clock.now_us())
                assert rep.clients[0].outcome == "new"
                held = desc.queue.held
                assert not held.surface.writable
                assert held.surface is desc.queue.surface(held.index)
                seen.add(held.index)
                expected = Surface.allocate(desc.queue.geometry, PixelFormat.R8G8B8A8)
                render_pattern(expected, i)
                assert np.array_equal(server.target.surface.pixels()[:64, :64],
                                      expected.pixels()), i
            assert seen == {0, 1}
        finally:
            if mapping is not None:
                mapping.close()
            region.close()
            regions.unlink_region(region.name)


class TestWatchdog:
    def test_silent_client_disconnected_after_timeout(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        clock.advance_to(TIMEOUT_US + 1)
        events = server.check_watchdogs(clock.now_us())
        assert [e.client_id for e in events] == [desc.id]
        assert desc.state is ClientState.DISCONNECTED

    def test_steady_client_never_disconnected(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock)
        server.register_client(buf, Rect(0, 0, 64, 64), 1)
        period = 33_000  # ~30 fps against a 200 ms timeout
        consumer_side = server.clients[1].queue
        for _ in range(10_000):
            clock.sleep_us(period)
            a.heartbeat()
            assert server.check_watchdogs(clock.now_us()) == []

    def test_stall_shorter_than_timeout_survives(self):
        # Discrete-event schedule: timeout = 3 periods, client stalls
        # exactly 2 periods then resumes; must stay connected.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        period = 33_000
        buf, a = make_client(clock, timeout_us=3 * period)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        schedule = [1, 1, 1, 0, 0, 1, 1, 1, 0, 0, 1, 1]  # 1 = frame submitted
        for beat in schedule:
            clock.sleep_us(period)
            if beat:
                a.heartbeat()
            server.check_watchdogs(clock.now_us())
        assert desc.state is ClientState.ACTIVE

    def test_disconnected_region_abandoned(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)
        server.compose_once(clock.now_us())
        server.check_watchdogs(clock.now_us())  # observe the heartbeat
        clock.advance_to(TIMEOUT_US + 1)
        server.check_watchdogs(clock.now_us())
        rep = server.compose_once(clock.now_us())
        assert rep.clients[0].outcome == "disconnected"
        assert shm.read_detach_flag(buf, desc.header) == 1


class TestFramerate:
    def _client_with_rate(self, fps, min_fps, duration_s=4.0):
        return self._run_with_rate(fps, min_fps, duration_s)[1]

    def _run_with_rate(self, fps, min_fps, duration_s=4.0, forge_step=0):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, timeout_us=10_000_000)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), min_fps)
        period = int(1e6 / fps)
        t = forged = 0
        while t < duration_s * 1e6:
            t += period
            clock.advance_to(t)
            try:
                if a.try_begin_frame() is not None:
                    a.end_frame()
                    if forge_step:
                        forged += forge_step
                        forge_ready_sequence(buf, a, forged)
            except SessionLost:
                pass  # server already cut this client loose
            server.compose_once(t)
            server.check_framerates(t)
        return server, desc

    def test_48fps_client_with_min_30_kept(self):
        desc = self._client_with_rate(48, 30)
        assert desc.state is ClientState.ACTIVE

    def test_10fps_client_with_min_30_disconnected(self):
        desc = self._client_with_rate(10, 30)
        assert desc.state is ClientState.DISCONNECTED

    def test_exactly_min_fps_kept(self):
        # threshold is strict "below": exactly min_fps stays connected
        desc = self._client_with_rate(25, 25)
        assert desc.state is ClientState.ACTIVE

    def test_forged_sequence_jump_still_low_fps(self):
        # Each frame claims 10**9 more sequences than the last. The server
        # counts at most `depth` frames per take, so a 5 fps client with a
        # depth-3 queue shows at most 15 fps and stays below 30.
        server, desc = self._run_with_rate(5, 30, forge_step=10**9)
        assert desc.state is ClientState.DISCONNECTED
        assert [e.reason for e in server.events] == ["low-fps"]

    def test_backwards_sequence_adds_nothing(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 30)
        submit(a, 1)
        submit(a, 2)
        server.compose_once(clock.now_us())
        assert desc.fps_window[-1][1] == 2
        submit(a, 3)
        forge_ready_sequence(buf, a, 1)
        server.compose_once(clock.now_us())
        assert desc.fps_window[-1][1] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_running_count_matches_window_sum(self, seed):
        # Several hundred ticks of random submit counts, forged and
        # backward sequences, checks exactly at the window edge and, after
        # each disconnect, a fresh region on a fresh server. The running
        # count must equal the window's sum, and every decision the sum's.
        rng = random.Random(seed)
        window = CompositorServer.fps_window_us
        min_fps = 4 * 1e6 / window   # four frames a window keep a client
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, depth=3, timeout_us=10_000_000)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), min_fps)
        entries = []              # (t, frames) as the old code summed them
        seen = dict.fromkeys(("keep", "disconnect", "edge", "forged",
                              "backward", "restart"), 0)
        t = 0
        for tick in range(400):
            if entries and rng.random() < 0.2:
                t = max(t + 1, entries[0][0] + window)   # drop it exactly
                seen["edge"] += entries[0][0] + window == t
            else:
                t += rng.randrange(window // 40, window // 5)
            clock.advance_to(t)
            if desc.state is ClientState.DISCONNECTED:
                server, _ = make_server(clock=clock)
                buf, a = make_client(clock, depth=3, timeout_us=10_000_000)
                desc = server.register_client(buf, desc.placement, min_fps)
                entries = []
                seen["restart"] += 1
            for _ in range(rng.choice([0, 0, 1, 1, 1, 2, 3])):
                if a.try_begin_frame() is not None:
                    a.end_frame()
            ready = [i for i, st in enumerate(a.queue.statuses())
                     if st is FrameState.READY]
            roll = rng.random()
            if ready and roll < 0.10:
                # rewrite the newest READY slot's sequence
                index = max(ready, key=a.queue.sequence)
                if roll < 0.05:
                    forge_slot(buf, index, FrameState.READY,
                               desc.last_frame_seq + 10**6)
                    seen["forged"] += 1
                else:
                    forge_slot(buf, index, FrameState.READY,
                               max(desc.last_frame_seq - 2, 0))
                    seen["backward"] += 1
            rep = server.compose_once(t)
            if rep.clients[0].outcome == "new":
                entries.append(desc.fps_window[-1])
            if rng.random() < 0.02:
                server.disconnect(desc, "watchdog", t)
            active = desc.state is ClientState.ACTIVE
            if active:
                entries = [e for e in entries if e[0] > t - window]
            frames = sum(n for _, n in entries)
            if not active:
                expected = "disconnect"
            elif (t - desc.connected_at_us < window
                  or frames * 1e6 / window >= min_fps):
                expected = "keep"
            else:
                expected = "disconnect"
            events = server.check_framerates(t)
            decision = ("keep" if desc.state is ClientState.ACTIVE
                        else "disconnect")
            assert decision == expected, tick
            assert [(e.client_id, e.reason) for e in events] == (
                [(desc.id, "low-fps")] if active and decision == "disconnect"
                else []), tick
            assert list(desc.fps_window) == entries, tick
            assert desc.fps_frames == sum(n for _, n in desc.fps_window), tick
            if active:
                seen[decision] += 1
        assert all(seen.values()), seen

    def test_reconnect_first_take_counts_at_most_depth(self):
        # A region can carry 20 submitted frames before it is registered.
        # The first take counts only what came after registration.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, depth=3)
        consumer = shm.queue_view(buf, shm.read_header(buf))
        for i in range(20):
            submit(a, i)
            consumer.take_for_display()
        consumer.release_frame(consumer.held)   # hand the region over empty
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 30)
        assert desc.last_frame_seq == 20
        submit(a, 21)
        server.compose_once(clock.now_us())
        assert desc.fps_window[-1][1] == 1   # not min(21, depth)


class TestReconnect:
    """After a disconnect: the area, ids and the held slot."""

    def test_disconnected_id_not_registered_again(self):
        # No id comes back for another client, or events would mix them,
        # and every client stays in the table, in id order.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        ids = []
        for x in (0, 100, 200):
            buf, _ = make_client(clock)
            desc = server.register_client(buf, Rect(x, 0, 64, 64), 1)
            ids.append(desc.id)
            server.disconnect(desc, "watchdog", clock.now_us())
        other, _ = make_client(clock)
        ids.append(server.register_client(other, Rect(200, 200, 64, 64), 1).id)
        assert ids == sorted(set(ids))
        assert list(server.clients) == ids
        assert [(e.client_id, e.reason) for e in server.events] == \
            [(i, "watchdog") for i in ids[:3]]

    def test_register_over_disconnected_area_rejected(self):
        # disconnect -> crosshatch indicator -> a fresh region over all or
        # part of the area is refused, and nothing changes: the table, the
        # events, the next id and the indicator, for the rest of the run.
        clock = SimClock()
        server, sink = make_server(clock=clock)
        buf, a = make_client(clock)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 5)
        server.compose_once(clock.now_us())
        live_checksum = sink.checksums()[-1]

        server.check_watchdogs(clock.now_us())  # observe the heartbeat
        clock.advance_to(2 * TIMEOUT_US + 1)
        server.check_watchdogs(clock.now_us())
        server.compose_once(clock.now_us())
        indicator_checksum = sink.checksums()[-1]
        assert indicator_checksum != live_checksum
        target = server.target.surface
        assert np.array_equal(target.pixels()[:64, :64],
                              old_crosshatch(PixelFormat.R8G8B8A8, 64, 64))
        painted = target.pixels().copy()
        events = list(server.events)

        for rect in (desc.placement, Rect(32, 32, 64, 64)):
            new_buf, b = make_client(clock)
            with pytest.raises(PlacementConflict, match=f"client {desc.id}$"):
                server.register_client(new_buf, rect, 1)
            submit(b, 5)
        assert server.clients == {desc.id: desc}
        assert server.events == events
        for _ in range(2):
            rep = server.compose_once(clock.now_us())
            assert [(r.client_id, r.outcome) for r in rep.clients] == \
                [(desc.id, "disconnected")]
            assert target.damage == (0, 0)
            assert np.array_equal(target.pixels(), painted)
            assert sink.checksums()[-1] == indicator_checksum
        free_buf, _ = make_client(clock)
        assert server.register_client(free_buf, Rect(200, 0, 64, 64), 1).id == \
            desc.id + 1

    def test_disconnect_keeps_slot_statuses(self):
        # Nothing reads a disconnected region's slots again, so disconnect
        # writes no status: the held slot stays DRAWING, a READY frame
        # stays READY and an open frame stays UPDATING.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, depth=3)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)
        server.compose_once(clock.now_us())
        submit(a, 2)
        assert a.try_begin_frame() is not None
        before = a.queue.statuses()
        assert sorted(before) == [FrameState.UPDATING, FrameState.READY,
                                  FrameState.DRAWING]
        server.disconnect(desc, "watchdog", clock.now_us())
        assert a.queue.statuses() == before
        assert before[desc.queue.held.index] is FrameState.DRAWING
        assert [e.reason for e in server.events] == ["watchdog"]
        assert shm.read_detach_flag(buf, desc.header) == 1
        a.end_frame()
        with pytest.raises(SessionLost):
            a.try_begin_frame()


class TestPreservation:
    def test_last_frame_byte_identical_until_disconnect(self):
        # Client stops submitting but keeps heartbeating: its last frame
        # must be re-presented byte-identically every compose.
        clock = SimClock()
        server, sink = make_server(clock=clock)
        buf, a = make_client(clock)
        server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 3)
        server.compose_once(clock.now_us())
        golden = sink.checksums()[-1]
        for i in range(20):
            clock.sleep_us(TIMEOUT_US // 2)
            a.heartbeat()
            server.check_watchdogs(clock.now_us())
            rep = server.compose_once(clock.now_us())
            assert rep.clients[0].outcome == "held"
            assert sink.checksums()[-1] == golden


class TestIsolationUnit:
    def test_garbage_header_client_contained(self):
        clock = SimClock()
        server, sink = make_server(clock=clock)
        a_buf, a = make_client(clock)
        b_buf, b = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        db = server.register_client(b_buf, Rect(100, 0, 64, 64), 1)
        submit(b, 9)
        a_buf[:16] = b"\xde\xad\xbe\xef" * 4
        rep = server.compose_once(clock.now_us())
        by_id = {r.client_id: r for r in rep.clients}
        assert by_id[da.id].outcome == "disconnected"
        assert by_id[db.id].outcome == "new"
        assert da.state is ClientState.DISCONNECTED
        assert db.state is ClientState.ACTIVE
        assert sink.count == 1
        (event,) = server.events
        assert event.reason == "fault" and "magic" in event.detail

    def test_protocol_violation_in_client_region_contained(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock, depth=2)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        # scribble an impossible status word into slot 0
        header = shm.read_header(a_buf)
        a_buf[header.frame_offset:header.frame_offset + 4] = (99).to_bytes(4, "little")
        rep = server.compose_once(clock.now_us())
        assert rep.clients[0].outcome == "disconnected"
        assert server.frames_presented == 1

    def test_overwritten_held_status_is_a_fault_after_the_take(self):
        # The client rewrites its DRAWING slot's status, so releasing it
        # fails after the next take. The client is disconnected as a
        # fault, and the statuses stay as the take left them.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, depth=2)
        da = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)
        server.compose_once(clock.now_us())
        (index,) = [i for i, st in enumerate(a.queue.statuses())
                    if st is FrameState.DRAWING]
        submit(a, 2)
        header = shm.read_header(buf)
        struct.pack_into("<I", buf, header.frame_offset + index * STATUS_RECORD_SIZE,
                         int(FrameState.READY))
        rep = server.compose_once(clock.now_us())
        assert rep.clients[0].outcome == "disconnected"
        assert server.events[0].reason == "fault"
        assert da.queue.held.index == 1 - index
        statuses = [FrameState.FREE, FrameState.FREE]
        statuses[1 - index] = FrameState.DRAWING
        assert a.queue.statuses() == tuple(statuses)
        server.compose_once(clock.now_us())
        assert a.queue.statuses() == tuple(statuses)

    def test_held_slot_with_invalid_status_is_a_fault(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, depth=2)
        da = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)
        server.compose_once(clock.now_us())
        index = da.queue.held.index
        forge_slot(buf, index, 99, da.queue.held.sequence)
        rep = server.compose_once(clock.now_us())
        assert rep.clients[0].outcome == "disconnected"
        (event,) = server.events
        assert event.reason == "fault"
        assert f"slot {index}" in event.detail and "99" in event.detail

    def test_held_slot_forged_ready_is_taken_again_and_kept(self):
        # The client marks its DRAWING slot READY with a newer sequence.
        # The take chooses that slot again, so it must stay DRAWING and
        # held rather than be freed as the frame the take replaced; and
        # after that, every tick holds exactly one slot, the held one.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        buf, a = make_client(clock, depth=3)
        desc = server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)
        server.compose_once(clock.now_us())
        index = desc.queue.held.index
        forge_slot(buf, index, FrameState.READY, 99)
        rep = server.compose_once(clock.now_us())
        assert (rep.clients[0].outcome, rep.clients[0].sequence) == ("new", 99)
        assert a.queue.status(index) is FrameState.DRAWING
        assert desc.queue.held.index == index
        for i in range(3):
            submit(a, 2 + i)
            assert server.compose_once(clock.now_us()).clients[0].outcome == "new"
            drawing = [j for j, st in enumerate(a.queue.statuses())
                       if st is FrameState.DRAWING]
            assert drawing == [desc.queue.held.index], i
        assert desc.state is ClientState.ACTIVE

    @pytest.mark.parametrize("error", [ValueError, IndexError, TypeError,
                                       struct.error],
                             ids=["ValueError", "IndexError", "TypeError",
                                  "struct_error"])
    def test_server_bug_propagates_instead_of_disconnecting(self, monkeypatch,
                                                            error):
        # Only a FramebufferError is blamed on the client; any other error
        # out of the server's own code must surface, even one of the
        # types a bad read of client memory could raise.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        submit(a, 1)

        def broken_take():
            raise error("server bug")

        monkeypatch.setattr(da.queue, "take_for_display", broken_take)
        with pytest.raises(error, match="server bug"):
            server.compose_once(clock.now_us())
        assert da.state is ClientState.ACTIVE
        assert server.events == []

    def test_watchdog_over_released_view_raises(self):
        # The server's own view of a region is not client memory: if it
        # has been released, that is a server bug, not a client fault.
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, _ = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        da.region.release()
        with pytest.raises(ValueError, match="released"):
            server.check_watchdogs(clock.now_us() + 10 * TIMEOUT_US)
        assert da.state is ClientState.ACTIVE
        assert server.events == []


class TestIndicator:
    SIZE = (37, 23)   # not a multiple of the 16-pixel hatch spacing

    @pytest.mark.parametrize("fmt", list(PixelFormat))
    def test_cached_tile_matches_per_tick_crosshatch(self, fmt):
        # The tiled 16x16 period draws the per-pixel crosshatch, anchored
        # at each placement's corner, at a tight and at a padded pitch;
        # the row padding and the pixels around the placement keep theirs.
        cases = [(SurfaceGeometry(200, 120, compute_pitch(200, fmt)), self.SIZE,
                  [(0, 0), (101, 53)]),
                 (SurfaceGeometry(130, 60, 130 * 4 + 36), (100, 37),
                  [(0, 0), (29, 23)])]
        for geometry, (width, height), spots in cases:
            server = CompositorServer(
                CompositionTarget(geometry, fmt, 0x000000FF),
                ChecksumSink(), SimClock())
            raw = server.target.surface.buffer()
            raw[:] = np.arange(raw.size) % 251
            expected = raw.copy().reshape(geometry.height, geometry.pitch)
            tile = old_crosshatch(fmt, width, height).reshape(height, 4 * width)
            for x, y in spots:
                server._paint_indicator(Rect(x, y, width, height))
                expected[y:y + height, 4 * x:4 * (x + width)] = tile
                assert raw.tobytes() == expected.tobytes()

    def test_two_disconnected_clients_of_one_size(self):
        width, height = self.SIZE
        clock = SimClock()
        server, sink = make_server(clock=clock)
        placements = [Rect(3, 5, width, height), Rect(150, 77, width, height)]
        descs = []
        for rect in placements:
            buf, _ = make_client(clock, width, height)
            descs.append(server.register_client(buf, rect, 1))
        server.compose_once(clock.now_us())
        for desc in descs:
            server.disconnect(desc, "watchdog", clock.now_us())
        rep = server.compose_once(clock.now_us())
        assert [r.outcome for r in rep.clients] == ["disconnected"] * 2
        expected = old_crosshatch(PixelFormat.R8G8B8A8, width, height).tobytes()
        px = server.target.surface.pixels()
        for rect in placements:
            assert px[rect.y:rect.y + height, rect.x:rect.x + width].tobytes() \
                == expected
        # Outside the placements the background is untouched.
        mask = np.ones(px.shape[:2], bool)
        for rect in placements:
            mask[rect.y:rect.y + height, rect.x:rect.x + width] = False
        background = pack_channels(PixelFormat.R8G8B8A8, 0x10, 0x10, 0x10, 0xFF)
        assert (px[mask].view("<u4") == background).all()


class TestTarget:
    @pytest.mark.parametrize("pitch", [37 * 4 + 20, 37 * 4 + 2])
    @pytest.mark.parametrize("fmt", list(PixelFormat))
    def test_clear_writes_only_the_area(self, fmt, pitch):
        # The background's bytes land in the area; the row padding and
        # the pixels around it keep theirs.
        target = CompositionTarget(SurfaceGeometry(37, 11, pitch), fmt,
                                   background=0x11223344)
        raw = target.surface.buffer()
        raw[:] = np.arange(raw.size) % 251
        expected = raw.copy().reshape(11, pitch)
        area = Rect(5, 3, 20, 6)
        target.clear(area)
        background = pack_channels(fmt, 0x11, 0x22, 0x33, 0x44).to_bytes(4, "little")
        expected[area.y:area.y + area.height, 4 * area.x:4 * (area.x + area.width)] = \
            np.frombuffer(background * area.width, np.uint8)
        assert raw.tobytes() == expected.tobytes()


def full_repaint(server):
    """The target as a full repaint draws it: background, then every
    client in id order."""
    target = server.target
    ref = Surface.allocate(target.geometry, target.format)
    ref.fill(pack_channels(target.format, 0x10, 0x10, 0x10, 0xFF))
    for desc in sorted(server.clients.values(), key=lambda d: d.id):
        p = desc.placement
        if desc.state is ClientState.DISCONNECTED:
            ref.pixels()[p.y:p.y + p.height, p.x:p.x + p.width] = \
                old_crosshatch(target.format, p.width, p.height)
        elif desc.queue.held is not None:
            blit(desc.queue.held.surface, ref, p)
    return ref


class TestDamage:
    PLACEMENTS = [Rect(10, 20, 64, 48), Rect(110, 20, 64, 48),
                  Rect(210, 150, 64, 48), Rect(310, 236, 64, 48)]

    @pytest.mark.parametrize("seed", range(4))
    def test_random_ticks_match_full_repaint(self, seed):
        rng = random.Random(seed)
        clock = SimClock()
        server, sink = make_server(clock=clock, sink=FailOnceSink())
        clients = {}      # client id -> (buf, session)

        def add(rect):
            buf, session = make_client(clock, rect.width, rect.height,
                                       fmt=rng.choice(list(PixelFormat)),
                                       depth=rng.randint(2, 3),
                                       timeout_us=10_000_000)
            desc = server.register_client(buf, rect, 0.0)
            clients[desc.id] = (buf, session)

        for rect in self.PLACEMENTS:
            add(rect)
        # the areas no client holds, for registrations mid-run
        spare = [Rect(x, y, 64, 48) for y in (20, 85, 150, 236)
                 for x in (10, 110, 210, 310)]
        spare = [r for r in spare if r not in self.PLACEMENTS]
        rng.shuffle(spare)
        seen = {"new": 0, "held": 0, "empty": 0, "disconnected": 0,
                "fault": 0, "register": 0, "present-failure": 0}
        for tick in range(150):
            clock.sleep_us(10_000)
            for cid, (buf, session) in clients.items():
                desc = server.clients[cid]
                if desc.state is ClientState.ACTIVE and rng.random() < 0.4:
                    surface = session.try_begin_frame()
                    if surface is not None:
                        render_pattern(surface, rng.randrange(256))
                        session.end_frame()
            active = [d for d in server.clients.values()
                      if d.state is ClientState.ACTIVE]
            roll = rng.random()
            if roll < 0.05 and active:
                # garbage header: compose disconnects it as a fault
                buf, _ = clients[rng.choice(active).id]
                buf[:16] = b"\xde\xad\xbe\xef" * 4
                seen["fault"] += 1
            elif roll < 0.12 and active:
                server.disconnect(rng.choice(active), "watchdog", clock.now_us())
            elif roll < 0.30 and spare:
                add(spare.pop())
                seen["register"] += 1
            sink.fail = tick > 0 and rng.random() < 0.04
            target = server.target.surface
            try:
                rep = server.compose_once(clock.now_us())
            except PresentFailure:
                seen["present-failure"] += 1
            else:
                for r in rep.clients:
                    seen[r.outcome] += 1
                assert sink.checksums()[-1] == frame_checksum(target), tick
            assert np.array_equal(target.pixels(),
                                  full_repaint(server).pixels()), tick
            if tick > 0:
                assert target.damage != (0, 300), tick
        assert all(seen.values()), seen

    def test_client_writes_into_drawing_slot_not_presented(self):
        clock = SimClock()
        server, sink = make_server(clock=clock)
        buf, a = make_client(clock)
        server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 3)
        server.compose_once(clock.now_us())
        presented = server.target.surface.pixels().copy()
        checksum = sink.checksums()[-1]
        fill_drawing_slot(a)
        rep = server.compose_once(clock.now_us())
        assert rep.clients[0].outcome == "held"
        assert np.array_equal(server.target.surface.pixels(), presented)
        assert sink.checksums()[-1] == checksum

    def test_drawing_slot_flipped_to_ready_is_repainted(self):
        # The client hands the slot the server holds back as READY with a
        # higher sequence: the same slot, so the same cached surface, is
        # taken again, and its new pixels must be painted.
        clock = SimClock()
        server, sink = make_server(clock=clock)
        buf, a = make_client(clock)
        server.register_client(buf, Rect(0, 10, 64, 64), 1)
        submit(a, 3)
        server.compose_once(clock.now_us())
        fill_drawing_slot(a)
        (index,) = [i for i, st in enumerate(a.queue.statuses())
                    if st is FrameState.DRAWING]
        forge_slot(buf, index, FrameState.READY, 99)
        rep = server.compose_once(clock.now_us())
        assert (rep.clients[0].outcome, rep.clients[0].sequence) == ("new", 99)
        target = server.target.surface
        assert (target.pixels()[10:74, :64] == 255).all()
        assert target.damage == (10, 74)
        assert sink.checksums()[-1] == frame_checksum(target)

    def test_register_does_not_reread_held_frames(self):
        clock = SimClock()
        server, sink = make_server(clock=clock)
        buf, a = make_client(clock)
        server.register_client(buf, Rect(0, 0, 64, 64), 1)
        submit(a, 3)
        server.compose_once(clock.now_us())
        presented = server.target.surface.pixels().copy()
        checksum = sink.checksums()[-1]
        fill_drawing_slot(a)
        b_buf, _ = make_client(clock)
        server.register_client(b_buf, Rect(100, 200, 64, 64), 1)
        rep = server.compose_once(clock.now_us())
        assert [r.outcome for r in rep.clients] == ["held", "empty"]
        assert np.array_equal(server.target.surface.pixels(), presented)
        assert sink.checksums()[-1] == checksum
        assert server.target.surface.damage == (0, 0)

    def test_damage_spans_changed_rows(self):
        clock = SimClock()
        server, _ = make_server(clock=clock)
        a_buf, a = make_client(clock)
        b_buf, b = make_client(clock)
        server.register_client(a_buf, Rect(0, 10, 64, 64), 1)
        server.register_client(b_buf, Rect(100, 200, 64, 64), 1)
        server.compose_once(clock.now_us())
        assert server.target.surface.damage == (0, 300)
        server.compose_once(clock.now_us())
        assert server.target.surface.damage == (0, 0)
        submit(b, 1)
        server.compose_once(clock.now_us())
        assert server.target.surface.damage == (200, 264)
        submit(a, 2)
        submit(b, 3)
        server.compose_once(clock.now_us())
        assert server.target.surface.damage == (10, 264)

    def test_rejected_registration_repaints_nothing(self):
        # A placement over an active or a disconnected client is refused
        # and changes no row. A registration elsewhere then changes only
        # its own rows, and no held frame is redrawn from the slot its
        # client can still write.
        clock = SimClock()
        server, sink = make_server(clock=clock)
        a_buf, a = make_client(clock)
        c_buf, _ = make_client(clock)
        da = server.register_client(a_buf, Rect(0, 0, 64, 64), 1)
        dc = server.register_client(c_buf, Rect(200, 200, 64, 64), 1)
        submit(a, 3)
        server.compose_once(clock.now_us())
        server.disconnect(dc, "watchdog", clock.now_us())
        server.compose_once(clock.now_us())
        painted = server.target.surface.pixels().copy()
        fill_drawing_slot(a)

        for rect in (da.placement, Rect(220, 220, 64, 64)):
            other_buf, _ = make_client(clock)
            with pytest.raises(PlacementConflict):
                server.register_client(other_buf, rect, 1)
        assert server.clients == {da.id: da, dc.id: dc}
        server.compose_once(clock.now_us())
        assert server.target.surface.damage == (0, 0)

        b_buf, _ = make_client(clock)
        server.register_client(b_buf, Rect(300, 100, 64, 64), 1)
        rep = server.compose_once(clock.now_us())
        assert [r.outcome for r in rep.clients] == ["held", "disconnected", "empty"]
        target = server.target.surface
        assert target.damage == (0, 0)
        # B has no frame yet, so its area stays background.
        assert np.array_equal(target.pixels(), painted)
        assert sink.checksums()[-1] == frame_checksum(target)
        checksum = sink.checksums()[-1]
        for _ in range(2):
            server.compose_once(clock.now_us())
            assert target.damage == (0, 0)
            assert sink.checksums()[-1] == checksum
        assert [(e.client_id, e.reason) for e in server.events] == \
            [(dc.id, "watchdog")]

    def test_failed_present_rereads_no_slot(self):
        # After a failed present the target already holds that tick's
        # pixels: the next tick presents them and reads no slot.
        clock = SimClock()
        server, sink = make_server(clock=clock, sink=FailOnceSink())
        a_buf, a = make_client(clock)
        b_buf, b = make_client(clock)
        server.register_client(a_buf, Rect(0, 10, 64, 64), 1)
        server.register_client(b_buf, Rect(100, 200, 64, 64), 1)
        submit(a, 3)
        server.compose_once(clock.now_us())
        submit(b, 4)
        sink.fail = True
        with pytest.raises(PresentFailure, match="display unplugged"):
            server.compose_once(clock.now_us())
        painted = server.target.surface.pixels().copy()
        fill_drawing_slot(a)
        fill_drawing_slot(b)

        rep = server.compose_once(clock.now_us())
        assert [r.outcome for r in rep.clients] == ["held", "held"]
        target = server.target.surface
        assert np.array_equal(target.pixels(), painted)
        assert target.damage == (200, 264)
        assert sink.checksums()[-1] == frame_checksum(target)
        assert sink.count == server.frames_presented == 2
