import pytest

from fbcomp import shm
from fbcomp.client import connect_session, open_direct_session
from fbcomp.clock import SimClock
from fbcomp.errors import SessionLost, UsageError
from fbcomp.frame_queue import FrameState
from fbcomp.pixel import PixelFormat, SurfaceGeometry, compute_pitch
from fbcomp.sinks import ChecksumSink
from fbcomp.widgets import render_pattern


def direct_session(clock, depth=3, framerate=60, timeout_us=50_000, side=32):
    geometry = SurfaceGeometry(side, side, compute_pitch(side, PixelFormat.R8G8B8A8))
    config = shm.RegionConfig(geometry, (PixelFormat.R8G8B8A8,), framerate,
                              timeout_us, depth)
    sink = ChecksumSink()
    return open_direct_session(config, sink, clock), sink


class TestBeginEnd:
    def test_depth3_idle_consumer_fourth_begin_skips(self):
        clock = SimClock()
        session, _ = direct_session(clock)
        for i in range(3):
            surface = session.try_begin_frame()
            assert surface is not None
            session.end_frame()
        start = clock.now_us()
        heartbeat = shm.read_heartbeat(session._region, session._header)
        assert session.try_begin_frame() is None
        assert clock.now_us() == start
        assert shm.read_heartbeat(session._region, session._header) == heartbeat + 1

    def test_nested_begin_rejected(self):
        session, _ = direct_session(SimClock())
        session.try_begin_frame()
        with pytest.raises(UsageError):
            session.try_begin_frame()

    def test_end_without_begin_rejected(self):
        session, _ = direct_session(SimClock())
        with pytest.raises(UsageError):
            session.end_frame()

    def test_begin_on_detached_session_raises(self):
        clock = SimClock()
        config = shm.RegionConfig(
            geometry=SurfaceGeometry.for_width(32, 32),
            formats=(PixelFormat.R8G8B8A8,), framerate=30,
            timeout_us=100_000, queue_depth=2)
        buf, _ = shm.allocate_region(config)
        shm.publish(buf)
        session = connect_session(buf, clock)
        header = shm.read_header(buf)
        shm.write_detach_flag(buf, header, 1)
        with pytest.raises(SessionLost):
            session.try_begin_frame()

    def test_no_slot_leak_after_full_drain(self):
        clock = SimClock()
        session, _ = direct_session(clock)
        for i in range(10):
            surface = session.try_begin_frame()
            if surface is None:
                session.present_direct()
                continue
            session.end_frame()
            session.present_direct()
        # drain: present everything; only the held frame stays taken
        while True:
            before = session.queue.statuses().count(FrameState.READY)
            session.present_direct()
            if session.queue.statuses().count(FrameState.READY) == before:
                break
        held = session.queue.held.index
        assert session.queue.statuses() == tuple(
            FrameState.DRAWING if i == held else FrameState.FREE
            for i in range(session.queue.depth))


class TestPresentDirect:
    def test_flush_presents_newest_only(self):
        clock = SimClock()
        session, sink = direct_session(clock)
        for i in range(3):
            render_pattern(session.try_begin_frame(), i)
            session.end_frame()
        assert session.present_direct() == 3
        assert sink.count == 1
        # the two stale frames went back to FREE
        assert session.queue.statuses().count(FrameState.FREE) == 2

    def test_empty_queue_represents_previous(self):
        clock = SimClock()
        session, sink = direct_session(clock)
        render_pattern(session.try_begin_frame(), 42)
        session.end_frame()
        assert session.present_direct() == 1
        checksum = sink.checksums()[-1]
        assert session.present_direct() == 1
        assert sink.checksums()[-1] == checksum

    def test_present_before_any_frame(self):
        session, sink = direct_session(SimClock())
        assert session.present_direct() is None
        assert sink.count == 0

    def test_composited_session_rejects_present_direct(self):
        clock = SimClock()
        config = shm.RegionConfig(
            geometry=SurfaceGeometry.for_width(32, 32),
            formats=(PixelFormat.R8G8B8A8,), framerate=30,
            timeout_us=100_000, queue_depth=2)
        buf, _ = shm.allocate_region(config)
        shm.publish(buf)
        session = connect_session(buf, clock)
        with pytest.raises(UsageError):
            session.present_direct()


class TestModePortability:
    def _drive(self, session):
        """The same application loop must run unchanged in both modes."""
        for i in range(5):
            surface = session.try_begin_frame()
            if surface is None:
                continue
            render_pattern(surface, i)
            session.end_frame()
        return session.frames_submitted

    def test_same_loop_both_modes(self):
        clock = SimClock()
        direct, _ = direct_session(clock)
        config = shm.RegionConfig(
            geometry=SurfaceGeometry.for_width(32, 32),
            formats=(PixelFormat.R8G8B8A8,), framerate=60,
            timeout_us=50_000, queue_depth=3)
        buf, _ = shm.allocate_region(config)
        shm.publish(buf)
        composited = connect_session(buf, clock)
        # depth 3, no consumer: both submit exactly 3 of the 5 attempts
        assert self._drive(direct) == 3
        assert self._drive(composited) == 3
