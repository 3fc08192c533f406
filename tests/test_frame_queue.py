import mmap
import multiprocessing
import random
import struct
import threading
import time
import uuid
import zlib

import pytest

from fbcomp import regions, shm
from fbcomp.errors import ProtocolViolation
from fbcomp.frame_queue import STATUS_RECORD_SIZE, FrameHandle, FrameState
from fbcomp.pixel import PixelFormat, SurfaceGeometry
from queue_model import explore, make_queue


class TestProducerSide:
    def test_fresh_queue_acquire(self):
        q = make_queue(3)
        handle = q.acquire_frame()
        assert handle is not None
        assert q.statuses().count(FrameState.FREE) == 2
        assert q.status(handle.index) == FrameState.UPDATING

    def test_no_free_slot_returns_none(self):
        q = make_queue(1)
        h = q.acquire_frame()
        q.submit_frame(h)
        assert q.status(0) == FrameState.READY
        assert q.acquire_frame() is None

    def test_second_acquire_avoids_ready_slot(self):
        q = make_queue(2)
        h1 = q.acquire_frame()
        q.submit_frame(h1)
        h2 = q.acquire_frame()
        assert h2.index != h1.index
        assert q.status(h1.index) == FrameState.READY

    def test_submit_assigns_monotonic_sequences(self):
        q = make_queue(2)
        h = q.acquire_frame()
        q.submit_frame(h)
        assert h.sequence == 1
        q.take_for_display()   # held: the producer reuses the other slot
        h2 = q.acquire_frame()
        q.submit_frame(h2)
        assert h2.sequence == 2

    def test_double_submit_rejected(self):
        q = make_queue(2)
        h = q.acquire_frame()
        q.submit_frame(h)
        with pytest.raises(ProtocolViolation):
            q.submit_frame(h)
        assert q.status(h.index) == FrameState.READY


class TestConsumerSide:
    def _two_ready(self):
        q = make_queue(3)
        handles = []
        for _ in range(2):
            h = q.acquire_frame()
            q.submit_frame(h)
            handles.append(h)
        return q, handles

    def test_flush_takes_newest_frees_rest(self):
        q = make_queue(3)
        handles = []
        for _ in range(3):
            h = q.acquire_frame()
            q.submit_frame(h)
            handles.append(h)
        taken = q.take_for_display()
        assert taken.sequence == handles[-1].sequence
        for h in handles[:-1]:
            assert q.status(h.index) == FrameState.FREE

    def test_empty_queue_returns_none(self):
        q = make_queue(2)
        assert q.take_for_display() is None
        assert q.held is None

    def test_release_returns_slot_to_free(self):
        q, _ = self._two_ready()
        taken = q.take_for_display()
        q.release_frame(taken)
        assert q.status(taken.index) == FrameState.FREE

    def test_release_non_drawing_rejected(self):
        q, (h1, _) = self._two_ready()
        with pytest.raises(ProtocolViolation):
            q.release_frame(h1)

    def test_drawing_survives_when_nothing_new(self):
        # Consumer holds a frame over several cycles with no new READY;
        # the slot must stay DRAWING throughout.
        q = make_queue(2)
        h = q.acquire_frame()
        q.submit_frame(h)
        taken = q.take_for_display()
        for _ in range(3):
            assert q.take_for_display() is None
            assert q.status(taken.index) == FrameState.DRAWING
            assert q.held is taken

    def test_released_old_frame_becomes_acquirable(self):
        q = make_queue(2)
        h = q.acquire_frame()
        q.submit_frame(h)
        old = q.take_for_display()
        assert q.held is old
        h2 = q.acquire_frame()
        q.submit_frame(h2)
        new = q.take_for_display()
        assert new.index != old.index and q.held is new
        assert q.status(old.index) == FrameState.FREE
        assert q.status(new.index) == FrameState.DRAWING
        again = q.acquire_frame()
        assert again is not None and again.index == old.index


class TestRecords:
    def test_surface_cached_per_slot(self):
        q = make_queue(3)
        for i in range(3):
            assert q.surface(i) is q.surface(i)
        assert len({id(q.surface(i)) for i in range(3)}) == 3
        h = q.acquire_frame()
        assert h.surface is q.surface(h.index)
        q.submit_frame(h)
        taken = q.take_for_display()
        assert taken.surface is q.surface(taken.index)
        with pytest.raises(IndexError):
            q.surface(-1)
        with pytest.raises(IndexError):
            q.surface(3)

    def test_bad_status_raises_protocol_violation(self):
        buf = bytearray(3 * STATUS_RECORD_SIZE + 3 * 4)
        q = make_queue(3, buf)
        h = q.acquire_frame()
        q.submit_frame(h)
        # slot 2 is FREE and after the READY slot: every status counts
        buf[2 * STATUS_RECORD_SIZE:2 * STATUS_RECORD_SIZE + 4] = \
            (4).to_bytes(4, "little")
        with pytest.raises(ProtocolViolation, match="slot 2 has invalid status 4"):
            q.take_for_display()
        with pytest.raises(ProtocolViolation, match="slot 2"):
            q.acquire_frame()
        with pytest.raises(ProtocolViolation, match="slot 2"):
            q.statuses()
        with pytest.raises(ProtocolViolation, match="slot 2"):
            q.status(2)
        stray = FrameHandle(2, 0, q.surface(2))
        for op in (q.submit_frame, q.release_frame):
            with pytest.raises(ProtocolViolation,
                               match="slot 2 has invalid status 4"):
                op(stray)

    def test_violation_shows_every_record_and_the_held_frame(self):
        buf = bytearray(3 * STATUS_RECORD_SIZE + 3 * 4)
        q = make_queue(3, buf)
        for _ in range(2):
            q.submit_frame(q.acquire_frame())
        held = q.take_for_display()
        assert (held.index, held.sequence) == (1, 2)
        # A hostile producer forges the held slot FREE.
        rec = held.index * STATUS_RECORD_SIZE
        buf[rec:rec + 4] = int(FrameState.FREE).to_bytes(4, "little")
        with pytest.raises(ProtocolViolation) as exc:
            q.release_frame(held)
        assert str(exc.value) == (
            "slot 1 is FREE, not DRAWING; "
            "slots [0=FREE#1, 1=FREE#2, 2=FREE#0], held slot 1#2")

    def test_reattached_view_continues_sequences(self):
        buf = bytearray(2 * STATUS_RECORD_SIZE + 2 * 4)
        q = make_queue(2, buf)
        for _ in range(3):
            h = q.acquire_frame()
            q.submit_frame(h)
            q.take_for_display()
        again = make_queue(2, buf)
        h = again.acquire_frame()
        again.submit_frame(h)
        assert h.sequence == 4


class TestReleaseSpan:
    def test_take_releases_through_the_instance_attribute(self):
        # The benchmark times frame_queue.release by wrapping release_frame
        # on each queue instance, so a take must call it by that name: once
        # when it replaces the held frame, never when it takes that slot
        # again.
        buf = bytearray(2 * STATUS_RECORD_SIZE + 2 * 4)
        q = make_queue(2, buf)
        released = []
        release = q.release_frame

        def traced(handle):
            released.append(handle.index)
            return release(handle)

        q.release_frame = traced
        q.submit_frame(q.acquire_frame())
        first = q.take_for_display()
        assert released == []
        q.submit_frame(q.acquire_frame())
        second = q.take_for_display()
        assert released == [first.index]
        struct.pack_into("<I4xQ", buf, second.index * STATUS_RECORD_SIZE,
                         int(FrameState.READY), 99)
        assert q.take_for_display().index == second.index
        assert released == [first.index]
        assert q.held.sequence == 99
        assert q.status(second.index) == FrameState.DRAWING


class TestModelCheck:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_only_legal_edges(self, depth):
        states, violations = explore(depth)
        assert violations == []
        assert states > depth  # sanity: exploration actually ran


class TestBufferingModes:
    def test_flush_never_goes_backwards(self):
        rng = random.Random(5)
        q = make_queue(3)
        last = 0
        for _ in range(300):
            if rng.random() < 0.6:
                h = q.acquire_frame()
                if h is not None:
                    q.submit_frame(h)
            else:
                t = q.take_for_display()
                if t is not None:
                    assert t.sequence > last
                    last = t.sequence
                # the held frame is the only DRAWING slot
                assert [i for i, st in enumerate(q.statuses())
                        if st == FrameState.DRAWING] == \
                    ([] if q.held is None else [q.held.index])

    def test_depth_three_producer_never_blocks_with_held_frame(self):
        # Triple buffering: the consumer holds one DRAWING frame while
        # the producer keeps cycling through the remaining two slots.
        q = make_queue(3)
        h = q.acquire_frame()
        q.submit_frame(h)
        held = q.take_for_display()
        assert held is not None
        for _ in range(50):
            h = q.acquire_frame()
            assert h is not None, "producer blocked under triple buffering"
            q.submit_frame(h)
            assert q.take_for_display() is not None

    def test_depth_two_double_buffering_alternates(self):
        # Producer fills the back buffer while the consumer still holds
        # the front buffer; the two slots must alternate.
        q = make_queue(2)
        h = q.acquire_frame()
        q.submit_frame(h)
        held = q.take_for_display()
        slots = []
        for _ in range(6):
            h = q.acquire_frame()
            assert h is not None and h.index != held.index
            q.submit_frame(h)
            slots.append(h.index)
            held = q.take_for_display()
        assert slots == [1, 0] * 3


def _produce(producer, stop, seed: int) -> None:
    """Submit frames until `stop` is set; each frame's first 4 bytes are
    the CRC-32 of the rest, written before submit."""
    rng = random.Random(seed)
    while not stop.is_set():
        h = producer.acquire_frame()
        if h is None:
            time.sleep(rng.random() * 1e-4)
            continue
        raw = h.surface.buffer()
        payload = rng.randbytes(raw.size - 4)
        raw[4:] = memoryview(payload)
        raw[0:4] = memoryview(zlib.crc32(payload).to_bytes(4, "little"))
        producer.submit_frame(h)
        if rng.random() < 0.3:
            time.sleep(rng.random() * 2e-4)


def _consume(consumer, running, seed: int):
    """Take frames while `running()` and check each one's CRC at display
    time. Returns (frames_checked, failures)."""
    rng = random.Random(seed + 1)
    checked, failures = 0, []
    while running():
        t = consumer.take_for_display()
        if t is None:
            time.sleep(rng.random() * 1e-4)
            continue
        raw = t.surface.buffer()
        expected = int.from_bytes(raw[0:4].tobytes(), "little")
        actual = zlib.crc32(raw[4:])
        checked += 1
        if actual != expected:
            failures.append((t.sequence, expected, actual))
        if rng.random() < 0.3:
            time.sleep(rng.random() * 2e-4)
    return checked, failures


def run_tearing_stress(duration_s: float, seed: int = 0):
    """Concurrent producer/consumer threads; every displayed frame must
    carry a checksum (written before submit) that still validates at
    display time. Returns (frames_checked, failures)."""
    # A queue with real 32x32 surfaces, viewed once from each side.
    from fbcomp.frame_queue import FrameQueue
    geometry = SurfaceGeometry(32, 32, 128)
    depth = 3
    buf = bytearray(depth * STATUS_RECORD_SIZE + depth * geometry.frame_bytes)
    producer = FrameQueue(buf, status_offset=0,
                          data_offset=depth * STATUS_RECORD_SIZE,
                          frame_stride=geometry.frame_bytes, depth=depth,
                          geometry=geometry, fmt=PixelFormat.R8G8B8A8)
    consumer = FrameQueue(buf, status_offset=0,
                          data_offset=depth * STATUS_RECORD_SIZE,
                          frame_stride=geometry.frame_bytes, depth=depth,
                          geometry=geometry, fmt=PixelFormat.R8G8B8A8)
    stop = threading.Event()
    result = []
    threads = [
        threading.Thread(target=_produce, args=(producer, stop, seed)),
        threading.Thread(target=lambda: result.append(
            _consume(consumer, lambda: not stop.is_set(), seed)))]
    for t in threads:
        t.start()
    time.sleep(duration_s)
    stop.set()
    for t in threads:
        t.join()
    return result[0]


def _produce_forked(name: str, stop, seed: int) -> None:
    """The forked producer maps the region by name, since no mapping
    survives a fork."""
    mapping = regions.open_region(name)
    producer, _ = shm.client_attach(mapping.buf)
    _produce(producer, stop, seed)


def run_forked_tearing_stress(duration_s: float, seed: int = 0):
    """`run_tearing_stress` across processes: the producer runs in a
    forked child and the consumer in this process, over one shared
    region, and the consumer reads pixels through the region's read-only
    mapping. Returns (frames_checked, failures)."""
    config = shm.RegionConfig(
        geometry=SurfaceGeometry(32, 32, 128), formats=(PixelFormat.R8G8B8A8,),
        framerate=1000, timeout_us=10_000_000, queue_depth=3, frame_padding=64)
    name = regions.region_name(f"test-tearing-{uuid.uuid4().hex[:12]}", 0)
    region = regions.create_region(name, shm.required_region_size(config))
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    child = None
    try:
        shm.encode_header(config, region.buf)
        shm.publish(region.buf)
        consumer = shm.queue_view(region.buf, shm.admit_region(region.buf),
                                  pixel_buf=region.readonly_buf)
        child = ctx.Process(target=_produce_forked, args=(name, stop, seed))
        child.start()
        end = time.monotonic() + duration_s
        result = _consume(consumer, lambda: time.monotonic() < end, seed)
        stop.set()
        child.join(10)
        assert child.exitcode == 0, child.exitcode
    finally:
        if child is not None and child.is_alive():
            child.terminate()
            child.join()
        region.close()
        regions.unlink_region(name)
    return result


def _store_ready_then_drawing(buf, end: float) -> None:
    q = make_queue(1, buf)
    while time.monotonic() < end:
        q._set_status(0, FrameState.READY)
        q._set_status(0, FrameState.DRAWING)


class TestTearing:
    def test_status_store_never_reads_free_midway(self):
        # A take stores DRAWING over READY. If another process could read
        # the slot FREE midway, the producer there could acquire the frame
        # the consumer is about to display.
        buf = mmap.mmap(-1, STATUS_RECORD_SIZE + 4096)
        q = make_queue(1, buf)
        q._set_status(0, FrameState.DRAWING)
        ctx = multiprocessing.get_context("fork")
        end = time.monotonic() + 1.0
        child = ctx.Process(target=_store_ready_then_drawing, args=(buf, end))
        child.start()
        seen = set()
        try:
            while time.monotonic() < end:
                seen.add(q.status(0))
        finally:
            child.join(10)
        assert child.exitcode == 0
        assert seen == {FrameState.READY, FrameState.DRAWING}

    def test_short_stress_no_torn_frames(self):
        checked, failures = run_tearing_stress(2.0)
        assert checked > 0
        assert failures == []

    def test_forked_producer_no_torn_frames(self):
        # The frame protocol between two processes: pixels, then the
        # sequence, then the status are stored in that order, and the
        # consumer never reads a slot the producer can still write.
        checked, failures = run_forked_tearing_stress(3.0, seed=7)
        assert checked > 0
        assert failures == []
