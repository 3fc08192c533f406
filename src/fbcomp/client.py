"""Application-side runtime: frame lifecycle and direct presentation.

A session is confined to one task.

The server's watchdog observes the heartbeat counter in the region.
end_frame advances it, and so does a begin that finds no FREE slot: a
client blocked on a compositor that has not yet drained its queue is
still alive.
"""

from __future__ import annotations

from typing import Optional

from . import shm
from .clock import Clock, WallClock
from .errors import SessionLost, UsageError
from .frame_queue import FrameHandle, FrameQueue, QueueMode
from .pixel import Surface


class ClientSession:
    """One output surface, one producer. Direct and composited sessions
    expose the same surface-filling API; only presentation differs."""

    def __init__(self, queue: FrameQueue, clock: Optional[Clock] = None, *,
                 region, header: shm.HeaderFields, sink=None):
        self.queue = queue
        self.clock = clock or WallClock()
        self.mode = "direct" if sink is not None else "composited"
        self.sink = sink
        self._region = region
        self._header = header
        self._open: Optional[FrameHandle] = None
        self._held: Optional[FrameHandle] = None
        self._heartbeat = 0
        self.frames_submitted = 0

    # -- frame lifecycle ---------------------------------------------------

    def try_begin_frame(self) -> Optional[Surface]:
        """A writable frame, or None at once when no slot is FREE, after
        advancing the heartbeat. Never waits."""
        if self._open is not None:
            raise UsageError("try_begin_frame while a frame is already open")
        self._check_connected()
        handle = self.queue.acquire_frame()
        if handle is None:
            self.heartbeat()
            return None
        self._open = handle
        return handle.surface

    def end_frame(self) -> None:
        """Submit the open frame and bump the heartbeat."""
        if self._open is None:
            raise UsageError("end_frame without an open frame")
        handle, self._open = self._open, None
        self.queue.submit_frame(handle)
        self.frames_submitted += 1
        self.heartbeat()

    def heartbeat(self) -> None:
        """Advance the liveness counter the server's watchdog observes."""
        self._heartbeat += 1
        shm.write_heartbeat(self._region, self._header, self._heartbeat)

    # -- direct-to-display -------------------------------------------------

    def present_direct(self, mode: QueueMode = QueueMode.ORDERED) -> Optional[int]:
        """Push the next displayable frame to the sink.

        With nothing READY the previously displayed frame is presented
        again (last-frame preservation). Returns the presented sequence,
        or None when nothing has ever been displayed.
        """
        if self.mode != "direct":
            raise UsageError("present_direct on a composited session")
        handle = self.queue.take_for_display(mode)
        if handle is None:
            if self._held is None:
                return None
            self.sink.present(self._held.surface, self.clock.now_us())
            return self._held.sequence
        if self._held is not None:
            self.queue.release_frame(self._held)
        self._held = handle
        self.sink.present(handle.surface, self.clock.now_us())
        return handle.sequence

    # -- internals ---------------------------------------------------------

    def _check_connected(self) -> None:
        if shm.read_detach_flag(self._region, self._header):
            raise SessionLost("server has disconnected this session")


def open_direct_session(config: shm.RegionConfig, sink,
                        clock: Optional[Clock] = None) -> ClientSession:
    """Direct mode: the session owns both queue ends and an output sink."""
    region, header = shm.allocate_region(config)
    shm.publish(region)
    region = memoryview(region)
    return ClientSession(shm.queue_view(region, header), clock, region=region,
                         header=header, sink=sink)


def connect_session(region, clock: Optional[Clock] = None) -> ClientSession:
    """Composited mode: attach to a server-published shared region; an
    unpublished one raises ServerUnavailable."""
    queue, header = shm.client_attach(region)
    return ClientSession(queue, clock, region=memoryview(region),
                         header=header)
