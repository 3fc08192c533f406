"""Application-side runtime: frame lifecycle and direct presentation.

A session is confined to one task; a direct one also consumes its queue.

The server's watchdog observes the heartbeat counter in the region.
end_frame advances it, and so does a begin that finds no FREE slot: a
client blocked on a compositor that has not yet drained its queue is
still alive.
"""

from __future__ import annotations

from typing import Optional

from . import shm
from .clock import Clock
from .errors import SessionLost, UsageError
from .frame_queue import FrameHandle, FrameQueue
from .pixel import Surface


class ClientSession:
    """One output surface, one producer. Direct and composited sessions
    expose the same surface-filling API; only presentation differs."""

    def __init__(self, queue: FrameQueue, clock: Clock, *,
                 region, header: shm.HeaderFields, sink=None):
        self.queue = queue
        self.clock = clock
        self.sink = sink
        self._region = region
        self._header = header
        self._open: Optional[FrameHandle] = None
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

    def present_direct(self) -> Optional[int]:
        """Present the newest displayable frame through the sink.

        Takes the newest READY frame, which frees the one held before;
        with nothing READY the held frame is presented again (last-frame
        preservation). Returns the presented sequence, or None when
        nothing has ever been displayed. A session without a sink is
        composited and raises UsageError.
        """
        if self.sink is None:
            raise UsageError("present_direct on a composited session")
        self.queue.take_for_display()
        held = self.queue.held
        if held is None:
            return None
        self.sink.present(held.surface, self.clock.now_us())
        return held.sequence

    # -- internals ---------------------------------------------------------

    def _check_connected(self) -> None:
        if shm.read_detach_flag(self._region, self._header):
            raise SessionLost("server has disconnected this session")


def open_direct_session(config: shm.RegionConfig, sink,
                        clock: Clock) -> ClientSession:
    """Direct mode: the session owns both queue ends and an output sink."""
    region, header = shm.allocate_region(config)
    shm.publish(region)
    region = memoryview(region)
    return ClientSession(shm.queue_view(region, header), clock, region=region,
                         header=header, sink=sink)


def connect_session(region, clock: Clock) -> ClientSession:
    """Composited mode: attach to a server-published shared region; an
    unpublished one raises ServerUnavailable."""
    queue, header = shm.client_attach(region)
    return ClientSession(queue, clock, region=memoryview(region),
                         header=header)
