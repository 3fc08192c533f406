"""The compositing server.

Registers clients, composes their newest frames onto the target at fixed
non-overlapping placements, enforces watchdog and minimum-framerate
policies, paints a visible indicator over disconnected clients, and
presents the target through an output sink. The indicator is tiled from
one 16x16 period, built once per pixel format, and painted once per
disconnected placement.

Composition is damage-tracked: each tick repaints only the placements
whose content changed since the previous tick (every new take, a frame
replaced by the indicator or by nothing) and records the changed rows
on the target as `Surface.damage`, so a sink can skip the rest. The
frame on display is the client's queue view's `held` frame, so the
server keeps no slot of its own: the take that replaces it frees the old
slot. A held frame is drawn exactly once, when it is taken, so a client
cannot change the display through a slot it handed over. A take
repaints even when it chose the slot shown last: the queue caches one
surface per slot, so the same surface object can carry a new frame.
That relies on the compositor being the only writer of its target
surface: anything else that writes into it must not expect its pixels
to survive or be presented. It also relies on no two registered
placements overlapping. The client table only grows: a placement that
overlaps any registered client, active or disconnected, is refused, so
a disconnected client's area shows the indicator for the rest of the
run, and a new client's placement already shows the background.

Each tick trusts one word of a client's header, the magic; every other
field comes from the header read and validated at registration. The
per-client work of a tick is a fixed handful of Python steps: one read
of the status records and one of the magic word in compose, one running
frame count in the min-fps check, and one heartbeat read per watchdog
poll.

Every check of client-writable memory raises a `FramebufferError` where
it reads the word, and compose disconnects a client as a "fault" for a
`FramebufferError` and nothing else: any other exception is a server
bug and propagates.

One thread drives the server: registration, the watchdog and
framerate checks and compose all run on it, so the client table needs
no lock. Every tick entry point (`compose_once`, `check_watchdogs`,
`check_framerates`, `disconnect`) takes its time from the caller, so
each decision carries the one time its tick was given; only
`register_client` reads the server's clock.
"""

from __future__ import annotations

import enum
import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import shm
from .clock import Clock
from .errors import (FramebufferError, IncompatibleProtocol, PlacementConflict,
                     PresentFailure)
from .frame_queue import FrameQueue
from .pixel import (PixelFormat, Rect, Surface, SurfaceGeometry, blit,
                    pack_channels)

INDICATOR_COLOR = (255, 176, 0, 255)     # warning amber
INDICATOR_FILL = (48, 16, 16, 255)
_INDICATOR_SPACING = 16
_INDICATOR_THICKNESS = 2
_INDICATOR = "indicator"   # what a disconnected client's placement shows


@functools.lru_cache(maxsize=None)
def _indicator_period(fmt: PixelFormat) -> np.ndarray:
    """One period of the disconnect indicator's diagonal crosshatch, as
    u32 pixels in `fmt`: its lines repeat every 16 pixels both ways.
    Built once per format and shared, so it is read-only."""
    yy, xx = np.mgrid[0:_INDICATOR_SPACING, 0:_INDICATOR_SPACING]
    line = (((xx + yy) % _INDICATOR_SPACING) < _INDICATOR_THICKNESS) | \
           (((xx - yy) % _INDICATOR_SPACING) < _INDICATOR_THICKNESS)
    period = np.where(line, pack_channels(fmt, *INDICATOR_COLOR),
                      pack_channels(fmt, *INDICATOR_FILL)).astype("<u4")
    period.flags.writeable = False
    return period


class ClientState(enum.Enum):
    ACTIVE = "active"
    DISCONNECTED = "disconnected"


@dataclass
class DisconnectEvent:
    t_us: int
    client_id: int
    reason: str  # "watchdog" | "low-fps" | "fault"
    detail: str = ""  # for "fault": the FramebufferError's text


@dataclass
class ClientDescriptor:
    """Server-side record of one connected application."""

    id: int
    region: memoryview            # control area (status records), writable
    header: shm.HeaderFields
    queue: FrameQueue
    placement: Rect
    min_fps: float
    state: ClientState = ClientState.ACTIVE
    last_frame_seq: int = 0
    deadline_us: int = 0
    last_heartbeat: int = 0
    connected_at_us: int = 0
    # (timestamp, frames submitted since previous observation)
    fps_window: deque = field(default_factory=deque)
    fps_frames: int = 0           # the sum of the counts in fps_window
    presented: int = 0            # new takes: frames drawn on the target
    # what the placement shows on the target: a frame's surface,
    # _INDICATOR or None (background); set as it is painted
    shown: object = None


@dataclass
class ClientReport:
    client_id: int
    outcome: str                  # "new" | "held" | "empty" | "disconnected"
    sequence: Optional[int] = None


@dataclass
class ComposeReport:
    t_us: int
    clients: List[ClientReport]


class CompositionTarget:
    """The server's output surface plus background and indicator policy."""

    def __init__(self, geometry: SurfaceGeometry, fmt: PixelFormat,
                 background: int):
        """`background` is a u32 pixel in R8G8B8A8 terms (0xRRGGBBAA)."""
        self.surface = Surface.allocate(geometry, fmt)
        self.geometry = geometry
        self.format = PixelFormat(fmt)
        self._bg_native = pack_channels(fmt, *background.to_bytes(4, "big"))

    def clear(self, area: Rect) -> None:
        """Fill `area` with the background, one u32 store per pixel."""
        self.surface.pixels()[area.y:area.y + area.height,
                              area.x:area.x + area.width].view("<u4")[..., 0] = \
            self._bg_native


class CompositorServer:
    # The sliding window the minimum-fps policy judges a client over.
    fps_window_us = 2_000_000

    def __init__(self, target: CompositionTarget, sink, clock: Clock):
        self.target = target
        self.sink = sink
        self.clock = clock           # read only by register_client
        self.clients: Dict[int, ClientDescriptor] = {}
        self.events: List[DisconnectEvent] = []
        self.frames_presented = 0
        self._next_id = 1            # only grows, so no id is used twice
        self._filled = False         # set once the whole target is filled
        # rows painted since the last present
        self._unpresented = (target.geometry.height, 0)

    # -- registration ------------------------------------------------------

    def register_client(self, region, placement: Rect, min_fps: float,
                        pixel_buf=None) -> ClientDescriptor:
        """Admit a published region at a fixed placement.

        Pixels are read through `pixel_buf` when given (a read-only
        mapping), else through a read-only view of `region`; status
        records are still driven through `region`.
        The placement may not overlap any registered client, active or
        disconnected: no client ever leaves `clients`, so its id order is
        its registration order. Every client gets a new id. A registration
        that raises changes nothing.
        """
        if not placement.fits_inside(self.target.geometry):
            raise ValueError(f"placement {placement} outside target "
                             f"{self.target.geometry.width}x{self.target.geometry.height}")
        header = shm.admit_region(region)
        if placement.width != header.width or placement.height != header.height:
            raise ValueError(
                f"placement {placement.width}x{placement.height} does not match "
                f"client surface {header.width}x{header.height}")
        for other in self.clients.values():
            if placement.overlaps(other.placement):
                raise PlacementConflict(
                    f"placement {placement} overlaps client {other.id}")
        now = self.clock.now_us()
        queue = shm.queue_view(region, header, pixel_buf=(
            memoryview(region).toreadonly() if pixel_buf is None else pixel_buf))
        desc = ClientDescriptor(
            id=self._next_id, region=memoryview(region), header=header,
            queue=queue, placement=placement,
            min_fps=min_fps,
            # A region can carry frames before it is registered; the first
            # take counts only what was submitted after this point.
            last_frame_seq=max(queue.sequence(i) for i in range(queue.depth)),
            deadline_us=now + header.timeout_us,
            last_heartbeat=shm.read_heartbeat(region, header),
            connected_at_us=now,
        )
        self._next_id += 1
        self.clients[desc.id] = desc
        return desc

    # -- fault policies ----------------------------------------------------

    def disconnect(self, desc: ClientDescriptor, reason: str, now_us: int,
                   detail: str = "") -> DisconnectEvent:
        """Forcibly detach: stop reading the region, make it visible.

        No slot status changes: the held slot stays DRAWING, since nothing
        reads a disconnected region's slots again and the client's next
        begin raises SessionLost on the detach flag.
        """
        desc.state = ClientState.DISCONNECTED
        shm.write_detach_flag(desc.region, desc.header, 1)
        event = DisconnectEvent(now_us, desc.id, reason, detail)
        self.events.append(event)
        return event

    def check_watchdogs(self, now_us: int) -> List[DisconnectEvent]:
        """Disconnect every active client whose deadline has passed.

        A heartbeat observed since the last check pushes the deadline to
        observation time + timeout. Returns the events it fired.
        """
        fired = []
        for desc in self.clients.values():
            if desc.state is not ClientState.ACTIVE:
                continue
            hb = shm.read_heartbeat(desc.region, desc.header)
            if hb != desc.last_heartbeat:
                desc.last_heartbeat = hb
                desc.deadline_us = now_us + desc.header.timeout_us
            elif now_us > desc.deadline_us:
                fired.append(self.disconnect(desc, "watchdog", now_us))
        return fired

    def check_framerates(self, now_us: int) -> List[DisconnectEvent]:
        """Disconnect every active client below its min_fps over the
        sliding window. Returns the events it fired.

        A client is judged only once a full window has elapsed since it
        connected, and the threshold is strict: exactly min_fps keeps it.
        The frame count is kept running beside the window, so a check
        costs the entries it drops, not the window's length.
        """
        window = self.fps_window_us
        fired = []
        for desc in self.clients.values():
            if desc.state is not ClientState.ACTIVE:
                continue
            while desc.fps_window and desc.fps_window[0][0] <= now_us - window:
                desc.fps_frames -= desc.fps_window.popleft()[1]
            if (now_us - desc.connected_at_us >= window
                    and desc.fps_frames * 1e6 / window < desc.min_fps):
                fired.append(self.disconnect(desc, "low-fps", now_us))
        return fired

    # -- composition -------------------------------------------------------

    def compose_once(self, now_us: int) -> ComposeReport:
        """Build one output frame and present it.

        Fills the whole target with the background on the first tick.
        Then, client by client in registration order, takes a frame and
        repaints the placement if its content changed: every new take
        does. Presents the rows painted since the last successful present
        as the target's `damage`. After a failed present the target already
        holds that tick's pixels, so the next tick presents them again
        and rereads no slot. A client whose region or frames fail the
        protocol (a FramebufferError) is disconnected and composition
        continues. A sink's OSError propagates as PresentFailure, and any
        other exception, a server bug, as itself.
        """
        if not self._filled:
            g = self.target.geometry
            self._paint(Rect(0, 0, g.width, g.height), None)
            self._filled = True
        reports = []
        for desc in self.clients.values():
            source = _INDICATOR
            if desc.state is ClientState.DISCONNECTED:
                report = ClientReport(desc.id, "disconnected")
            else:
                try:
                    report, source = self._compose_client(desc, now_us)
                except FramebufferError as exc:
                    self.disconnect(desc, "fault", now_us, detail=str(exc))
                    report = ClientReport(desc.id, "disconnected")
            reports.append(report)
            if report.outcome == "new" or desc.shown is not source:
                self._paint(desc.placement, source)
                desc.shown = source

        y0, y1 = self._unpresented
        self.target.surface.damage = (y0, y1) if y0 < y1 else (0, 0)
        try:
            self.sink.present(self.target.surface, now_us)
        except OSError as exc:
            raise PresentFailure(str(exc)) from exc
        self._unpresented = (self.target.geometry.height, 0)
        self.frames_presented += 1
        return ComposeReport(now_us, reports)

    def _compose_client(self, desc: ClientDescriptor,
                        now: int) -> Tuple[ClientReport, Optional[Surface]]:
        """Take the client's newest frame; return the report and the
        surface its placement should show (None: nothing yet)."""
        # A client scribbling over its own header must not survive as a
        # normal picture source. The rest of the header was validated at
        # registration and is used from desc.header.
        if shm.read_magic(desc.region) != shm.MAGIC:
            raise IncompatibleProtocol("client header lost its magic")
        handle = desc.queue.take_for_display()
        if handle is not None:
            # The client writes the sequence: between two takes it can
            # have submitted at most one frame per slot, and never fewer
            # than none.
            submitted = min(max(handle.sequence - desc.last_frame_seq, 0),
                            desc.queue.depth)
            desc.fps_window.append((now, submitted))
            desc.fps_frames += submitted
            desc.last_frame_seq = handle.sequence
            desc.presented += 1
            return ClientReport(desc.id, "new", handle.sequence), handle.surface
        held = desc.queue.held
        if held is not None:
            return ClientReport(desc.id, "held", held.sequence), held.surface
        return ClientReport(desc.id, "empty"), None

    def _paint(self, area: Rect, source) -> None:
        if source is None:
            self.target.clear(area)
        elif source is _INDICATOR:
            self._paint_indicator(area)
        else:
            blit(source, self.target.surface, area)
        y0, y1 = self._unpresented
        self._unpresented = (min(y0, area.y), max(y1, area.y + area.height))

    def _paint_indicator(self, placement: Rect) -> None:
        """Diagonal crosshatch in a warning color over the placement,
        anchored at its top-left corner, tiled from one 16x16 period."""
        h, w = placement.height, placement.width
        reps = (-(-h // _INDICATOR_SPACING), -(-w // _INDICATOR_SPACING))
        self.target.surface.pixels()[
            placement.y:placement.y + h,
            placement.x:placement.x + w].view("<u4")[..., 0] = \
            np.tile(_indicator_period(self.target.format), reps)[:h, :w]
