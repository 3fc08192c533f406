"""Frame queue: fixed slots cycling through FREE/UPDATING/READY/DRAWING.

Exactly one producer party and one consumer party per queue, possibly in
different address spaces. The producer owns FREE->UPDATING->READY, the
consumer owns READY->DRAWING->FREE plus READY->FREE: a take moves the
newest READY slot to DRAWING, frees any older READY ones and then frees
the frame it held before, so the consumer shows the producer's newest
frame. All cross-party state lives in the status/sequence records inside
the shared buffer; the one party-private fact a view keeps is that held
frame (`held`), so only a producer's view can be rebuilt at any time.

Status records are 16 bytes each, 16-byte aligned:
  +0  status   u32 LE   (FREE=0, UPDATING=1, READY=2, DRAWING=3)
  +8  sequence u64 LE   (set once per submission, strictly increasing)

Each operation costs a fixed handful of Python steps: acquire and take
read every record in one `unpack_from` and compare plain ints, submit
and release read the one status word they check, and each slot's
`Surface` is built on first use and cached with the view. A status word
outside FREE..DRAWING, checked where it is read, or a slot not in the
state an operation needs raises ProtocolViolation naming the slot, and
for the latter also every slot's record and the held frame.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import List, Optional

from .errors import ProtocolViolation
from .pixel import PixelFormat, Surface, SurfaceGeometry

STATUS_RECORD_SIZE = 16
_STATUS = struct.Struct("<I")
_SEQ = struct.Struct("<Q")


class FrameState(enum.IntEnum):
    FREE = 0
    UPDATING = 1
    READY = 2
    DRAWING = 3


# Plain-int aliases: the per-operation comparisons below run on raw
# record words, and an int compare skips the enum attribute lookups.
_FREE, _UPDATING, _READY, _DRAWING = map(int, FrameState)


@dataclass
class FrameHandle:
    index: int
    sequence: int
    surface: Surface


class FrameQueue:
    """View over the queue storage embedded in a region buffer.

    `buf` holds the status records (writable); `pixel_buf` holds the
    frame pixel blocks and may be a read-only mapping on the consumer
    side. Both default to the same buffer.
    """

    def __init__(self, buf, *, status_offset: int, data_offset: int,
                 frame_stride: int, depth: int,
                 geometry: SurfaceGeometry, fmt: PixelFormat,
                 pixel_buf=None):
        if depth < 1:
            raise ValueError("queue depth must be at least 1")
        if frame_stride < geometry.frame_bytes:
            raise ValueError("frame stride smaller than one frame")
        self._buf = memoryview(buf)
        self._pix = memoryview(pixel_buf) if pixel_buf is not None else self._buf
        self._status_offset = status_offset
        self._data_offset = data_offset
        self._stride = frame_stride
        self.depth = depth
        self.geometry = geometry
        self.format = PixelFormat(fmt)
        # status, sequence of slot 0, status, sequence of slot 1, ...
        self._records = struct.Struct("<" + "I4xQ" * depth)
        self._surfaces: List[Optional[Surface]] = [None] * depth
        self.held: Optional[FrameHandle] = None   # the consumer's frame
        # Sequences never reset, so the producer counter is recoverable
        # from the buffer after a reattach.
        self._next_seq = self.newest_sequence() + 1

    # -- record access ----------------------------------------------------

    def _rec(self, index: int) -> int:
        if not 0 <= index < self.depth:
            raise IndexError(f"slot {index} out of range")
        return self._status_offset + index * STATUS_RECORD_SIZE

    def _read(self) -> tuple:
        return self._records.unpack_from(self._buf, self._status_offset)

    def _checked_read(self) -> tuple:
        """Every status and sequence, flattened; ProtocolViolation for a
        status outside FREE..DRAWING."""
        records = self._read()
        states = records[::2]
        if max(states) > _DRAWING:
            index = next(i for i, s in enumerate(states) if s > _DRAWING)
            raise ProtocolViolation(
                f"slot {index} has invalid status {states[index]}")
        return records

    def _status_word(self, index: int) -> int:
        """The slot's status; ProtocolViolation outside FREE..DRAWING."""
        word = _STATUS.unpack_from(self._buf, self._rec(index))[0]
        if word > _DRAWING:
            raise ProtocolViolation(f"slot {index} has invalid status {word}")
        return word

    def _expect(self, index: int, state: int) -> None:
        word = self._status_word(index)
        if word != state:
            rec = self._read()  # the evidence, read only when raising
            slots = ", ".join(f"{i}={FrameState(s).name if s <= _DRAWING else s}"
                              f"#{rec[2 * i + 1]}" for i, s in enumerate(rec[::2]))
            held = self.held and f"slot {self.held.index}#{self.held.sequence}"
            raise ProtocolViolation(
                f"slot {index} is {FrameState(word).name}, not "
                f"{FrameState(state).name}; slots [{slots}], held {held}")

    def _set_status(self, index: int, state: int) -> None:
        # One byte store: struct.pack_into zeroes the word before it stores,
        # so another process could read the slot FREE midway. Every state
        # fits the low byte, and a word read valid has its other bytes zero.
        self._buf[self._rec(index)] = state

    def status(self, index: int) -> FrameState:
        return FrameState(self._status_word(index))

    def sequence(self, index: int) -> int:
        return _SEQ.unpack_from(self._buf, self._rec(index) + 8)[0]

    def newest_sequence(self) -> int:
        """The highest sequence in any slot; it reads no status to check."""
        return max(self._read()[1::2])

    def statuses(self) -> tuple:
        return tuple(map(FrameState, self._checked_read()[::2]))

    def surface(self, index: int) -> Surface:
        """The slot's pixels: one Surface per slot, built on first use."""
        self._rec(index)
        surface = self._surfaces[index]
        if surface is None:
            surface = self._surfaces[index] = Surface(
                self._pix, self.geometry, self.format,
                offset=self._data_offset + index * self._stride)
        return surface

    # -- producer side ----------------------------------------------------

    def acquire_frame(self) -> Optional[FrameHandle]:
        """Move the first FREE slot to UPDATING; None when no slot is FREE."""
        states = self._checked_read()[::2]
        if _FREE not in states:
            return None
        i = states.index(_FREE)
        self._set_status(i, _UPDATING)
        return FrameHandle(i, 0, self.surface(i))

    def submit_frame(self, handle: FrameHandle) -> None:
        """Publish an UPDATING slot: assign the next sequence, mark READY.

        The sequence write precedes the status write so any party that
        observes READY also observes the frame's pixels and sequence.
        """
        self._expect(handle.index, _UPDATING)
        seq = self._next_seq
        _SEQ.pack_into(self._buf, self._rec(handle.index) + 8, seq)
        self._set_status(handle.index, _READY)
        self._next_seq = seq + 1
        handle.sequence = seq

    # -- consumer side ----------------------------------------------------

    def take_for_display(self) -> Optional[FrameHandle]:
        """Move the newest READY slot to DRAWING, free older READY ones and
        release the frame held before, unless it is that same slot; the new
        frame becomes `held`. None, with `held` kept, when none is READY."""
        records = self._checked_read()
        ready = [(records[2 * i + 1], i) for i in range(self.depth)
                 if records[2 * i] == _READY]
        if not ready:
            return None
        seq, idx = max(ready)
        for _, stale in ready:
            if stale != idx:
                self._set_status(stale, _FREE)
        self._set_status(idx, _DRAWING)
        previous, self.held = self.held, FrameHandle(idx, seq, self.surface(idx))
        if previous is not None and previous.index != idx:
            self.release_frame(previous)
        return self.held

    def release_frame(self, handle: FrameHandle) -> None:
        self._expect(handle.index, _DRAWING)
        self._set_status(handle.index, _FREE)
