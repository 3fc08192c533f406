"""Exhaustive interleaving exploration of the frame-queue state machine.

One producer party and one consumer party step a real FrameQueue in
every possible order; every observed status-word change must be one of
the legal edges, performed by its owning party. The consumer's step is
the server's: one take, which replaces the frame it holds, and the only
DRAWING slot is the held one. States are canonicalized by
rank-normalizing slot sequences so the reachable graph is finite.
"""

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

from fbcomp.frame_queue import (STATUS_RECORD_SIZE, FrameHandle, FrameQueue,
                                FrameState)
from fbcomp.pixel import PixelFormat, SurfaceGeometry

GEOMETRY = SurfaceGeometry(1, 1, 4)

LEGAL_EDGES = {
    ("producer", FrameState.FREE, FrameState.UPDATING),
    ("producer", FrameState.UPDATING, FrameState.READY),
    ("consumer", FrameState.READY, FrameState.DRAWING),
    ("consumer", FrameState.DRAWING, FrameState.FREE),
    ("consumer-flush", FrameState.READY, FrameState.FREE),
}


def make_queue(depth: int, buf: Optional[bytearray] = None) -> FrameQueue:
    size = depth * STATUS_RECORD_SIZE + depth * GEOMETRY.frame_bytes
    if buf is None:
        buf = bytearray(size)
    return FrameQueue(buf, status_offset=0,
                      data_offset=depth * STATUS_RECORD_SIZE,
                      frame_stride=GEOMETRY.frame_bytes, depth=depth,
                      geometry=GEOMETRY, fmt=PixelFormat.R8G8B8A8)


@dataclass(frozen=True)
class ModelState:
    buf: bytes
    open_slot: Optional[int]      # producer's UPDATING slot
    drawing_slot: Optional[int]   # consumer's DRAWING slot

    def key(self, depth: int) -> Tuple:
        q = make_queue(depth, bytearray(self.buf))
        seqs = [q.sequence(i) for i in range(depth)]
        order = sorted(set(seqs))
        ranks = tuple(order.index(s) for s in seqs)
        return (q.statuses(), ranks, self.open_slot, self.drawing_slot)


def _check_step(actor: str, before: Tuple, after: Tuple,
                violations: List[str]) -> None:
    changed = [(i, b, a) for i, (b, a) in enumerate(zip(before, after)) if b != a]
    for i, b, a in changed:
        if actor == "consumer" and (b, a) == (FrameState.READY, FrameState.FREE):
            edge_actor = "consumer-flush"
        else:
            edge_actor = actor
        if (edge_actor, b, a) not in LEGAL_EDGES:
            violations.append(f"{actor} drove slot {i} {b.name}->{a.name}")
    if sum(1 for s in after if s == FrameState.UPDATING) > 1:
        violations.append(f"multiple UPDATING slots after {actor}: {after}")
    if sum(1 for s in after if s == FrameState.DRAWING) > 1:
        violations.append(f"multiple DRAWING slots after {actor}: {after}")


def _successors(state: ModelState, depth: int, violations: List[str]) -> List[ModelState]:
    out = []

    # producer step
    q = make_queue(depth, bytearray(state.buf))
    before = q.statuses()
    if state.open_slot is None:
        handle = q.acquire_frame()
        _check_step("producer", before, q.statuses(), violations)
        out.append(ModelState(bytes(q._buf), handle.index if handle else None,
                              state.drawing_slot))
    else:
        handle = FrameHandle(state.open_slot, 0, q.surface(state.open_slot))
        q.submit_frame(handle)
        after = q.statuses()
        _check_step("producer", before, after, violations)
        if q.sequence(state.open_slot) != max(
                q.sequence(i) for i in range(depth)):
            violations.append("submitted sequence is not the queue maximum")
        out.append(ModelState(bytes(q._buf), None, state.drawing_slot))

    # consumer step: the server's one take, on a view that holds the
    # model's drawing slot
    q = make_queue(depth, bytearray(state.buf))
    if state.drawing_slot is not None:
        q.held = FrameHandle(state.drawing_slot, 0,
                             q.surface(state.drawing_slot))
    before = q.statuses()
    ready = [(q.sequence(i), i) for i in range(depth)
             if before[i] == FrameState.READY]
    handle = q.take_for_display()
    after = q.statuses()
    _check_step("consumer", before, after, violations)
    if handle is not None and handle.index != max(ready)[1]:
        violations.append(
            f"take chose slot {handle.index}, wanted newest {max(ready)[1]}")
    held = q.held.index if q.held is not None else None
    drawing = [i for i, st in enumerate(after) if st == FrameState.DRAWING]
    if drawing != ([] if held is None else [held]):
        violations.append(f"consumer holds {held}, DRAWING slots {drawing}")
    out.append(ModelState(bytes(q._buf), state.open_slot, held))
    return out


def explore(depth: int) -> Tuple[int, List[str]]:
    """BFS over every producer/consumer interleaving.

    Returns (number of canonical states, violations).
    """
    violations: List[str] = []
    initial = ModelState(bytes(make_queue(depth)._buf), None, None)
    seen = {initial.key(depth)}
    frontier = deque([initial])
    while frontier:
        state = frontier.popleft()
        for nxt in _successors(state, depth, violations):
            k = nxt.key(depth)
            if k not in seen:
                seen.add(k)
                frontier.append(nxt)
    return len(seen), violations
