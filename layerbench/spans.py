"""In-memory spans for the traced run, recorded from the benchmark's side.

The tracer wraps the calls the compositor makes across module boundaries
(blit, target clear, queue take/release, header and heartbeat reads, the
sink's present) and the replay's own calls. Nothing under src/ changes:
module attributes and instance attributes are swapped while the traced
replay runs and restored after each slice of it.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List

from fbcomp import compositor, shm


class Tracer:
    """Spans kept in flat lists: name, start, end, parent span, tick."""

    def __init__(self):
        self.name: List[str] = []
        self.start: List[int] = []
        self.end: List[int] = []
        self.parent: List[int] = []
        self.tick_of: List[int] = []
        self.tick = 0
        self._open = -1

    def call(self, name, fn, *args):
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._open)
        self.tick_of.append(self.tick)
        self.start.append(0)
        self.end.append(0)
        outer, self._open = self._open, i
        t0 = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.end[i] = perf_counter_ns()
            self.start[i] = t0
            self._open = outer

    def wrap(self, name, fn):
        def traced(*args):
            return self.call(name, fn, *args)
        return traced

    def durations(self) -> Dict[str, List[int]]:
        out: Dict[str, List[int]] = {}
        for name, s, e in zip(self.name, self.start, self.end):
            out.setdefault(name, []).append(e - s)
        return out

    def self_times(self, name: str) -> List[int]:
        """Duration of each `name` span minus its direct children."""
        child_ns: Dict[int, int] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_ns[p] = child_ns.get(p, 0) + self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child_ns.get(i, 0)
                for i, n in enumerate(self.name) if n == name]

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("id", "name", "start_ns", "end_ns", "parent", "tick"))
            for row in zip(range(len(self.name)), self.name, self.start,
                           self.end, self.parent, self.tick_of):
                w.writerow(row)


@contextmanager
def instrument(tracer: Tracer, stack):
    """Wrap the compositor's cross-module calls on `stack` while active."""
    queues = [desc.queue for desc in stack.server.clients.values()]
    blit = compositor.blit
    read_header = shm.read_header
    read_heartbeat = shm.read_heartbeat

    def traced_blit(src, dst, at):
        name = ("pixel.blit_native" if src.format == dst.format
                else "pixel.blit_convert")
        return tracer.call(name, blit, src, dst, at)

    compositor.blit = traced_blit
    shm.read_header = tracer.wrap("shm.read_header", read_header)
    shm.read_heartbeat = tracer.wrap("shm.read_heartbeat", read_heartbeat)
    stack.target.clear = tracer.wrap("pixel.clear", stack.target.clear)
    stack.sink.present = tracer.wrap("sinks.present", stack.sink.present)
    for q in queues:
        q.take_for_display = tracer.wrap("frame_queue.take", q.take_for_display)
        q.release_frame = tracer.wrap("frame_queue.release", q.release_frame)
    try:
        yield tracer
    finally:
        compositor.blit = blit
        shm.read_header = read_header
        shm.read_heartbeat = read_heartbeat
        # Dropping the instance attributes brings back the class methods.
        del stack.target.clear, stack.sink.present
        for q in queues:
            del q.take_for_display, q.release_frame
