"""Clock abstraction: wall time for benchmarks, simulated time for tests.

All timestamps in the stack are integer microseconds.
"""

from __future__ import annotations

import time


class Clock:
    def now_us(self) -> int:
        raise NotImplementedError

    def sleep_us(self, amount: int) -> None:
        raise NotImplementedError


class WallClock(Clock):
    def now_us(self) -> int:
        return time.monotonic_ns() // 1000

    def sleep_us(self, amount: int) -> None:
        if amount > 0:
            time.sleep(amount / 1e6)


class SimClock(Clock):
    """Discrete clock advanced explicitly by the test or scenario driver.

    sleep_us advances time, so code written against Clock behaves
    identically under simulation.
    """

    def __init__(self):
        self._now = 0

    def now_us(self) -> int:
        return self._now

    def sleep_us(self, amount: int) -> None:
        if amount < 0:
            raise ValueError("cannot sleep a negative amount")
        self._now += int(amount)

    def advance_to(self, t_us: int) -> None:
        if t_us < self._now:
            raise ValueError("simulated time cannot go backwards")
        self._now = int(t_us)
