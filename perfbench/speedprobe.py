"""A fixed piece of work whose time tells how fast the host runs right now.

The shared host this benchmark was built on runs the same process at two
speeds, about 1.6 times apart, in spells of seconds to minutes (NOTES.md,
"Steadiness").  A pass timed in a slow spell reads up to 40% slower, for no
reason in the program.  The benchmark therefore times this probe during every
pass and reports the program's time scaled to the reference speed, the speed
at which one probe takes REF_S seconds:

    scaled time = measured time * mean(REF_S / probe time)

The probe spends about half its time in interpreter work (dict and int
operations) and half in small numpy calls, the two kinds of work autorbit's
layers do.  A slow spell slows the first kind more than the second, and the
workloads sit between: the Fraction and dict-heavy wreath commands near the
first, the array-heavy group enumeration of paper-table near the second.
The probe runs no autorbit code, so a change to autorbit cannot change it,
and it allocates only a few kB, so it does not move the peak RSS.
"""

from __future__ import annotations

import signal
import time

import numpy as np

EVERY_S = 0.25   # a timed probe every this many seconds of a pass
REF_S = 0.002    # one probe's time at the reference speed
BURST = 8        # probes timed after each import, for setup_s

_ARRAY = np.arange(2048, dtype=np.int64)


def work() -> int:
    table: dict = {}
    acc = 0
    for i in range(3600):
        table[i & 511] = table.get(i & 511, 0) + i
        acc += i * i % 7
    for _ in range(12):
        b = _ARRAY[::-1].copy()
        b.sort()
        acc += int(np.unique((b * 7) % 13).size)
    return acc


def timed() -> tuple[float, float]:
    """(wall, CPU) seconds of one probe."""
    t0, c0 = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - t0, time.process_time() - c0


def burst() -> float:
    """The speed, relative to the reference, over BURST probes in a row."""
    return sum(REF_S / timed()[0] for _ in range(BURST)) / BURST


class Sampler:
    """Times one probe every EVERY_S seconds from a SIGALRM timer while the
    commands of a pass run, and keeps the probes' own time so that it can be
    taken out of the commands' times."""

    def __init__(self):
        self.speeds: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0

    def _sample(self) -> tuple[float, float]:
        wall, cpu = timed()
        self.speeds.append(REF_S / wall)
        return wall, cpu

    def _on_timer(self, signum, frame) -> None:
        wall, cpu = self._sample()
        self.spent_wall += wall
        self.spent_cpu += cpu

    def _sample_between_commands(self) -> None:
        # with the timer blocked, so that a timer probe cannot land inside it
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self._sample()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def start(self) -> None:
        self._sample()  # so the first command has a probe right before it
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[int, float, float]:
        return len(self.speeds), self.spent_wall, self.spent_cpu

    def since(self, mark: tuple[int, float, float]) -> dict:
        """The probes' time since mark, and the mean speed over the probe right
        before mark, those since, and one timed now, after the command."""
        first, wall0, cpu0 = mark
        spent = {"wall_s": self.spent_wall - wall0, "cpu_s": self.spent_cpu - cpu0}
        self._sample_between_commands()  # outside the command's time, so not spent
        speeds = self.speeds[first - 1:]
        return dict(spent, speed=sum(speeds) / len(speeds), samples=len(speeds))
