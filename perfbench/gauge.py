"""A clock that discounts the speed of a shared machine.

On a shared host the same work runs at very different speeds from one second
to the next (a fixed Frank-Wolfe solve of ~2 s took 1.1-2.6 s, CPU time
following wall time), so a plain wall time measures the neighbours as much as
the program. While a ``Gauge`` is open, an interval timer interrupts the
measured code every ``INTERVAL_S`` seconds and runs one fixed burst of work
between two bytecodes of the main thread. The bursts sample the machine's
speed through the measurement; the reading removes their time and rescales
the rest by how slow they ran:

    gauged_s = (wall_s - time in bursts) * NOMINAL_BURST_S / mean burst time

that is, the time the code would have taken on a machine where one burst
takes ``NOMINAL_BURST_S``. The bursts use no portopt code, so a change to the
program moves ``gauged_s`` only through the program's own time.

The burst is pure-Python interpreter work, so it can time an import before
numpy is loaded. On six identical ``backtest`` passes whose plain time spread
0.13 (interquartile range over median), the gauged time spread 0.05; a burst
of small numpy operations tracked worse there (0.09).

Uses ``SIGALRM``; not for code that sets its own alarm or runs its work off
the main thread.
"""

from __future__ import annotations

import signal
from time import perf_counter

INTERVAL_S = 0.02
NOMINAL_BURST_S = 0.001  # about what one burst takes on a quiet 2-core VM


def burst() -> int:
    """A fixed piece of work: integer arithmetic with dict and list access."""
    acc = 0
    table: dict[int, int] = {}
    cells = [0] * 64
    for i in range(3000):
        acc = (acc * 31 + i) % 1000003
        table[i & 63] = acc
        cells[i & 63] += table.get((i + 1) & 63, 0) & 7
    return acc


class Gauge:
    """Context manager; ``reading()`` after it closes."""

    def __init__(self):
        self.bursts = 0
        self.burst_s = 0.0
        self.wall_s = 0.0
        self._busy = False
        self._start = 0.0
        self._previous = None

    def _tick(self, signum=None, frame=None) -> None:
        if self._busy:  # a tick that lands inside a burst is skipped, not nested
            return
        self._busy = True
        start = perf_counter()
        burst()
        self.burst_s += perf_counter() - start
        self.bursts += 1
        self._busy = False

    def __enter__(self) -> Gauge:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._start = perf_counter()
        self._tick()  # at least two bursts, however short the measurement
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._tick()
        self.wall_s = perf_counter() - self._start
        signal.signal(signal.SIGALRM, self._previous)

    def reading(self) -> dict:
        net = self.wall_s - self.burst_s
        mean = self.burst_s / self.bursts
        return {"wall_s": self.wall_s, "net_s": net, "bursts": self.bursts,
                "burst_s": mean, "gauged_s": net * NOMINAL_BURST_S / mean}
