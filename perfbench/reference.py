"""A fixed reference kernel that gauges how fast the machine runs right now.

The benchmark runs on shared hosts whose speed drifts by 30-50% over tens
of seconds, which moves every wall time of a run alike.  ``SpeedGauge``
runs the kernel every half second of the timed loop, and around each case;
a case's time measured in kernel runs cancels that drift, while a change
to projpoly moves the case time alone.

The kernel is pure Python and imports nothing from projpoly: fraction-free
(Bareiss) integer elimination on fixed small matrices, the same kind of
work as the rank tests of the double description method.  Its inputs never
depend on the workload seed.
"""

from __future__ import annotations

import signal
import time

# Seconds between two kernel runs of a SpeedGauge; each run takes about
# 25 ms, so the gauge pauses the loop it measures for about 5% of the time.
GAUGE_PERIOD_S = 0.5

# The kernel's typical time on the machine the benchmark was tuned on (a
# 2-vCPU 2.0 GHz Xeon KVM guest); speed-normalised times are scaled to it
# so that they read as seconds on that machine.
REFERENCE_KERNEL_S = 0.025

_REPEATS = 12


def _matrices(count: int = 40, rows: int = 6, cols: int = 7) -> list[list[list[int]]]:
    """Fixed matrices with entries in [-50, 50] from a linear congruential
    generator, so that they are the same on every run and Python version."""
    state = 12345
    out = []
    for _ in range(count):
        matrix = []
        for _ in range(rows):
            row = []
            for _ in range(cols):
                state = (1103515245 * state + 12345) % 2**31
                row.append(state % 101 - 50)
            matrix.append(row)
        out.append(matrix)
    return out


_MATRICES = _matrices()


def _bareiss_rank(matrix: list[list[int]]) -> int:
    rows = [row[:] for row in matrix]
    ncol = len(rows[0])
    rank, prev = 0, 1
    for c in range(ncol):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(p * rows[i][j] - f * rows[rank][j]) // prev for j in range(ncol)]
        prev = p
        rank += 1
    return rank


EXPECTED_RANKS = 6 * len(_MATRICES) * _REPEATS


def kernel_seconds() -> float:
    """Run the kernel once and return its wall time."""
    start = time.perf_counter()
    total = sum(_bareiss_rank(m) for _ in range(_REPEATS) for m in _MATRICES)
    elapsed = time.perf_counter() - start
    if total != EXPECTED_RANKS:
        raise AssertionError(f"reference kernel computed {total} ranks, expected {EXPECTED_RANKS}")
    return elapsed


class SpeedGauge:
    """Measures elapsed time in units of the kernel's time, which follows the
    machine's speed.

    Inside ``with SpeedGauge() as gauge`` a SIGALRM timer runs the kernel
    every ``GAUGE_PERIOD_S`` seconds, between two bytecodes of whatever the
    process is doing.  Each stretch of time between two kernel runs adds its
    length divided by the mean of those two kernel times to ``units``; the
    kernel's own time adds to ``paused_s`` instead.  ``mark()`` runs the
    kernel at once, so that a stretch can end exactly where a case does.
    """

    def __init__(self) -> None:
        self.units = 0.0
        self.paused_s = 0.0
        self._last: tuple[float, float] | None = None  # (end, kernel time) of the latest run
        self._busy = False
        self._handler = None

    def _sample(self) -> None:
        if self._busy:  # the timer fired during a run started by mark()
            return
        self._busy = True
        start = time.perf_counter()
        kernel_s = kernel_seconds()
        end = time.perf_counter()
        if self._last is not None:
            last_end, last_kernel_s = self._last
            self.units += (start - last_end) / ((last_kernel_s + kernel_s) / 2)
        self.paused_s += end - start
        self._last = (end, kernel_s)
        self._busy = False

    def mark(self) -> float:
        """Run the kernel now and return ``units`` up to its start."""
        self._sample()
        return self.units

    def __enter__(self) -> SpeedGauge:
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, GAUGE_PERIOD_S, GAUGE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
