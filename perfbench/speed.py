"""Refer measured times to a nominal machine speed.

On a shared 2-core host (the baseline machine in NOTES.md) the same code runs
at speeds that drift by up to ~60% over seconds to minutes; CPU time drifts
with wall time, so it is contention on the host, not descheduling.  Between
trials the run therefore times a fixed reference that does not touch the
package: ``kernel`` (interpreter work, small numpy ufuncs and a small
least-squares solve, the three kinds of work the in-process workloads do) or
``child_kernel`` (a fresh interpreter importing numpy, for work done in child
processes).  A trial's slowdown is the median reference time within
``WINDOW_S`` of the trial over the nominal time; its reported time is the
measured time divided by that slowdown.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_S = 2.0e-3  # kernel time that counts as slowdown 1
EVERY_S = 0.05  # trial time between two kernel timings
WINDOW_S = 0.5

_X = np.linspace(0.0, 1.0, 400)
_DESIGN = np.column_stack([np.ones_like(_X), np.cos(_X), np.sin(_X),
                           np.cos(3.0 * _X), np.sin(3.0 * _X)])


def kernel() -> float:
    table: dict[int, int] = {}
    for i in range(8000):
        table[i % 97] = table.get(i % 97, 0) + i * i % 7
    acc = float(sum(table.values()))
    for i in range(40):
        y = np.cos(_X * i) + np.sin(_X)
        acc += float(y @ y)
    for _ in range(6):
        acc += float(np.linalg.lstsq(_DESIGN, _X, rcond=None)[0][0])
    return acc


def child_kernel() -> None:
    """A fresh interpreter importing numpy: the start-up work of a CLI call."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


class SpeedProbe:
    def __init__(self, kernel=kernel, nominal_s: float = NOMINAL_S,
                 every_s: float = EVERY_S, warmup: int = 20):
        self.kernel = kernel
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._owed = 0.0  # trial time not yet matched by kernel timings
        for _ in range(warmup):
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        self.kernel()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def after_trial(self, elapsed: float) -> None:
        self._owed += elapsed
        while self._owed >= self.every_s:
            self._owed -= self.every_s
            self.sample()

    def slowdown(self) -> float:
        """Slowdown over the whole run."""
        return statistics.median(self.durations) / self.nominal_s

    def local_slowdowns(self, starts, durations) -> np.ndarray:
        """Slowdown around each trial, from the kernel timings near it."""
        t = np.asarray(self.starts)
        r = np.asarray(self.durations)
        starts = np.asarray(starts)
        lo = np.searchsorted(t, starts - WINDOW_S)
        hi = np.searchsorted(t, starts + np.asarray(durations) + WINDOW_S)
        whole = float(np.median(r))
        return np.array([np.median(r[a:b]) if b > a else whole
                         for a, b in zip(lo, hi)]) / self.nominal_s
