"""Machine-speed sampling, so timings can be scaled to a reference speed.

The shared machine the benchmark runs on changes speed by tens of percent
over seconds to minutes, and the program slows with it.  While a program
process runs, and the benchmark process only waits for it, a ``Sampler``
thread times a fixed probe every ``INTERVAL_S``: numpy arithmetic on 16-cube
arrays, like the program's own.  The probe is kept short, under 2 ms, so the
scheduler seldom switches away in the middle of one.

``scale`` turns a wall time over a window of the process into seconds at the
reference speed: the time times ``REFERENCE_S`` over the median probe time
of the samples taken in that window.  A change to the program moves the
scaled time as much as the wall time, unless it changes how much the program
slows the probe; a change in machine speed moves the probe with it and
mostly cancels.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

INTERVAL_S = 0.25
REPS = 100
# Median probe time on the machine the bounds were set on (2-vCPU Intel Xeon
# VM, Python 3.11.7, numpy 2.4.6), so scaled times read close to wall times.
REFERENCE_S = 0.0017

_A = np.random.default_rng(0).standard_normal((16, 16, 16))
_K = np.arange(16.0)[:, None, None]


def probe() -> float:
    """Seconds for a fixed amount of numpy work on 16-cube arrays."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(REPS):
        total += float(np.sum(_A * _K + _A))
    return time.perf_counter() - start


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` while the ``with`` block runs.

    ``samples`` holds (start, seconds) pairs with ``time.perf_counter``
    stamps, which on Linux are comparable with the program process's own.
    The first sample is taken at once, so every window has one.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            start = time.perf_counter()
            self.samples.append((start, probe()))
            if self._stop.wait(INTERVAL_S):
                return

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds``, measured over [start, end], at the reference speed.

        Uses the samples begun in the window, or every sample if fewer than
        three were.
        """
        inside = [s for t, s in self.samples if start <= t < end]
        if len(inside) < 3:
            inside = [s for _, s in self.samples]
        return seconds * REFERENCE_S / statistics.median(inside)
