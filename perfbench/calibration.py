"""Machine-speed calibration: scale wall times to a reference machine speed.

On a shared machine, load from other tenants moves the speed of everything a
process does by up to 2x, in phases that last from a second to minutes, so
raw wall times from two runs can differ more than any change worth
measuring. A fixed pure-Python kernel sees the same slowdown: it traces the
faces of a 1,600-vertex lattice rotation system, the kind of dict, tuple and
set work that dominates planecolor.

While `sampling()` is active, a SIGALRM timer runs the kernel every
INTERVAL_S seconds of wall time, in this process's only thread, wherever the
program happens to be; inside a long coloring too. `clock()` is a
perf_counter that stops while the kernel runs, so intervals timed with it
leave the kernel out. Each kernel sample gets a local factor, REF_S over the
median of the NEAREST samples centred on it. A timed interval is scaled by
the mean factor over its span, each instant taking the factor of the sample
nearest to it.

Load changes within seconds, so the factor must be local and must cover the
inside of long intervals. On a 2-core VM under changing load, one factor per
run left a quartile spread of 0.11 in coloring times, samples taken only
between graphs left 0.23 on 5-second colorings, and local factors from
samples taken within 0.5 s of each instant brought short colorings to
0.02-0.05.

The kernel is part of the benchmark and calls no planecolor code, so a change
to the program cannot move the factor. The garbage collector is paused while
the kernel runs, so that the kernel neither collects the program's garbage
nor moves when the program's next collection comes.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

REF_S = 0.005  # kernel seconds on a calm 2.1 GHz x86-64 VM; fixes the scale only
SIDE = 40
DIRECTIONS = ((0, 1), (1, 1), (1, 0), (0, -1), (-1, -1), (-1, 0))
INTERVAL_S = 0.1  # kernel period; the kernel takes about 5% of the wall time
NEAREST = 5  # kernel samples that set the factor at one sample


def _lattice(k: int) -> dict[int, tuple[int, ...]]:
    """Rotation system of a k x k triangulated lattice patch."""
    return {r * k + c: tuple((r + dr) * k + c + dc for dr, dc in DIRECTIONS
                             if 0 <= r + dr < k and 0 <= c + dc < k)
            for r in range(k) for c in range(k)}


def _trace_faces(rot: dict[int, tuple[int, ...]]) -> int:
    seen = set()
    faces = 0
    for v, ns in rot.items():
        for u in ns:
            dart = (v, u)
            if dart in seen:
                continue
            while dart not in seen:
                seen.add(dart)
                a, b = dart
                nb = rot[b]
                dart = (b, nb[(nb.index(a) + 1) % len(nb)])
            faces += 1
    return faces


class Calibration:
    def __init__(self):
        self._rot = _lattice(SIDE)
        self._paused = 0.0  # wall seconds spent in the kernel
        self.samples: list[tuple[float, float]] = []  # (clock() time, kernel seconds)
        self._local: tuple[list[float], list[float]] | None = None  # cuts, factors

    def clock(self) -> float:
        """perf_counter without the time the kernel took."""
        return perf_counter() - self._paused

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        _trace_faces(dict(self._rot))
        t1 = perf_counter()
        if was_enabled:
            gc.enable()
        self.samples.append((t0 - self._paused, t1 - t0))
        self._paused += t1 - t0
        self._local = None

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)  # one shot: handlers never nest

    @contextmanager
    def sampling(self):
        """Sample the kernel every INTERVAL_S, and once at each end."""
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            self.sample()
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()

    def _cuts_and_factors(self) -> tuple[list[float], list[float]]:
        if self._local is None:
            times = [t for t, _ in self.samples]
            kernel = [s for _, s in self.samples]
            # Sample i stands for the instants nearer to it than to its neighbours.
            cuts = [(a + b) / 2 for a, b in zip(times, times[1:])]
            factors = []
            for i in range(len(kernel)):
                lo = min(max(0, i - NEAREST // 2), max(0, len(kernel) - NEAREST))
                factors.append(REF_S / statistics.median(kernel[lo:lo + NEAREST]))
            self._local = cuts, factors
        return self._local

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Multiply a time measured with `clock()` in [start, end] by this to
        get seconds at the reference speed. Without an interval: the whole
        run's factor."""
        if start is None:
            return REF_S / statistics.median(s for _, s in self.samples)
        cuts, local = self._cuts_and_factors()
        first, last = bisect.bisect_left(cuts, start), bisect.bisect_left(cuts, end)
        if first == last:
            return local[first]
        total = 0.0
        for i in range(first, last + 1):
            lo = start if i == first else cuts[i - 1]
            hi = end if i == last else cuts[i]
            total += (hi - lo) * local[i]
        return total / (end - start)

    def scale(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.factor(start, end)
