"""Host-speed reference that the benchmark's timings are scaled by.

On a shared virtual machine the speed of a core swings by up to 2x, between
two states that last from a tenth of a second to minutes, as other tenants
come and go.  There is no steal time to show for it: process CPU time slows
as much as wall time.  A 30 s run that falls in a slow phase then reads up to
twice as slow, whatever in-run statistic it takes.

So the benchmark times a fixed reference kernel every REFERENCE_EVERY_S while
it measures, from a SIGALRM handler in the measuring thread: the samples fall
inside long calls as well as between short ones, on the same core.  Each
call's time, less the samples taken inside it, is scaled by REFERENCE_S over
the mean of the samples inside it and the two that bracket it.  The scaled
figure is the call's time on a host where one kernel takes REFERENCE_S.  The
kernel is benchmark code and imports nothing from qbattery, so a change to the
program moves the scaled figure exactly as much as it moves the raw one.  The
kernel has the program's mix of work: complex plane rotations in a Python
loop over small numpy vectors, then float formatting.
"""

from __future__ import annotations

import bisect
import contextlib
import math
import signal
import time

import numpy as np

# Wall time of one `kernel()` on a 2-vCPU Intel Xeon VM (Python 3.11, numpy
# 2.4) in one of its fast phases.  Only a fixed scale: changing it rescales
# every timing and breaks comparison with earlier results.
REFERENCE_S = 0.020
# Interval from the end of one reference sample to the start of the next.
REFERENCE_EVERY_S = 0.25

_DIM = 10
_SWEEPS = 30


def _start_matrix() -> np.ndarray:
    rng = np.random.default_rng(20210210)
    g = rng.standard_normal((_DIM, _DIM)) + 1j * rng.standard_normal((_DIM, _DIM))
    return g + g.conj().T


_START = _start_matrix()


def kernel() -> str:
    """A fixed amount of work: _SWEEPS times, one sweep of Jacobi plane
    rotations on a fresh copy of a fixed complex Hermitian matrix (so no
    value ever shrinks towards zero), then the diagonal formatted as text."""
    for _ in range(_SWEEPS):
        a = _START.copy()
        for p in range(_DIM - 1):
            for q in range(p + 1, _DIM):
                apq = a[p, q]
                r = abs(apq)
                phase = apq / r
                theta = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                cp = c * np.conj(phase)
                sp = s * np.conj(phase)
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - sp * col_q
                a[:, q] = s * col_p + cp * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - (s * phase) * row_q
                a[q, :] = s * row_p + (c * phase) * row_q
    return ",".join(f"{x:.17g}" for x in np.real(np.diag(a)))


class SpeedProbe:
    """Reference samples of one run, in time order, taken every
    REFERENCE_EVERY_S while the probe is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.walls: list[float] = []
        self.spent = 0.0  # seconds spent in samples so far
        self._saved_handler = None

    def sample(self) -> None:
        start = time.perf_counter()
        kernel()
        wall = time.perf_counter() - start
        self.starts.append(start)
        self.walls.append(wall)
        self.spent += wall

    def _on_alarm(self, signum, frame) -> None:
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S)

    def __enter__(self) -> "SpeedProbe":
        self._saved_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)
        self.sample()

    @contextlib.contextmanager
    def paused(self):
        """Hold samples back, as while a child process runs on this core; a
        sample that fell due runs as soon as the block ends."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean of the samples taken between `start`
        and `end`, the last one before and the first one after."""
        i = bisect.bisect_left(self.starts, start) - 1
        j = bisect.bisect_left(self.starts, end)
        if i < 0 or j >= len(self.walls):
            raise RuntimeError("call not bracketed by reference samples")
        return REFERENCE_S / float(np.mean(self.walls[i:j + 1]))

    def host_speed(self) -> float:
        """REFERENCE_S over the run's median sample: 1 in a fast phase of the
        reference host, 0.5 when it runs at half speed."""
        return REFERENCE_S / float(np.median(self.walls))
