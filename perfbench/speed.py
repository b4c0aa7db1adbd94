"""Host-speed normalisation for the benchmark's timings.

The machines this benchmark runs on share their cores with other tenants,
and the speed a process gets can change by half within a minute while
its CPU time keeps pace with the wall clock, so neither clock alone gives
steady figures. Every timing the benchmark reports is therefore rescaled by
a calibration loop run interleaved with the work: a fixed pure-Python slice
whose time tracks the host's current speed for interpreter-bound code. A
slowdown of the host stretches the work and the slices alike and cancels
in the ratio; a slower simulator stretches only the work and shows.

Reported seconds are "reference seconds": the raw seconds of one kpu
command times (REFERENCE_SLICE_S / s) ** ELASTICITY, where s is the mean
time of the slices run during the command and the one just before it. That
estimates the time the command would take on a host where one slice takes
REFERENCE_SLICE_S. The slice reacts more strongly to a busy host than the
simulator does; ELASTICITY is the exponent that made the rescaled times of
``kpu run``, ``kpu oracle`` and ``kpu compare`` steadiest over 90 s of
is_add_long reps on a shared 2-vCPU Xeon VM (rep-to-rep IQR over median of
``kpu oracle``: 0.41 raw, 0.070 at exponent 1.0, 0.058 at 0.8).
"""

import contextlib
import signal
import time

REFERENCE_SLICE_S = 0.00625     # one slice at the reference host speed
ELASTICITY = 0.8
SLICE_LOOPS = 8000
# One slice per 30 ms: the host's speed wanders within a second, so a
# 300 ms command needs several slices of its own to be rescaled well.
INTERVAL_S = 0.03


class _Cell:
    def __init__(self, value, key):
        self.value = value
        self.key = key

    def mix(self, x):
        return (((x << 7) | (x >> 25)) ^ self.key) & 0xFFFFFFFF


_KEYS = {i: (i * 2654435761) & 0xFFFFFFFF for i in range(64)}


def calibration_slice():
    """Seconds taken by a fixed mix of the operations a simulator in pure
    Python spends its time on: object creation, attribute and dict look-ups,
    method calls, isinstance and 32-bit integer arithmetic."""
    cells = [None] * 16
    x = 1
    start = time.perf_counter()
    for i in range(SLICE_LOOPS):
        cell = _Cell(x, _KEYS.get(i & 63))
        cells[i & 15] = cell
        x = cell.mix(x)
        if isinstance(cells[(i + 1) & 15], _Cell):
            x += 1
    return time.perf_counter() - start


def rescale(mean_slice_s):
    """Raw-to-reference factor at a host speed where a slice takes
    `mean_slice_s`."""
    return (REFERENCE_SLICE_S / mean_slice_s) ** ELASTICITY


class SpeedSampler:
    """Runs one calibration slice on every SIGALRM while `running`.

    ``now()`` is a clock that stops while a slice runs, so the slices never
    count as the work they interleave with.
    """

    def __init__(self):
        self.slice_s = 0.0              # all slices so far
        self.slices = 0
        self.last = 0.0                 # the most recent slice
        self._stolen = 0.0
        self._busy = False              # a slice is running

    def now(self):
        return time.perf_counter() - self._stolen

    def _tick(self, signum=None, frame=None):
        if self._busy:                  # on a host too slow to keep up
            return
        self._busy = True
        start = time.perf_counter()
        self.last = calibration_slice()
        self.slice_s += self.last
        self.slices += 1
        self._stolen += time.perf_counter() - start
        self._busy = False

    def mark(self):
        return self.slice_s, self.slices, self.last

    def factor(self, since):
        """Raw-to-reference factor for work done since `since` (a mark):
        from the slices taken during it and the last one before it."""
        mean = (self.slice_s - since[0] + since[2]) / (self.slices - since[1] + 1)
        return rescale(mean)

    @contextlib.contextmanager
    def running(self):
        self._tick()                    # so that every mark has a last slice
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
