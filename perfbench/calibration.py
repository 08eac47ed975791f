"""Calibration kernel: times at a reference speed on a shared host.

The kernel has two parts: CAL_STEPS products of 3x3 matrices in a Python
loop, the same mix of interpreter and small numpy calls as the package's
hot loops, and CAL_WIDE_STEPS contractions of a 15^4 tensor with a 15x15
matrix, the kind of array work of the n = 15 composite.  One run takes
1.5-2.5 ms, a quarter to a third of it in the second part.  Over 150 s of
composite operations, the medians of 15 s windows scaled by both parts
stayed within 14% of each other, and within 21% with the first part alone.
The host's speed drifts by 20-30% from one minute to the next, and each of its
two vCPUs switches between two speeds about 2x apart every few seconds,
while the ratio of a timed interval to the kernel's time next to it, in
the same process, varies far less.  So every reported time is scaled by
CAL_REF_S over the kernel's mean time next to it.  CAL_REF_S is a fixed
reference, near the kernel's time on the host where the benchmark was
written (2-vCPU Xeon at 2.1 GHz, Python 3.11, numpy 2.4).

In the benchmark's own process the kernel runs between timed operations,
for CAL_SHARE of the operation just timed (``Calibration``).  A set-up
interpreter runs it SETUP_RUNS times after its set-up and prints the result
(``report()``): a kernel run by the parent does not track the speed of the
CPU the child ran on.
"""

from __future__ import annotations

import json
import time

import numpy as np

CAL_STEPS = 1000
CAL_WIDE_STEPS = 20
CAL_SHARE = 0.05
CAL_REF_S = 0.002
SETUP_RUNS = 40

_A = np.full((3, 3), 0.1)
_EYE = np.eye(3)
_rng = np.random.default_rng(0)
_T = _rng.standard_normal((15, 15, 15, 15))
_B = _rng.standard_normal((15, 15)) / 15.0


def kernel():
    """One run of the kernel; returns its time."""
    x, y = _EYE, np.eye(15)
    t0 = time.perf_counter()
    for _ in range(CAL_STEPS):
        x = np.dot(x, _A) + _EYE
    for _ in range(CAL_WIDE_STEPS):
        y = _B @ np.einsum("ijkl,kl->ij", _T, y)
        y /= np.abs(y).max()
    return time.perf_counter() - t0


def report(runs=SETUP_RUNS):
    """Print the total and the mean time of ``runs`` kernel runs as JSON."""
    times = [kernel() for _ in range(runs)]
    print(json.dumps({"kernel_total_s": sum(times), "kernel_mean_s": sum(times) / runs}))


def scale_child(wall, line):
    """A child's wall time at reference speed, given the last line it
    printed with ``report()``: the kernel's own time is taken out, and the
    rest is scaled by the kernel's mean."""
    k = json.loads(line)
    return (wall - k["kernel_total_s"]) * CAL_REF_S / k["kernel_mean_s"]


class Calibration:
    """Runs the kernel between back-to-back timed intervals of this process
    and scales each interval by the kernel's mean time right before and
    right after it."""

    def __init__(self):
        self.runs = 0
        self._before = None

    def sample(self, busy):
        """Run the kernel for CAL_SHARE of ``busy`` seconds, at least once;
        returns its mean time."""
        spent, runs = 0.0, 0
        while runs == 0 or spent < CAL_SHARE * busy:
            spent += kernel()
            runs += 1
        self.runs += runs
        return spent / runs

    def start(self):
        """Sample the speed before a series of back-to-back intervals."""
        self._before = self.sample(0.0)

    def scaled(self, dt):
        """The interval ``dt`` that just ended, at reference speed; the
        sample taken after it is also the one before the next interval."""
        after = self.sample(dt)
        factor = CAL_REF_S / (0.5 * (self._before + after))
        self._before = after
        return factor * dt
