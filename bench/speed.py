"""Host-speed calibration for the timed figures.

On a shared host the same code runs at different speeds from one second to
the next (measured: phases of seconds to minutes at 1.0-2.0 times the fastest
speed), so raw wall times mostly sample the host. A ``Sampler`` therefore
times a short fixed kernel of pure-Python exact and float arithmetic every
``SAMPLE_EVERY_S`` seconds of wall time (from a timer signal, so also in the
middle of an op) and once between ops. An interval's calibrated time is its
wall time, less the kernel runs inside it, times the mean speed
``KERNEL_REF_S / kernel time`` of the samples inside it and of the nearest
sample on each side: the interval's time on a machine where the kernel takes
``KERNEL_REF_S``. The kernel does not touch flowgames, so a change to the
program moves calibrated times as much as wall times; raw wall times are kept
in every results file next to the calibrated ones.

Child processes (set-up processes, ``cli`` ops) sample themselves and print
their samples as the last line of stderr, with the tag ``SAMPLES_TAG``;
``perf_counter`` is the system's monotonic clock, so the parent merges them
into its own sampler.
"""

from __future__ import annotations

import atexit
import json
import signal
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import itemgetter
from pathlib import Path
from time import perf_counter

# the kernel's time at the host's fast speed on the 2-vCPU machine the bounds
# were set on (Python 3.11); a constant, so figures compare across runs
KERNEL_REF_S = 0.00035
SAMPLE_EVERY_S = 0.01
SAMPLES_TAG = "speed-samples:"
# Python statements that make a `python -c` process sample itself until it exits
CHILD_PREAMBLE = (
    f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
    "import speed; del sys.path[0]; speed.sample_child_until_exit(); "
)


def _kernel() -> float:
    exact = Fraction(0)
    for i in range(1, 120):
        exact += Fraction(1, i)
    x = 0.5
    for _ in range(1500):
        x = 3.7 * x * (1.0 - x)
    return float(exact) + x


class Sampler:
    """Kernel samples (start time, kernel seconds), in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self, *_signal_args) -> None:
        # a timer signal that lands in a sample taken between ops is dropped
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        _kernel()
        self.samples.append((t0, perf_counter() - t0))
        self._busy = False

    def start_timer(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def extend(self, samples) -> None:
        self.samples.extend((t0, k) for t0, k in samples)

    def measure(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, calibrated) seconds of [t0, t1], both without the kernel runs inside."""
        lo = bisect_left(self.samples, t0, key=itemgetter(0))
        hi = bisect_right(self.samples, t1, key=itemgetter(0))
        wall = t1 - t0 - sum(k for _start, k in self.samples[lo:hi])
        near = self.samples[max(lo - 1, 0) : hi + 1]
        return wall, wall * sum(KERNEL_REF_S / k for _start, k in near) / len(near)


def sample_child_until_exit() -> None:
    """Sample this process until it exits, then print the samples to stderr."""
    sampler = Sampler()
    sampler.sample()

    def report():
        sampler.stop_timer()
        sampler.sample()
        print(SAMPLES_TAG + json.dumps(sampler.samples), file=sys.stderr)

    atexit.register(report)
    sampler.start_timer()


def split_child_samples(stderr: str) -> tuple[str, list]:
    """(stderr without the samples line, the child's samples)."""
    head, tag, samples = stderr.rpartition(SAMPLES_TAG)
    if not tag:
        return stderr, []
    return head, json.loads(samples)
