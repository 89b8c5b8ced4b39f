"""Machine-speed calibration for the timed metrics.

A shared 2-vCPU host does not run at one speed: on the box the benchmark was
written on, one fixed 1000-task trial took anywhere from 0.9 s to 1.8 s
within a few minutes, in stretches of seconds, with CPU time tracking wall
time (the process is not descheduled; each instruction is slower). Raw
throughput therefore spread by 0.2-0.3 (interquartile range ÷ median)
between 20-second windows of the same code on the same inputs.

The benchmark cancels that drift by timing a fixed reference loop, which is
benchmark code and never the program's, *while* the timed work runs: a
:class:`SpeedMeter` takes a short sample at most every ``INTERVAL_S`` of
program time, from a hook the timed work calls often (a mapping-event
observer offline, ``SchedulerCore.submit`` in the service). Sample time is
taken out of the measured time, and the remainder is scaled by
``REF_SAMPLE_S ÷ mean sample``: the throughput metrics and the offline
latency metrics are reported in *reference-speed* seconds, the time the work
would take on a machine that runs one sample in ``REF_SAMPLE_S``. A change that makes the program faster
moves the metric exactly as it moves raw time; a machine that slows down
slows the samples and the program together, and the ratio stays put. In
probes the sampled ratio spread 0.02-0.05 where raw time spread 0.16-0.18.
"""

from __future__ import annotations

import time

#: Wall seconds one sample takes on the reference machine (the median on the
#: 2-vCPU container the benchmark was written on).  A constant, so that
#: every run and every commit shares one scale.
REF_SAMPLE_S = 0.0019
#: Program seconds between samples.
INTERVAL_S = 0.025
#: Samples on each side of a short span that ``local_scale`` averages.
LOCAL_SAMPLES = 2
_LOOP = 300


def sample() -> float:
    """Run the reference loop once; its wall seconds.

    A mix of interpreter work (integer arithmetic, a dict store) and small
    NumPy calls, like the program's hot paths.  NumPy is imported here, not
    at module level, so that importing this module takes no NumPy import out
    of a timed set-up.
    """
    start = time.perf_counter()
    import numpy as np

    acc = 0
    table: dict[int, int] = {}
    a = np.arange(64, dtype=float)
    for i in range(_LOOP):
        acc += i * 3 % 7
        table[i & 255] = acc
        a = np.convolve(a[:32], a[:8])[:64]
        a = a / (a.sum() + 1.0)
    return time.perf_counter() - start


def scale_for(samples: int, sampled_s: float) -> float:
    """Factor from measured seconds to reference-speed seconds."""
    return REF_SAMPLE_S * samples / sampled_s


def local_scale(history: list[float], k: int) -> float:
    """Reference-speed factor for a span that started after ``k`` samples.

    Averages the ``LOCAL_SAMPLES`` samples on each side of it, so that a
    burst of host slowness a few tens of milliseconds long is scaled away.
    """
    near = history[max(0, k - LOCAL_SAMPLES):k + LOCAL_SAMPLES]
    return scale_for(len(near), sum(near))


class SpeedMeter:
    """Samples the reference loop at most every ``INTERVAL_S`` of program time.

    ``program_clock()`` is ``perf_counter`` minus the time spent sampling, so
    a span read on it holds the program's work only.  A timed span is
    bracketed by ``take()`` calls, so it has samples from its start and end
    even when the hook never fires in between::

        mark = meter.mark()
        meter.take()
        start = meter.program_clock()
        ...  # timed work that calls meter.tick()
        elapsed = meter.program_clock() - start
        meter.take()
        reference_s = elapsed * meter.scale_since(mark)
    """

    def __init__(self) -> None:
        self.sampled_s = 0.0
        self.samples = 0
        #: Wall seconds of every sample, in order.
        self.history: list[float] = []
        self._next = 0.0
        sample()  # warm-up, not counted: a process's first sample runs cold

    def program_clock(self) -> float:
        return time.perf_counter() - self.sampled_s

    def take(self) -> None:
        seconds = sample()
        self.history.append(seconds)
        self.sampled_s += seconds
        self.samples += 1
        self._next = self.program_clock() + INTERVAL_S

    def tick(self) -> None:
        """Take a sample if ``INTERVAL_S`` of program time passed since the last."""
        if self.program_clock() >= self._next:
            self.take()

    def mark(self) -> tuple[int, float]:
        return self.samples, self.sampled_s

    def scale_since(self, mark: tuple[int, float]) -> float:
        """Reference-speed factor over the samples taken since ``mark``."""
        return scale_for(self.samples - mark[0], self.sampled_s - mark[1])
