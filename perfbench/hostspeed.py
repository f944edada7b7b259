"""Host-speed reference: a fixed kernel timed at every slot boundary.

The benchmark host switches between speed regimes that differ by about
1.45x on a timescale of seconds, and neither steal time nor a
calibration taken before and after a run tracks them.  A fixed
reference kernel timed *at every slot boundary* does: each interval of
program time is divided by the kernel's slowdown measured next to it,
``k / K_REF``, and so reported at a reference host speed.  The kernel
is a tight Python loop; it never calls ``repro``.

One kernel normalises every workload.  The regimes slow different kinds
of code by different factors (in-cache NumPy about 1.1x, a Python loop
about 1.4x), so a change that moves a workload's time between Python
and NumPy is read with a bias of up to that ratio in the slow regime.
Raw seconds are therefore reported beside the normalised ones (see
README.md).

:class:`KernelEnvironment` injects the kernel into a run: it wraps the
workload's own environment, ticks the clock in ``devices_at`` (called
once per slot by every engine) and forwards every other attribute, so
the program takes the same path as with the bare environment.
"""

from __future__ import annotations

import copy
import random
import statistics
import time
from dataclasses import dataclass

#: Seconds the reference kernel takes at the reference host speed: a
#: constant of the benchmark.  A tick's slowdown is ``k / K_REF``.
K_REF = 0.0009

#: Kernel samples on each side of an interval whose median is its speed
#: reference: wide enough to outvote one preempted sample, narrow enough
#: (a few slots) to follow a regime switch.
WINDOW = 3


class ReferenceKernel:
    """A Python loop over floats with dict stores, same inputs every
    call; returns its duration."""

    def __init__(self) -> None:
        rng = random.Random(20210707)
        self._values = [rng.random() for _ in range(5000)]
        self.sink = 0.0

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0.0
        table: dict[int, float] = {}
        for i, v in enumerate(self._values):
            total += v * (i & 7)
            table[i & 63] = total
        elapsed = time.perf_counter() - start
        self.sink += total + len(table)
        return elapsed


@dataclass(frozen=True)
class Timing:
    """Program time between the first and last tick, kernels excluded,
    per interval between ticks."""

    raw: tuple[float, ...]
    normalised: tuple[float, ...]

    @property
    def raw_s(self) -> float:
        return sum(self.raw)

    @property
    def normalised_s(self) -> float:
        return sum(self.normalised)

    @property
    def ticks(self) -> int:
        return len(self.raw) + 1


def median_total(timings: list[Timing]) -> Timing:
    """Interval by interval median over repeats of the same deterministic
    work, then summed: every interval's work counts, and a stall that
    hits one repeat does not."""
    if len({t.ticks for t in timings}) != 1:
        raise ValueError("repeats of the same work must tick equally often")
    return Timing(
        raw=tuple(statistics.median(v) for v in zip(*(t.raw for t in timings))),
        normalised=tuple(
            statistics.median(v) for v in zip(*(t.normalised for t in timings))
        ),
    )


class HostClock:
    """Times the reference kernel at every :meth:`tick` and turns the
    program time between ticks into reference-speed seconds."""

    def __init__(self) -> None:
        self.kernel = ReferenceKernel()
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.slowdowns: list[float] = []

    def tick(self) -> None:
        start = time.perf_counter()
        elapsed = self.kernel()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.slowdowns.append(elapsed / K_REF)

    def reset(self) -> None:
        self.starts = []
        self.ends = []
        self.slowdowns = []

    @property
    def count(self) -> int:
        return len(self.starts)

    def median_slowdown(self) -> float:
        """The host's slowdown over every recorded tick."""
        return statistics.median(self.slowdowns)

    def timing(self) -> Timing:
        """Raw and normalised program time of every recorded interval.

        Interval ``i`` runs from the end of tick ``i`` to the start of
        tick ``i + 1``; its speed reference is the median slowdown of the
        ``WINDOW`` ticks on each side of it."""
        if self.count < 2:
            raise ValueError("need at least two ticks to time an interval")
        raw = []
        normalised = []
        for i in range(self.count - 1):
            gap = self.starts[i + 1] - self.ends[i]
            ref = statistics.median(
                self.slowdowns[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
            )
            raw.append(gap)
            normalised.append(gap / ref)
        return Timing(raw=tuple(raw), normalised=tuple(normalised))


class KernelEnvironment:
    """Wraps a workload's environment and ticks the host clock once per
    slot, in ``devices_at``; every other attribute (``system_at`` for a
    trace environment, for example) is the inner environment's own."""

    def __init__(self, inner, clock: HostClock) -> None:
        self.inner = inner
        self.clock = clock

    def devices_at(self, slot, base, rng):
        self.clock.tick()
        return self.inner.devices_at(slot, base, rng)

    def __getattr__(self, name: str):
        if name in ("inner", "clock"):
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __reduce_ex__(self, protocol):
        # A checkpoint pickles the simulator and with it the environment:
        # pickle the inner environment only, so checkpoints carry no clock.
        return (copy.copy, (self.inner,))
