"""Host-speed reference that every reported time is scaled by.

The benchmark runs on shared virtual machines whose CPU speed drifts: over
a few minutes the same job can take 10 to 50% longer.  The drift slows
interpreter loops, numpy kernels and process start-up alike, and process
CPU time drifts with wall time, so neither a longer run nor CPU time
removes it.  Every run therefore also times :func:`reference`, a fixed
computation of the benchmark's own that calls no code of the program,
between its operations, and reports each time multiplied by

    factor = REFERENCE_S / median(reference times of the run)

A reported time thus reads as seconds on a host on which one reference
call takes :data:`REFERENCE_S`.  A change of host speed moves the
reference as much as the program and cancels; a change to the program
moves the program alone.
"""

from __future__ import annotations

import time
from statistics import median
from typing import List, Sequence

import numpy as np

#: Nominal duration of one :func:`reference` call: its median on a 2-vCPU
#: x86-64 host in a calm period.
REFERENCE_S = 0.04

_KEYS = np.random.default_rng(20260416).integers(0, 1 << 40, size=200_000)


def reference() -> int:
    """A fixed mix of interpreter and numpy work, as the program does.

    About half the time goes to table updates in a Python loop (what the
    scalar predictors and the timing model do), the other half to sorting,
    grouping and prefix sums over a 200k-element array (what the batch
    kernels do).
    """
    table: dict = {}
    acc = 0
    for i in range(100_000):
        key = (i * 2654435761) & 1023
        value = table.get(key, 0)
        acc += value ^ i
        table[key] = (value + i) & 0xFFFF
    ordered = _KEYS[np.argsort(_KEYS, kind="stable")]
    _, groups = np.unique(ordered & 0xFFFF, return_inverse=True)
    acc += int(np.cumsum(groups)[-1])
    acc += int(np.searchsorted(ordered, _KEYS[:1000]).sum())
    return acc


class Meter:
    """Reference times taken so far in one process."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, times: int = 1) -> None:
        for _ in range(times):
            started = time.perf_counter()
            reference()
            self.samples.append(time.perf_counter() - started)


def factor(samples: Sequence[float]) -> float:
    """The scale of a run's host times, from its reference times."""
    return REFERENCE_S / median(samples)
