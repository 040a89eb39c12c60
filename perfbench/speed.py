"""Machine-speed correction for every time the benchmark reports.

On a shared machine each CPU switches between a fast and a slow state
every few seconds, independently of the other CPUs, and whole runs can
land in the slow state for a minute: the same work then takes up to 1.7
times as long.  Medians inside one run cannot remove that, so every
timed stretch of work is bracketed by a probe: a fixed loop of
dictionary lookups, run on each CPU the work may use.  The probe
allocates no container objects, so it never triggers the garbage
collector and does not depend on the checker's heap.

The table is small enough to stay in the CPU cache, and one untimed
round precedes the timed ones, so the probe measures the CPU rather
than cache misses left by the work before it.

A time ``t`` measured between probes that took ``p0`` and ``p1`` is
reported as ``t * REFERENCE_S / mean(p0, p1)``: the time the work
would take on a CPU where the probe takes ``REFERENCE_S``.  The probe
runs no code of the program, so a faster checker still reads faster.
"""

from __future__ import annotations

import os
import random
import time
from typing import Iterable, Optional

#: the probe's time on one CPU of the machine the benchmark was tuned
#: on (2 vCPUs at 2.1 GHz) in its fast state; only scales the results
REFERENCE_S = 0.012

_TABLE_SIZE = 4096
_ROUNDS = 20


class SpeedProbe:
    """Times the reference loop; see the module docstring."""

    def __init__(self) -> None:
        self._keys = [f"key{i}" for i in range(_TABLE_SIZE)]
        self._table = {key: i for i, key in enumerate(self._keys)}
        order = list(range(_TABLE_SIZE))
        random.Random(0).shuffle(order)
        self._order = order

    def _loop(self, rounds: int) -> float:
        keys, table, order = self._keys, self._table, self._order
        acc = 0
        started = time.perf_counter()
        for _ in range(rounds):
            for i in order:
                acc += table[keys[i]] * 3 % 7
        return time.perf_counter() - started

    def _timed(self) -> float:
        # one untimed round first: the table is back in the CPU cache and
        # a forked child has taken its copy-on-write faults
        self._loop(1)
        return self._loop(_ROUNDS)

    def sample(self, cpus: Optional[Iterable[int]] = None, slowest: bool = False) -> float:
        """Probe time over ``cpus`` (default: every allowed CPU).

        The mean over the CPUs, or with ``slowest`` the largest: work
        split evenly over the CPUs ends when the slowest CPU's share
        does.  The calling thread is pinned to each CPU in turn and its
        affinity restored afterwards.
        """
        allowed = os.sched_getaffinity(0)
        targets = sorted(cpus if cpus is not None else allowed)
        times = []
        try:
            for cpu in targets:
                os.sched_setaffinity(0, {cpu})
                times.append(self._timed())
        finally:
            os.sched_setaffinity(0, allowed)
        return max(times) if slowest else sum(times) / len(times)


def factor(before: float, after: float) -> float:
    """The correction for work timed between two probe samples."""
    return REFERENCE_S / ((before + after) / 2.0)
