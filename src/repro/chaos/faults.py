"""Seeded fault injectors for the chaos scenarios.

Each injector provokes exactly one failure mode the service claims to
survive: a torn or garbage cache shard (corruption tolerance +
repair-on-flush), and a theory dispatch that stalls or hangs (deadline
abort + hung-lane watchdog).  A killed lane needs no injector: the
daemon's own ``poison_lane`` hook does it.  They are deliberately tiny
and deterministic — a scenario seeded the same way injects the same
faults in the same order.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import List, Optional

from ..budget import current_budget

__all__ = [
    "corrupt_shards",
    "plant_torn_tmp",
    "truncate_meta",
    "ChaosDispatch",
]


# ----------------------------------------------------------------------
# cache corruption
# ----------------------------------------------------------------------
def corrupt_shards(cache_dir: str, limit: int = 2) -> List[str]:
    """Overwrite up to ``limit`` shard files with garbage; returns paths."""
    shard_dir = os.path.join(cache_dir, "shards")
    victims: List[str] = []
    try:
        names = sorted(os.listdir(shard_dir))
    except OSError:
        return victims
    for name in names:
        if not name.endswith(".json"):
            continue
        path = os.path.join(shard_dir, name)
        with open(path, "w") as handle:
            handle.write('{"torn": tru')  # mid-token truncation
        victims.append(path)
        if len(victims) >= limit:
            break
    return victims


def plant_torn_tmp(cache_dir: str, age_seconds: float = 3600.0) -> str:
    """Leave a stale ``.tmp`` behind, as a crash mid-flush would."""
    shard_dir = os.path.join(cache_dir, "shards")
    os.makedirs(shard_dir, exist_ok=True)
    path = os.path.join(shard_dir, "ab.chaos-torn.tmp")
    with open(path, "w") as handle:
        handle.write('{"half": ')
    old = time.time() - age_seconds
    os.utime(path, (old, old))
    return path


def truncate_meta(cache_dir: str) -> str:
    """Truncate ``meta.json`` mid-object (a crash mid-write)."""
    path = os.path.join(cache_dir, "meta.json")
    with open(path, "w") as handle:
        handle.write('{"format"')
    return path


# ----------------------------------------------------------------------
# theory dispatch stalls
# ----------------------------------------------------------------------
class ChaosDispatch:
    """A dispatch wrapper that stalls or hangs chosen consultations.

    ``delay_seconds`` sleeps before delegating (a slow theory goal);
    ``hang=True`` never delegates and instead spins cooperatively —
    polling the active request budget exactly the way the kernel's own
    hot loops do — so a deadline or watchdog cancellation is the *only*
    way out, which is precisely the recovery path under test.
    ``skip_calls`` lets the first N consultations through unharmed.

    Wrap the engine *before* a daemon forks its lanes from it.  The
    call and fault counters live in shared memory, so ``max_faults``
    bounds the faults across every lane process, re-forked ones
    included.
    """

    def __init__(
        self,
        inner,
        delay_seconds: float = 0.0,
        hang: bool = False,
        skip_calls: int = 0,
        max_faults: Optional[int] = None,
    ) -> None:
        self.inner = inner
        self.delay_seconds = delay_seconds
        self.hang = hang
        self.skip_calls = skip_calls
        self.max_faults = max_faults
        self.calls = multiprocessing.Value("i", 0)
        self.faults = multiprocessing.Value("i", 0)

    def _maybe_fault(self) -> None:
        with self.calls.get_lock():
            self.calls.value += 1
            if self.calls.value <= self.skip_calls:
                return
        with self.faults.get_lock():
            if self.max_faults is not None and self.faults.value >= self.max_faults:
                return
            self.faults.value += 1
        if self.hang:
            # wedged "forever": only a cooperative cancellation ends it
            while True:
                time.sleep(0.01)
                budget = current_budget()
                if budget is not None:
                    budget.check()
        elif self.delay_seconds > 0:
            deadline = time.monotonic() + self.delay_seconds
            while time.monotonic() < deadline:
                time.sleep(0.01)
                budget = current_budget()
                if budget is not None:
                    budget.check()

    def decide_one(self, env, goal):
        self._maybe_fault()
        return self.inner.decide_one(env, goal)
