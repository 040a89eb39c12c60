"""Request budgets: deadlines and cooperative cancellation.

The checking daemon serves every engine request on a warm lane; one
pathological obligation (deep saturation, a huge bit-blasted goal)
would otherwise block every client forever.  A :class:`Budget` is the
cancellation token that prevents that: the daemon attaches one to each
job, activates it around the engine call, and the hot loops of the
kernel and the solver cores *tick* it — a counter decrement per
iteration, with a real clock read only every ``stride`` ticks, so the
checks are cheap enough for per-pivot / per-conflict / per-worklist-pop
placement.

When the deadline passes (or a watchdog fires :meth:`Budget.cancel`
from another thread or a signal handler), the next full check raises
:class:`DeadlineExceeded` / :class:`JobCancelled`.  The exception
unwinds through code that is already exception-safe by construction:

* ``Simplex.entails`` brackets its probe in ``push()``/``finally: pop()``,
  so aborting mid-pivot restores the tableau bounds;
* ``CDCL.solve`` backtracks to level 0 and re-enables gc in a
  ``finally`` (the same path its own conflict budget uses);
* ``Logic._proves_miss`` only caches *after* the kernel returns, so an
  aborted proof never poisons the memo or the persistent cache;
* partially-saturated environments are request-scoped snapshots that
  are simply dropped.

The active budget travels two ways: explicitly on the ``Logic`` façade
(``logic.budget``, set by :meth:`Logic.budgeted`) for the kernel
stages, and via a thread-local for the solver cores, which are built
standalone and have no back-pointer to the engine.  The engine lane is
single-threaded, so the thread-local is sound.  A daemon job's budget
is pickled to its lane process with the absolute deadline (monotonic
time is system-wide on Linux), so queue wait counts against it.
"""

from __future__ import annotations

import math
import threading
import time

from contextlib import contextmanager
from typing import Dict, Optional

__all__ = [
    "Budget",
    "CancelledError",
    "DeadlineExceeded",
    "JobCancelled",
    "activate",
    "current_budget",
    "valid_deadline_ms",
]


def valid_deadline_ms(value: object) -> bool:
    """True for a positive, finite number of milliseconds.

    NaN, infinities, ints too large for a float and bools are not
    deadlines: a NaN or infinite deadline would never expire.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


class CancelledError(Exception):
    """Base for cooperative aborts; always retryable at the protocol level."""

    code = "cancelled"
    retryable = True


class DeadlineExceeded(CancelledError):
    """The request's ``deadline_ms`` elapsed mid-proof."""

    code = "deadline_exceeded"


class JobCancelled(CancelledError):
    """The request was cancelled from outside (watchdog, shutdown)."""

    code = "cancelled"


class Budget:
    """Deadline + cancellation token with stride-amortised checks.

    ``tick()`` is designed for inner loops: it decrements a counter and
    only consults the clock every ``stride`` iterations.  ``check()``
    always consults it.  ``cancel()`` may be called from any thread —
    it only flips a bool, which is atomic under the GIL.
    """

    __slots__ = ("started", "deadline", "stride", "_credits", "_cancelled",
                 "_reason", "_stats")

    def __init__(self, deadline_ms: Optional[float] = None,
                 stride: int = 256) -> None:
        if deadline_ms is not None and not valid_deadline_ms(deadline_ms):
            raise ValueError("deadline_ms must be a positive finite number")
        self.started = time.monotonic()
        self.deadline = (
            None if deadline_ms is None else self.started + deadline_ms / 1000.0
        )
        self.stride = max(1, int(stride))
        self._credits = self.stride
        self._cancelled = False
        self._reason = ""
        self._stats: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    def bind_stats(self, rule_hits: Optional[Dict[str, int]]) -> None:
        """Record aborts into an ``EngineStats.rule_hits`` style dict."""
        self._stats = rule_hits

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def reason(self) -> str:
        return self._reason

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def elapsed_ms(self) -> float:
        return (time.monotonic() - self.started) * 1000.0

    def cancel(self, reason: str = "cancelled") -> None:
        """Flag the budget; the owning thread aborts at its next check."""
        self._reason = reason or "cancelled"
        self._cancelled = True

    # ------------------------------------------------------------------
    def check(self) -> None:
        """Raise if cancelled or past deadline.  Reads the clock."""
        if self._cancelled:
            self._count("budget.cancelled")
            raise JobCancelled(self._reason or "request cancelled")
        if self.deadline is not None and time.monotonic() > self.deadline:
            self._count("budget.deadline-exceeded")
            raise DeadlineExceeded(
                "deadline exceeded after %.0fms" % self.elapsed_ms()
            )

    def tick(self) -> None:
        """Amortised check: full ``check()`` every ``stride`` calls."""
        self._credits -= 1
        if self._credits <= 0:
            self._credits = self.stride
            self.check()

    def _count(self, key: str) -> None:
        stats = self._stats
        if stats is not None:
            stats[key] = stats.get(key, 0) + 1


# ----------------------------------------------------------------------
# Thread-local active budget (for the solver cores, which have no
# reference back to the Logic façade).
# ----------------------------------------------------------------------
_ACTIVE = threading.local()


def current_budget() -> Optional[Budget]:
    """The budget activated on this thread, if any."""
    return getattr(_ACTIVE, "budget", None)


@contextmanager
def activate(budget: Optional[Budget]):
    """Make ``budget`` the thread's current budget for the block."""
    previous = current_budget()
    _ACTIVE.budget = budget
    try:
        yield budget
    finally:
        _ACTIVE.budget = previous
