"""The ``solver_backend`` knob: which cores decide theory queries.

Two backends share byte-compatible solver APIs
(:class:`~repro.solvers.linear.IncrementalConstraintSet`,
:class:`~repro.solvers.sat.IncrementalSatSolver`):

* ``fast``   — the industrial-strength cores: an incremental dual
  simplex over exact rationals (:mod:`repro.solvers.simplex`) and a
  CDCL SAT solver with watched literals, clause learning, VSIDS and
  Luby restarts (:mod:`repro.solvers.cdcl`).  The default.
* ``legacy`` — the paper-faithful naive cores: Fourier-Motzkin
  elimination and recursive DPLL (:mod:`repro.solvers.reference`).
  Kept in-tree as the differential-fuzzing oracle for the fast cores
  (``repro fuzz --solver-oracle``) and as a fallback.

The process default comes from ``REPRO_SOLVER_BACKEND`` (read once,
lazily); individual theories and solver facades accept an explicit
``backend=`` argument that overrides it.  Both backends are sound for
refutation, so verdicts must agree — the fuzz oracle and the pinned
corpus test in CI pin that down.  Both facades flush their fast core's
work counters through :class:`CoreCounters`.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

__all__ = [
    "FAST",
    "LEGACY",
    "BACKENDS",
    "CoreCounters",
    "default_backend",
    "resolve_backend",
]

FAST = "fast"
LEGACY = "legacy"
BACKENDS = (FAST, LEGACY)

_default: Optional[str] = None


def _validate(name: str) -> str:
    if name not in BACKENDS:
        raise ValueError(
            f"unknown solver backend {name!r} (expected one of {BACKENDS})"
        )
    return name


def default_backend() -> str:
    """The process-wide backend: ``REPRO_SOLVER_BACKEND`` or ``fast``."""
    global _default
    if _default is None:
        _default = _validate(os.environ.get("REPRO_SOLVER_BACKEND", FAST))
    return _default


def resolve_backend(backend: Optional[str]) -> str:
    """An explicit backend, or the process default when ``None``."""
    if backend is None:
        return default_backend()
    return _validate(backend)


class CoreCounters:
    """Counter plumbing shared by the solver facades.

    A facade's fast core (``self._engine``; ``None`` under ``legacy``)
    keeps cumulative work counters.  After each query :meth:`_flush`
    adds what changed since the previous flush into the dict bound by
    :meth:`bind_counters` (``EngineStats.solver_counters``).
    """

    __slots__ = ("_engine", "_shared_counters", "_flush_base")

    def __init__(self, engine: Optional[Any]) -> None:
        self._engine = engine
        self._shared_counters: Optional[Dict[str, int]] = None
        self._flush_base: Dict[str, int] = {}

    def bind_counters(self, shared: Optional[Dict[str, int]]) -> None:
        """Flush per-core work counters into ``shared`` after each query."""
        self._shared_counters = shared

    def _flush(self) -> None:
        if self._shared_counters is None or self._engine is None:
            return
        snapshot = self._engine.counters()
        base = self._flush_base
        shared = self._shared_counters
        for key, value in snapshot.items():
            delta = value - base.get(key, 0)
            if delta:
                shared[key] = shared.get(key, 0) + delta
        self._flush_base = snapshot
