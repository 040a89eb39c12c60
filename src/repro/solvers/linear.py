"""Linear integer arithmetic solving — the backend-dispatching facade.

This module keeps the public surface the theory layer has always used
— :class:`Constraint`, :class:`IncrementalConstraintSet`,
:func:`fm_satisfiable`, :func:`fm_entails`, the
:data:`SAT`/:data:`UNSAT`/:data:`UNKNOWN` verdicts — while the actual
deciding is done by one of two cores selected by the
``solver_backend`` knob (:mod:`repro.solvers.backend`):

* ``fast`` (default): the incremental dual simplex of
  :mod:`repro.solvers.simplex` — assumptions are translated into the
  tableau *once*, push/pop retract bounds in O(1), and each
  :meth:`IncrementalConstraintSet.entails` goal costs a handful of
  pivots instead of a full re-elimination;
* ``legacy``: the original Fourier-Motzkin eliminator, now living in
  :mod:`repro.solvers.reference` as the differential-testing oracle.

Both cores are *sound for refutation*: :data:`UNSAT` answers are
always correct over the integers, while :data:`SAT` answers may be
rational-only; work bounds yield :data:`UNKNOWN` ("not proved").  The
type checker only acts on UNSAT, so the conservative direction is the
safe one — and it is also what makes the two backends comparable
verdict-for-verdict in the fuzz ``--solver-oracle`` mode.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .backend import FAST, resolve_backend
from .linform import SAT, UNKNOWN, UNSAT, Atom, Constraint
from .reference import fm_entails, fm_satisfiable
from .simplex import Simplex

__all__ = [
    "Constraint",
    "IncrementalConstraintSet",
    "SAT",
    "UNSAT",
    "UNKNOWN",
    "fm_satisfiable",
    "fm_entails",
]


class IncrementalConstraintSet:
    """A push/pop constraint store — the SMT-style context backing the
    incremental linear-arithmetic theory.

    Constraints are normalised and made unique *once*, as they are
    asserted; :meth:`entails` and :meth:`satisfiable` answers are
    memoised until the next content change, so repeated goals against a
    stable assumption set (the dominant checker pattern) cost a single
    dictionary probe.  :meth:`push`/:meth:`pop` bracket speculative
    assertions.

    Under the ``fast`` backend every asserted constraint is also a
    bound update on a persistent simplex tableau, so a goal is decided
    by refuting its negation incrementally; under ``legacy`` each query
    re-runs Fourier-Motzkin elimination over :meth:`constraints`.
    """

    __slots__ = (
        "_frames",
        "_seen",
        "_contradiction_level",
        "_memo",
        "_sat_memo",
        "_backend",
        "_engine",
        "_shared_counters",
        "_flush_base",
    )

    def __init__(self, backend: Optional[str] = None) -> None:
        self._frames: List[List[Constraint]] = [[]]
        self._seen: set = set()
        #: frame index at which a contradictory constraint was asserted,
        #: or None — popping past it restores consistency.
        self._contradiction_level: Optional[int] = None
        self._memo: Dict[Constraint, bool] = {}
        self._sat_memo: Optional[str] = None
        self._backend = resolve_backend(backend)
        self._engine: Optional[Simplex] = (
            Simplex() if self._backend == FAST else None
        )
        #: shared counter dict (``EngineStats.solver_counters``) and the
        #: engine-counter snapshot already flushed into it
        self._shared_counters: Optional[Dict[str, int]] = None
        self._flush_base: Dict[str, int] = {}

    @property
    def backend(self) -> str:
        return self._backend

    # ------------------------------------------------------------------
    # counter plumbing
    # ------------------------------------------------------------------
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

    # ------------------------------------------------------------------
    def push(self) -> None:
        self._frames.append([])
        if self._engine is not None:
            self._engine.push()

    def pop(self) -> None:
        if len(self._frames) == 1:
            raise IndexError("pop without matching push")
        frame = self._frames.pop()
        for con in frame:
            self._seen.discard(con)
        if (
            self._contradiction_level is not None
            and self._contradiction_level >= len(self._frames)
        ):
            self._contradiction_level = None
        if frame:
            self._memo = {}
            self._sat_memo = None
        if self._engine is not None:
            self._engine.pop()

    def add(self, con: Constraint) -> None:
        norm = con.normalized()
        if norm.is_contradiction():
            if self._contradiction_level is None:
                self._contradiction_level = len(self._frames) - 1
                # Recorded in the frame so pop() can retract it.
                self._frames[-1].append(norm)
                self._seen.add(norm)
                self._memo = {}
                self._sat_memo = None
            return
        if norm.is_trivial() or norm in self._seen:
            return
        self._seen.add(norm)
        self._frames[-1].append(norm)
        self._memo = {}
        self._sat_memo = None
        if self._engine is not None:
            # A bound conflict is recorded inside the engine (and
            # retracted by the matching pop); queries then answer UNSAT
            # without pivoting.
            self._engine.assert_constraint(norm)

    # ------------------------------------------------------------------
    def constraints(self) -> List[Constraint]:
        return [con for frame in self._frames for con in frame]

    def __len__(self) -> int:
        return sum(len(frame) for frame in self._frames)

    def satisfiable(self, max_constraints: int = 6000) -> str:
        if self._contradiction_level is not None:
            return UNSAT
        if self._sat_memo is None:
            if self._engine is not None:
                self._sat_memo = self._engine.check_integer(
                    max_pivots=max_constraints
                )
                self._flush()
            else:
                self._sat_memo = fm_satisfiable(
                    self.constraints(), max_constraints
                )
        return self._sat_memo

    def entails(self, goal: Constraint, max_constraints: int = 6000) -> bool:
        if self._contradiction_level is not None:
            return True  # ex falso
        cached = self._memo.get(goal)
        if cached is None:
            if self._engine is not None:
                cached = self._engine.entails(goal, max_pivots=max_constraints)
                self._flush()
            else:
                cached = fm_entails(self.constraints(), goal, max_constraints)
            self._memo[goal] = cached
        return cached

    def entails_many(
        self, goals: Sequence[Constraint], max_constraints: int = 6000
    ) -> List[bool]:
        """Decide several goals against the same assumption set.

        Under ``fast`` each goal is a push/assert/check/pop bracket on
        the *same* tableau — the assumptions are translated once for the
        whole batch.  Under ``legacy`` the assumption constraints are
        materialised once and shared by every elimination run.  Answers
        agree exactly with per-goal :meth:`entails` calls (both go
        through the same memo).
        """
        if self._contradiction_level is not None:
            return [True] * len(goals)
        base: Optional[List[Constraint]] = None
        results: List[bool] = []
        engine = self._engine
        for goal in goals:
            cached = self._memo.get(goal)
            if cached is None:
                if engine is not None:
                    cached = engine.entails(goal, max_pivots=max_constraints)
                else:
                    if base is None:
                        base = self.constraints()
                    cached = fm_entails(base, goal, max_constraints)
                self._memo[goal] = cached
            results.append(cached)
        if engine is not None:
            self._flush()
        return results
