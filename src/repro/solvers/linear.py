"""Linear integer arithmetic solving — the backend-dispatching facade.

This module keeps the public surface the theory layer has always used
— :class:`Constraint`, :class:`IncrementalConstraintSet`,
:func:`fm_satisfiable`, :func:`fm_entails`, the
:data:`SAT`/:data:`UNSAT`/:data:`UNKNOWN` verdicts — while the actual
deciding is done by one of two cores selected by the
``solver_backend`` knob (:mod:`repro.solvers.backend`):

* ``fast`` (default): the incremental dual simplex of
  :mod:`repro.solvers.simplex` — assumptions are translated into the
  tableau *once*, and each :meth:`IncrementalConstraintSet.entails`
  goal is a bracketed bound update costing a handful of pivots
  instead of a full re-elimination;
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

from typing import Dict, List, Optional, Sequence

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
    """An append-only constraint store — the context backing the
    incremental linear-arithmetic theory.

    Constraints are normalised and made unique *once*, as they are
    asserted; the :meth:`satisfiable` answer is memoised until the next
    content change.  A contradictory constraint latches the set: from
    then on it is UNSAT and entails everything.

    Under the ``fast`` backend every asserted constraint is also a
    bound update on a persistent simplex tableau, so a goal is decided
    by refuting its negation incrementally; under ``legacy`` each query
    re-runs Fourier-Motzkin elimination over :meth:`constraints`.
    """

    __slots__ = (
        "_constraints",
        "_seen",
        "_contradiction",
        "_sat_memo",
        "_backend",
        "_engine",
        "_shared_counters",
        "_flush_base",
    )

    def __init__(self, backend: Optional[str] = None) -> None:
        self._constraints: List[Constraint] = []
        self._seen: set = set()
        self._contradiction = False
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
    def add(self, con: Constraint) -> None:
        if self._contradiction:
            return
        norm = con.normalized()
        if norm.is_contradiction():
            self._contradiction = True
            self._sat_memo = None
            return
        if norm.is_trivial() or norm in self._seen:
            return
        self._seen.add(norm)
        self._constraints.append(norm)
        self._sat_memo = None
        if self._engine is not None:
            # A bound conflict is recorded inside the engine; queries
            # then answer UNSAT without pivoting.
            self._engine.assert_constraint(norm)

    # ------------------------------------------------------------------
    def constraints(self) -> List[Constraint]:
        return list(self._constraints)

    def __len__(self) -> int:
        return len(self._constraints)

    def satisfiable(self, max_constraints: int = 6000) -> str:
        if self._contradiction:
            return UNSAT
        if self._sat_memo is None:
            if self._engine is not None:
                self._sat_memo = self._engine.check_integer(
                    max_pivots=max_constraints
                )
                self._flush()
            else:
                self._sat_memo = fm_satisfiable(
                    self._constraints, max_constraints
                )
        return self._sat_memo

    def entails(self, goal: Constraint, max_constraints: int = 6000) -> bool:
        if self._contradiction:
            return True  # ex falso
        if self._engine is None:
            return fm_entails(self._constraints, goal, max_constraints)
        verdict = self._engine.entails(goal, max_pivots=max_constraints)
        self._flush()
        return verdict

    def entails_many(
        self, goals: Sequence[Constraint], max_constraints: int = 6000
    ) -> List[bool]:
        """Decide several goals against the same assumption set.

        Under ``fast`` each goal is a push/assert/check/pop bracket on
        the *same* tableau — the assumptions are translated once for the
        whole batch, and the work counters are flushed once.  Answers
        agree exactly with per-goal :meth:`entails` calls.
        """
        if self._contradiction:
            return [True] * len(goals)
        engine = self._engine
        if engine is None:
            return [
                fm_entails(self._constraints, goal, max_constraints)
                for goal in goals
            ]
        results = [engine.entails(goal, max_pivots=max_constraints) for goal in goals]
        self._flush()
        return results
