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

from typing import List, Optional, Sequence

from .backend import FAST, CoreCounters, resolve_backend
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


class IncrementalConstraintSet(CoreCounters):
    """An append-only constraint store — the context backing the
    incremental linear-arithmetic theory.

    Constraints are normalised once, as they are asserted, and trivial
    ones dropped; the :meth:`satisfiable` answer is memoised until the
    next content change.  A contradictory constraint latches the set:
    from then on it is UNSAT and entails everything.

    Under the ``fast`` backend every asserted constraint is a bound
    update on a persistent simplex tableau, so a goal is decided by
    refuting its negation incrementally; under ``legacy`` each query
    re-runs Fourier-Motzkin elimination over the kept constraint list.
    """

    __slots__ = ("_constraints", "_contradiction", "_sat_memo", "_backend")

    def __init__(self, backend: Optional[str] = None) -> None:
        self._backend = resolve_backend(backend)
        super().__init__(Simplex() if self._backend == FAST else None)
        #: the constraints Fourier-Motzkin re-eliminates (``legacy`` only)
        self._constraints: List[Constraint] = []
        self._contradiction = False
        self._sat_memo: Optional[str] = None

    @property
    def backend(self) -> str:
        return self._backend

    def add(self, con: Constraint) -> None:
        if self._contradiction:
            return
        norm = con.normalized()
        if norm.is_contradiction():
            self._contradiction = True
            self._sat_memo = None
            return
        if norm.is_trivial():
            return
        self._sat_memo = None
        if self._engine is not None:
            # A bound conflict is recorded inside the engine; queries
            # then answer UNSAT without pivoting.
            self._engine.assert_constraint(norm)
        else:
            self._constraints.append(norm)

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
        # Kept only while perfbench/layers.py wraps it by name; ROADMAP
        # item 13 drops it from ``WRAPPED`` and deletes it.
        return [self.entails(goal, max_constraints) for goal in goals]
