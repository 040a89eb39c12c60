"""Propositional SAT solving — the backend-dispatching facade.

This is the propositional engine underneath the bitvector theory
(:mod:`repro.solvers.bitblast`): where the paper's implementation
leverages Z3's bitvector reasoning, this reproduction bit-blasts to CNF
and refutes with a SAT solver, keeping the whole pipeline
self-contained.

CNF follows the DIMACS convention: variables are positive integers,
literals are non-zero integers (negative = negated), a clause is a
sequence of literals and a formula is a list of clauses.

The public surface (:func:`solve`, :func:`is_satisfiable`,
:class:`IncrementalSatSolver`) is unchanged; the deciding core is
selected by the ``solver_backend`` knob (:mod:`repro.solvers.backend`):

* ``fast`` (default): the CDCL engine of :mod:`repro.solvers.cdcl`.
  :class:`IncrementalSatSolver` is append-only: clauses are added to
  one persistent engine and each query solves under *assumption
  literals* (MiniSat's ``solve(assumps)``).  The bitvector context
  asks a goal as the assumption ``¬goal``, so nothing has to be
  retracted afterwards, and clauses learned on one goal prune the
  search for every later goal.  The engine backtracks to level 0 in
  a ``finally``, so an aborted query leaves nothing behind.
* ``legacy``: the original recursive DPLL, now living in
  :mod:`repro.solvers.reference` as the differential-testing oracle;
  every query re-solves the clause list plus one unit clause per
  assumption from scratch.

Nothing is memoised here: the theory session above already answers
each repeated goal once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .backend import FAST, CoreCounters, resolve_backend
from .cdcl import CDCL
from .reference import dpll_solve

__all__ = ["CNF", "IncrementalSatSolver", "SatResult", "solve", "is_satisfiable"]

CNF = List[List[int]]


class SatResult:
    """Outcome of a SAT call: ``sat`` flag plus a model when satisfiable."""

    __slots__ = ("sat", "model", "conflicts")

    def __init__(self, sat: bool, model: Optional[Dict[int, bool]] = None, conflicts: int = 0):
        self.sat = sat
        self.model = model
        self.conflicts = conflicts

    def __bool__(self) -> bool:
        return self.sat

    def __repr__(self) -> str:
        return f"SatResult(sat={self.sat}, conflicts={self.conflicts})"


def solve(
    cnf: Iterable[Iterable[int]],
    max_conflicts: int = 200_000,
    backend: Optional[str] = None,
) -> SatResult:
    """Decide ``cnf`` with the selected backend core.

    Raises :class:`ResourceWarning` as an exception if the conflict
    budget is exhausted — callers that use SAT for *refutation* must
    treat that as "not proved", never as UNSAT.
    """
    if resolve_backend(backend) == FAST:
        engine = CDCL()
        engine.add_clauses(cnf)
        sat, model = engine.solve(max_conflicts=max_conflicts)
        return SatResult(sat, model, engine.conflicts)
    sat, model, conflicts = dpll_solve(cnf, max_conflicts)
    return SatResult(sat, model, conflicts)


def is_satisfiable(
    cnf: Iterable[Iterable[int]], backend: Optional[str] = None
) -> bool:
    return solve(cnf, backend=backend).sat


class IncrementalSatSolver(CoreCounters):
    """An append-only clause set decided under assumption literals.

    The incremental discipline the bitvector theory context uses: the
    (large) environment encoding is added once, then each goal is
    checked as ``check_sat([-goal_lit])``.

    Under ``fast`` the incrementality is real solver incrementality:
    one persistent CDCL engine, learned clauses surviving across
    queries.  Under ``legacy`` it is the *translation* that is
    incremental (the clause list), and DPLL restarts per query.
    """

    __slots__ = ("_clauses", "max_conflicts", "_backend")

    def __init__(
        self, max_conflicts: int = 200_000, backend: Optional[str] = None
    ) -> None:
        self._backend = resolve_backend(backend)
        super().__init__(CDCL() if self._backend == FAST else None)
        #: the clause list DPLL re-solves (``legacy`` only)
        self._clauses: CNF = []
        self.max_conflicts = max_conflicts

    @property
    def backend(self) -> str:
        return self._backend

    def add_clause(self, clause: Sequence[int]) -> None:
        self.add_clauses((clause,))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        # References are stored as-is: both cores copy clauses on ingest.
        if self._engine is not None:
            self._engine.add_clauses(clauses)
        else:
            self._clauses.extend(clauses)

    def check_sat(self, assumptions: Sequence[int] = ()) -> bool:
        """Are the clauses satisfiable with every assumption literal true?

        Resource exhaustion reports *satisfiable* (cannot refute), the
        sound direction for refutation-based callers.  Assumptions hold
        for this query only, also when it is aborted.
        """
        try:
            if self._engine is not None:
                sat, _model = self._engine.solve(
                    assumptions=assumptions,
                    max_conflicts=self.max_conflicts,
                )
            else:
                units = [[lit] for lit in assumptions]
                sat, _model, _ = dpll_solve(
                    self._clauses + units, self.max_conflicts
                )
        except ResourceWarning:
            return True
        finally:
            self._flush()
        return sat

    def check_many(
        self, assumption_sets: Iterable[Sequence[int]]
    ) -> List[bool]:
        # Kept only while perfbench/layers.py wraps it by name; ROADMAP
        # item 13 drops it from ``WRAPPED`` and deletes it.
        return [self.check_sat(assumptions) for assumptions in assumption_sets]
