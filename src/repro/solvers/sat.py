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
  :class:`IncrementalSatSolver` brackets each speculative probe of
  :meth:`~IncrementalSatSolver.check_many` with an internal
  ``push``/``pop`` mapped to *selector literals* — clauses added inside
  a pushed frame are guarded by that frame's selector, queries solve
  under the active selectors as assumptions, and ``pop`` retires a
  selector with a permanent unit.  The engine object persists across
  queries, so learned clauses are reused across a whole ``check_many``
  batch instead of restarting the search per goal.
* ``legacy``: the original recursive DPLL, now living in
  :mod:`repro.solvers.reference` as the differential-testing oracle;
  ``push``/``pop`` is clause-list truncation and every query re-solves
  from scratch.

Nothing is memoised here: the theory session above already answers
each repeated goal once.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from .backend import FAST, resolve_backend
from .cdcl import CDCL
from .reference import dpll_solve

__all__ = ["CNF", "IncrementalSatSolver", "SatResult", "solve", "is_satisfiable"]

CNF = List[List[int]]

#: Selector variables for push/pop frames live far above any variable
#: the bit-blaster allocates, so the two ranges can both keep growing.
_SELECTOR_BASE = 1_000_000_000


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


class IncrementalSatSolver:
    """A push/pop clause stack over the selected SAT core.

    The incremental discipline the bitvector theory context uses: the
    (large) environment encoding is asserted once, then each goal is
    checked under a ``push``/``pop`` bracket holding only the negated
    goal.

    Under ``fast`` the incrementality is real solver incrementality:
    one persistent CDCL engine, frames as assumption selectors, learned
    clauses surviving across queries.  Under ``legacy`` it is the
    *translation* that is incremental (the clause list), and DPLL
    restarts per query.
    """

    __slots__ = (
        "_clauses",
        "_marks",
        "max_conflicts",
        "_backend",
        "_engine",
        "_selectors",
        "_next_selector",
        "_shared_counters",
        "_flush_base",
    )

    def __init__(
        self, max_conflicts: int = 200_000, backend: Optional[str] = None
    ) -> None:
        self._clauses: CNF = []
        self._marks: List[int] = []
        self.max_conflicts = max_conflicts
        self._backend = resolve_backend(backend)
        self._engine: Optional[CDCL] = (
            CDCL() if self._backend == FAST else None
        )
        #: one active selector per pushed frame (parallel to ``_marks``)
        self._selectors: List[int] = []
        self._next_selector = _SELECTOR_BASE
        #: shared counter dict (``EngineStats.solver_counters``) and the
        #: engine-counter snapshot already flushed into it
        self._shared_counters: Optional[Dict[str, int]] = None
        self._flush_base: Dict[str, int] = {}

    @property
    def backend(self) -> str:
        return self._backend

    def __len__(self) -> int:
        return len(self._clauses)

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
    def add_clause(self, clause: Sequence[int]) -> None:
        self._clauses.append(list(clause))
        if self._engine is not None:
            if self._selectors:
                # Guarded: active only while this frame's selector is
                # assumed true; pop retires it with a permanent unit.
                self._engine.add_clause([-self._selectors[-1], *clause])
            else:
                self._engine.add_clause(clause)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        # References are stored as-is: both cores copy clauses on
        # ingest, and push/pop only truncates this list.
        if self._engine is None:
            self._clauses.extend(clauses)
            return
        for clause in clauses:
            self.add_clause(clause)

    def push(self) -> None:
        self._marks.append(len(self._clauses))
        if self._engine is not None:
            self._next_selector += 1
            self._selectors.append(self._next_selector)

    def pop(self) -> None:
        del self._clauses[self._marks.pop():]
        if self._engine is not None:
            selector = self._selectors.pop()
            # Permanently deactivate the frame's guarded clauses.
            self._engine.add_clause([-selector])

    def check_sat(self) -> bool:
        """Is the clause stack satisfiable?

        Resource exhaustion reports *satisfiable* (cannot refute), the
        sound direction for refutation-based callers.
        """
        try:
            if self._engine is not None:
                sat, _model = self._engine.solve(
                    assumptions=self._selectors,
                    max_conflicts=self.max_conflicts,
                )
            else:
                sat, _model, _ = dpll_solve(self._clauses, self.max_conflicts)
        except ResourceWarning:
            return True
        finally:
            self._flush()
        return sat

    def check_many(
        self, extra_clause_sets: Iterable[Iterable[Sequence[int]]]
    ) -> List[bool]:
        """Satisfiability under several alternative clause augmentations.

        Each element of ``extra_clause_sets`` is speculatively asserted
        inside a ``push``/``pop`` bracket over the *same* fixed clause
        prefix — the multi-goal shape of the bitvector theory's batched
        dispatch, where one bit-blasted ``[[Γ]]_T`` serves every goal in
        the batch without being copied or re-encoded.  Under ``fast``
        each bracket is a fresh selector on the same persistent engine,
        so conflict clauses learned on one goal prune the search for
        every later goal in the batch.
        """
        results: List[bool] = []
        for extra in extra_clause_sets:
            self.push()
            self.add_clauses(extra)
            results.append(self.check_sat())
            self.pop()
        return results
