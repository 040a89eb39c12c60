"""A CDCL SAT solver (the fast propositional core).

Conflict-driven clause learning in the MiniSat lineage (Eén &
Sörensson, SAT 2003), replacing the recursive DPLL core behind
:class:`~repro.solvers.sat.IncrementalSatSolver`:

* **two-watched-literal** propagation — each clause watches two
  literals, so unit propagation touches only clauses whose watch just
  became false, never the whole database;
* **first-UIP conflict analysis** — every conflict learns one
  asserting clause and backjumps non-chronologically to the second
  highest decision level in it;
* **VSIDS** branching — variable activities bumped on conflict
  participation and exponentially decayed, served from a lazy
  max-heap with phase saving;
* **Luby restarts** — the search restarts on the Luby sequence
  (unit 100 conflicts), keeping learned clauses;
* **assumption-based incremental solving** — :meth:`solve` takes a
  list of assumption literals decided before any free decision
  (MiniSat's ``solve(assumps)``), which is what lets the facade ask
  each goal as the assumption ``¬goal`` and reuse learned clauses
  across every goal asked of one solver.

Learned clauses are kept for the engine's lifetime (no deletion
policy): the bit-blasted instances this repository produces stay in
the thousands of clauses, and the conflict budget bounds runaway
growth.  Variables are arbitrary positive ints and all maps are dicts,
so sparse variable spaces cost nothing.
"""

from __future__ import annotations

import gc
from heapq import heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..budget import current_budget

__all__ = ["CDCL", "luby"]

_RESTART_UNIT = 100
_ACTIVITY_DECAY = 0.95
_ACTIVITY_RESCALE = 1e100


def luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,…"""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class CDCL:
    """A stateful CDCL engine over DIMACS-style integer literals.

    Clauses accumulate via :meth:`add_clause` (only legal between
    :meth:`solve` calls, i.e. at decision level 0); :meth:`solve`
    decides the database under optional assumptions.  Counters
    (:attr:`conflicts`, :attr:`learned`, :attr:`restarts`,
    :attr:`propagations`, :attr:`decisions`) are cumulative and
    surface through ``EngineStats.solver_counters``.
    """

    __slots__ = (
        "_clauses",
        "_learnts",
        "_watches",
        "_assign",
        "_level",
        "_reason",
        "_trail",
        "_trail_lim",
        "_qhead",
        "_activity",
        "_heap",
        "_phase",
        "_vars",
        "_var_inc",
        "_ok",
        "conflicts",
        "learned",
        "restarts",
        "propagations",
        "decisions",
    )

    def __init__(self) -> None:
        self._clauses: List[List[int]] = []
        self._learnts: List[List[int]] = []
        #: literal → clauses currently watching that literal
        self._watches: Dict[int, List[List[int]]] = {}
        self._assign: Dict[int, bool] = {}
        self._level: Dict[int, int] = {}
        self._reason: Dict[int, Optional[List[int]]] = {}
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: Dict[int, float] = {}
        self._heap: List[Tuple[float, int]] = []
        self._phase: Dict[int, bool] = {}
        self._vars: set = set()
        self._var_inc = 1.0
        #: False once the clause database is unsatisfiable outright
        self._ok = True
        self.conflicts = 0
        self.learned = 0
        self.restarts = 0
        self.propagations = 0
        self.decisions = 0

    # ------------------------------------------------------------------
    # assignment primitives
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        assigned = self._assign.get(abs(lit))
        if assigned is None:
            return None
        return assigned == (lit > 0)

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _new_var(self, var: int) -> None:
        if var not in self._vars:
            self._vars.add(var)
            self._activity[var] = 0.0
            heappush(self._heap, (0.0, var))

    def _bump(self, var: int) -> None:
        activity = self._activity[var] + self._var_inc
        self._activity[var] = activity
        if activity > _ACTIVITY_RESCALE:
            for v in self._activity:
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            activity = self._activity[var]
        heappush(self._heap, (-activity, var))

    def _decay(self) -> None:
        self._var_inc /= _ACTIVITY_DECAY

    # ------------------------------------------------------------------
    # clause ingestion (decision level 0 only)
    # ------------------------------------------------------------------
    def add_clause(self, clause: Sequence[int]) -> None:
        """Assert a clause at the top level.

        Tautologies are dropped, level-0-false literals removed (level-0
        assignments are permanent), units enqueued immediately.  An
        empty (or falsified-unit) result marks the database UNSAT.
        """
        assert not self._trail_lim, "add_clause only at decision level 0"
        if not self._ok:
            return
        seen: Dict[int, None] = {}
        lits: List[int] = []
        for lit in clause:
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            seen[lit] = None
            value = self._value(lit)
            if value is True:
                return  # satisfied at level 0
            if value is False:
                continue  # permanently false: drop the literal
            lits.append(lit)
        if not lits:
            self._ok = False
            return
        for lit in lits:
            self._new_var(abs(lit))
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            if self._propagate() is not None:
                self._ok = False
            return
        self._clauses.append(lits)
        self._watches.setdefault(lits[0], []).append(lits)
        self._watches.setdefault(lits[1], []).append(lits)

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # two-watched-literal propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[List[int]]:
        """Propagate the trail to fixpoint; return a conflict clause or None."""
        while self._qhead < len(self._trail):
            lit = self._trail[self._qhead]
            self._qhead += 1
            self.propagations += 1
            watchers = self._watches.get(-lit)
            if not watchers:
                continue
            kept: List[List[int]] = []
            i = 0
            n = len(watchers)
            while i < n:
                clause = watchers[i]
                i += 1
                # normalise: the false watch sits at clause[1]
                if clause[0] == -lit:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                if self._value(first) is True:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if self._value(other) is not False:
                        clause[1], clause[k] = clause[k], clause[1]
                        self._watches.setdefault(clause[1], []).append(clause)
                        break
                else:
                    kept.append(clause)
                    if self._value(first) is False:
                        kept.extend(watchers[i:])
                        self._watches[-lit] = kept
                        self._qhead = len(self._trail)
                        return clause
                    self._enqueue(first, clause)
            self._watches[-lit] = kept
        return None

    # ------------------------------------------------------------------
    # first-UIP conflict analysis
    # ------------------------------------------------------------------
    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """Learn an asserting clause from ``conflict``.

        Returns ``(learnt, backjump_level)`` with the asserting literal
        at ``learnt[0]`` and a highest-remaining-level literal at
        ``learnt[1]`` (ready for watching).
        """
        current = len(self._trail_lim)
        learnt: List[int] = [0]  # placeholder for the asserting literal
        seen: set = set()
        counter = 0
        lit = 0  # 0 = "iterate the whole conflict clause"
        index = len(self._trail)
        clause = conflict
        while True:
            start = 0 if lit == 0 else 1  # reason clauses carry lit at [0]
            for q in clause[start:]:
                var = abs(q)
                if var not in seen and self._level[var] > 0:
                    seen.add(var)
                    self._bump(var)
                    if self._level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                lit = self._trail[index]
                if abs(lit) in seen:
                    break
            seen.remove(abs(lit))
            counter -= 1
            if counter == 0:
                break
            clause = self._reason[abs(lit)]
        learnt[0] = -lit
        if len(learnt) == 1:
            return learnt, 0
        # position a literal from the backjump level at learnt[1]
        best = 1
        for k in range(2, len(learnt)):
            if self._level[abs(learnt[k])] > self._level[abs(learnt[best])]:
                best = k
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self._level[abs(learnt[1])]

    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            var = abs(lit)
            self._phase[var] = lit > 0
            del self._assign[var]
            del self._level[var]
            self._reason.pop(var, None)
            heappush(self._heap, (-self._activity[var], var))
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _record_learnt(self, learnt: List[int]) -> None:
        self.learned += 1
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self._learnts.append(learnt)
        self._watches.setdefault(learnt[0], []).append(learnt)
        self._watches.setdefault(learnt[1], []).append(learnt)
        self._enqueue(learnt[0], learnt)

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _pick_branch_var(self) -> Optional[int]:
        heap = self._heap
        while heap:
            neg_activity, var = heappop(heap)
            if var in self._assign:
                continue
            if -neg_activity != self._activity[var]:
                continue  # stale entry: a fresher one is in the heap
            return var
        # stale-only heap exhaustion: fall back to any unassigned var
        for var in self._vars:
            if var not in self._assign:
                heappush(heap, (-self._activity[var], var))
                return var
        return None

    # ------------------------------------------------------------------
    # the search
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        max_conflicts: int = 200_000,
    ) -> Tuple[bool, Optional[Dict[int, bool]]]:
        """Decide the database under ``assumptions``.

        Returns ``(sat, model)``; ``model`` maps every known variable to
        a bool when sat.  Raises :class:`ResourceWarning` when the
        conflict budget is exhausted — callers that refute must treat
        that as "not proved", never as UNSAT.  The engine always
        returns at decision level 0, so clause addition stays legal.
        """
        if not self._ok:
            return False, None
        for lit in assumptions:
            self._new_var(abs(lit))
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._search(list(assumptions), max_conflicts)
        finally:
            self._cancel_until(0)
            if gc_was_enabled:
                gc.enable()

    def _search(
        self, assumptions: List[int], max_conflicts: int
    ) -> Tuple[bool, Optional[Dict[int, bool]]]:
        if self._propagate() is not None:
            self._ok = False  # level-0 conflict: unconditionally UNSAT
            return False, None
        budget = 0
        restart_number = 0
        restart_limit = _RESTART_UNIT * luby(1)
        conflicts_here = 0
        request_budget = current_budget()
        request_tick = None if request_budget is None else request_budget.tick
        while True:
            if request_tick is not None:
                # cooperative cancellation, once per propagate/decide
                # round; ``solve``'s finally backtracks to level 0, the
                # same unwind path its own conflict budget uses.
                request_tick()
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                budget += 1
                conflicts_here += 1
                if not self._trail_lim:
                    self._ok = False
                    return False, None
                if len(self._trail_lim) <= len(assumptions):
                    # Conflict forced by the assumptions alone.
                    return False, None
                if budget > max_conflicts:
                    raise ResourceWarning("SAT conflict budget exhausted")
                learnt, back_level = self._analyze(conflict)
                self._cancel_until(max(back_level, len(assumptions)))
                self._record_learnt(learnt)
                self._decay()
                continue
            if conflicts_here >= restart_limit:
                restart_number += 1
                self.restarts += 1
                conflicts_here = 0
                restart_limit = _RESTART_UNIT * luby(restart_number + 1)
                self._cancel_until(len(assumptions))
                continue
            level = len(self._trail_lim)
            if level < len(assumptions):
                # Re-assert the next assumption as a pseudo-decision.
                lit = assumptions[level]
                value = self._value(lit)
                if value is False:
                    return False, None  # assumption contradicted
                self._trail_lim.append(len(self._trail))
                if value is None:
                    self._enqueue(lit, None)
                continue
            var = self._pick_branch_var()
            if var is None:
                model = dict(self._assign)
                return True, model
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            phase = self._phase.get(var, False)
            self._enqueue(var if phase else -var, None)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Cumulative work counters (flushed into ``EngineStats``)."""
        return {
            "cdcl.conflicts": self.conflicts,
            "cdcl.learned": self.learned,
            "cdcl.restarts": self.restarts,
            "cdcl.propagations": self.propagations,
            "cdcl.decisions": self.decisions,
        }
