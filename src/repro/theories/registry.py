"""Theory registry: the set of solvers L-Theory may consult.

The paper's logic is parameterised over "a small but extensible set" of
theories; this registry is that parameter.  The default registry holds
the two theories the paper integrates (linear integer arithmetic and
bitvectors) plus the congruence extension, and new
:class:`~repro.theories.base.Theory` instances can be registered at
runtime — the integration recipe of section 3.4.

Two query paths are offered:

* :meth:`TheoryRegistry.entails` — the one-shot batch judgment.  Each
  theory now only sees the assumptions it :meth:`~Theory.accepts`,
  instead of being handed the full assumption list to re-filter on
  every goal.
* :meth:`TheoryRegistry.session` — a :class:`RegistrySession` bundling
  one incremental :class:`~repro.theories.base.TheoryContext` per
  theory.  The proof engine keeps a session per environment state, so
  Γ is translated into each solver once per state rather than once per
  goal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..tr.props import Prop, TheoryProp
from .base import Theory, TheoryContext
from .bitvec import BitvectorTheory
from .congruence import CongruenceTheory
from .linarith import LinearArithmeticTheory

__all__ = ["TheoryRegistry", "RegistrySession", "default_registry"]


class TheoryRegistry:
    """An ordered collection of theories tried in turn on each goal."""

    def __init__(self, theories: Sequence[Theory] = ()):
        self._theories: List[Theory] = list(theories)

    def register(self, theory: Theory) -> None:
        """Add a theory (section 3.4's extension point)."""
        self._theories.append(theory)

    @property
    def theories(self) -> Sequence[Theory]:
        return tuple(self._theories)

    def entails(self, assumptions: Sequence[Prop], goal: TheoryProp) -> bool:
        """L-Theory: ``[[Γ]]_T ⊨ χ_T`` for some registered theory T.

        Assumptions are pre-filtered per theory with ``accepts`` — a
        theory is only handed atoms it can decide, never the raw
        environment projection (dropping assumptions is sound, and each
        solver was re-filtering internally anyway).
        """
        for theory in self._theories:
            if not theory.accepts(goal):
                continue
            relevant = [
                prop
                for prop in assumptions
                if isinstance(prop, TheoryProp) and theory.accepts(prop)
            ]
            if theory.entails(relevant, goal):
                return True
        return False

    def entails_batch(
        self, assumptions: Sequence[Prop], goals: Sequence[TheoryProp]
    ) -> List[bool]:
        """The batched L-Theory judgment, positionally.

        Assumptions are filtered per theory *once* for the whole batch
        and each theory receives a single :meth:`Theory.entails_batch`
        call covering every goal it accepts that an earlier theory has
        not already discharged — answer-equivalent to per-goal
        :meth:`entails` but with one dispatch per theory instead of
        one per (theory, goal) pair.
        """
        goals = list(goals)
        verdicts: Dict[TheoryProp, bool] = {goal: False for goal in goals}
        remaining = list(verdicts)
        for theory in self._theories:
            if not remaining:
                break
            attempt = [goal for goal in remaining if theory.accepts(goal)]
            if not attempt:
                continue
            relevant = [
                prop
                for prop in assumptions
                if isinstance(prop, TheoryProp) and theory.accepts(prop)
            ]
            for goal, answer in zip(attempt, theory.entails_batch(relevant, attempt)):
                if answer:
                    verdicts[goal] = True
            remaining = [goal for goal in remaining if not verdicts[goal]]
        return [verdicts[goal] for goal in goals]

    def session(
        self,
        counters: Optional[Dict[str, int]] = None,
        solver_counters: Optional[Dict[str, int]] = None,
    ) -> "RegistrySession":
        """A fresh incremental session over all registered theories."""
        return RegistrySession(self._theories, counters, solver_counters)


class RegistrySession:
    """One incremental context per theory, driven in lock-step.

    ``assert_prop`` fans an assumption out to the contexts that accept
    it; ``entails`` consults the accepting theories in registration
    order, memoising each goal's answer until the assumption set
    changes.  A session is built once per environment state and never
    copied: Γ's projection is asserted into fresh contexts.

    ``counters`` (theory name → query count) is shared with the caller
    so the engine can report per-theory query totals;
    ``solver_counters`` (core counter name → count, e.g.
    ``simplex.pivots``) is bound into every context so the solver cores
    report their work through ``EngineStats``.
    """

    __slots__ = (
        "_theories",
        "_contexts",
        "_memo",
        "counters",
    )

    def __init__(
        self,
        theories: Sequence[Theory],
        counters: Optional[Dict[str, int]] = None,
        solver_counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self._theories: List[Theory] = list(theories)
        self._contexts: List[TheoryContext] = [t.context() for t in self._theories]
        self._memo: Dict[TheoryProp, bool] = {}
        self.counters = counters if counters is not None else {}
        if solver_counters is not None:
            for context in self._contexts:
                context.bind_counters(solver_counters)

    # ------------------------------------------------------------------
    def assert_prop(self, prop: Prop) -> None:
        if not isinstance(prop, TheoryProp):
            return
        for theory, context in zip(self._theories, self._contexts):
            if theory.accepts(prop):
                context.assert_prop(prop)
        self._memo = {}

    def assert_all(self, props: Sequence[Prop]) -> None:
        for prop in props:
            self.assert_prop(prop)

    # ------------------------------------------------------------------
    def entails(self, goal: TheoryProp) -> bool:
        cached = self._memo.get(goal)
        if cached is not None:
            return cached
        result = False
        for theory, context in zip(self._theories, self._contexts):
            if not theory.accepts(goal):
                continue
            self.counters[theory.name] = self.counters.get(theory.name, 0) + 1
            if context.entails(goal):
                result = True
                break
        self._memo[goal] = result
        return result

    def entails_batch(self, goals: Sequence[TheoryProp]) -> List[bool]:
        """Decide a batch of goals with one dispatch per theory.

        The kernel's theory stage groups goal atoms and calls this once
        per session instead of N times: unresolved goals flow through
        the theories in registration order, each theory seeing the
        whole sub-batch it accepts via one
        :meth:`TheoryContext.entails_batch` call.  Memoisation and the
        per-theory query counters behave exactly as N single-goal
        :meth:`entails` calls would.
        """
        goals = list(goals)
        results: List[Optional[bool]] = [None] * len(goals)
        positions: Dict[TheoryProp, List[int]] = {}
        for index, goal in enumerate(goals):
            cached = self._memo.get(goal)
            if cached is not None:
                results[index] = cached
            else:
                positions.setdefault(goal, []).append(index)
        if positions:
            verdicts: Dict[TheoryProp, bool] = {goal: False for goal in positions}
            remaining = list(verdicts)
            for theory, context in zip(self._theories, self._contexts):
                if not remaining:
                    break
                attempt = [goal for goal in remaining if theory.accepts(goal)]
                if not attempt:
                    continue
                self.counters[theory.name] = (
                    self.counters.get(theory.name, 0) + len(attempt)
                )
                for goal, answer in zip(attempt, context.entails_batch(attempt)):
                    if answer:
                        verdicts[goal] = True
                remaining = [goal for goal in remaining if not verdicts[goal]]
            for goal, verdict in verdicts.items():
                self._memo[goal] = verdict
                for index in positions[goal]:
                    results[index] = verdict
        return [bool(answer) for answer in results]

    def invalidate(self) -> None:
        """Drop memoised answers so a retained handle recomputes.

        Used by ``Logic.reset_caches``: sessions already handed out
        must never replay a pre-reset answer.  The translated solver
        state stays: it is derived from assumptions, not from queries.
        """
        self._memo = {}

    def linear_unsat(self) -> bool:
        """Is the linear fragment of the asserted assumptions absurd?

        Mirrors the Γ ⊢ ff check the proof engine used to run by
        re-translating every LeqZero fact per call.
        """
        for theory, context in zip(self._theories, self._contexts):
            if isinstance(theory, LinearArithmeticTheory) and context.is_unsat():
                return True
        return False


def default_registry(backend: Optional[str] = None) -> TheoryRegistry:
    """The registry used by RTR: linear arithmetic, bitvectors, and the
    congruence extension (section 3.4's recipe applied a third time).

    ``backend`` pins the solver cores (``fast``/``legacy``) for every
    solver-backed theory; ``None`` follows the process-wide
    ``solver_backend`` knob.
    """
    return TheoryRegistry(
        [
            LinearArithmeticTheory(backend=backend),
            BitvectorTheory(backend=backend),
            CongruenceTheory(),
        ]
    )
