"""Stage 3 — theory dispatch: the L-Theory consultation.

The paper's L-Theory rule (§3.4) asks one question: does ``[[Γ]]_T``
entail the theory atom χ?  The prover hands every theory atom here as
it reaches it, and :meth:`TheoryDispatch.decide_one` answers it with
one :meth:`~repro.theories.registry.RegistrySession.entails` call on
the environment's theory session.  Atoms are never solved ahead of the
frame machine, so a conjunction that fails on an earlier conjunct
costs no solver work for the later ones.

The dispatch object is also the engine's fault-injection seam: the
chaos harness and the server tests wrap it to delay, hang or kill a
lane at the first theory consultation.
"""

from __future__ import annotations

from ...tr.props import TheoryProp
from ..env import Env

__all__ = ["TheoryDispatch"]


class TheoryDispatch:
    """Answers theory goals against the environment's session."""

    __slots__ = ("logic",)

    def __init__(self, logic) -> None:
        self.logic = logic

    def decide_one(self, env: Env, goal: TheoryProp) -> bool:
        """L-Theory: does the session for ``env`` entail ``goal``?"""
        logic = self.logic
        budget = logic.budget
        if budget is not None:
            # full check before crossing into the session: building a
            # session from scratch (assumption translation, solver
            # asserts) can dwarf a single goal's cost.
            budget.check()
        stats = logic.stats
        stats.theory_goals += 1
        hits = stats.rule_hits
        hits["dispatch.single"] = hits.get("dispatch.single", 0) + 1
        timers = logic.timers
        if timers is None:
            return logic.theory_session(env).entails(goal)
        started = timers.enter("dispatch")
        try:
            return logic.theory_session(env).entails(goal)
        finally:
            timers.exit("dispatch", started)
