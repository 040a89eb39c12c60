"""The theory plug-in interface (section 3.4 of the paper).

Integrating a theory T into λRTR requires, per the paper:

1. extending symbolic objects/fields with the terms T speaks about
   (done in :mod:`repro.tr.objects` — linear expressions, bitvector
   terms, the ``len`` field);
2. extending propositions with T's predicates (done in
   :mod:`repro.tr.props` — :class:`~repro.tr.props.LeqZero`,
   :class:`~repro.tr.props.BVProp`);
3. enriching primitive types so the new forms are emitted during type
   checking (done in :mod:`repro.checker.prims`);
4. providing a *sound solver* consulted by the L-Theory proof rule.

This module defines the solver-side contract (step 4): a
:class:`Theory` answers entailment queries ``Γ ⊨_T χ`` given the
theory-relevant propositions the logic extracted from the environment
(the ``[[Γ]]_T`` of the L-Theory rule), and its append-only
:class:`TheoryContext` answers the same queries against assumptions
asserted once.  A new theory needs ``accepts`` and ``entails``; a
context of its own (``assert_prop`` + ``entails``) is an optimisation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..tr.props import Prop, TheoryProp

__all__ = ["Theory", "TheoryContext", "BatchContext"]


class Theory:
    """A solver-backed theory, consulted by L-Theory.

    Subclasses must be *sound*: :meth:`entails` may only return ``True``
    when the assumptions really entail the goal in the theory's
    intended (integer) semantics.  Returning ``False`` is always safe.
    """

    #: Human-readable theory name, e.g. ``"linear-arithmetic"``.
    name: str = "abstract"

    def config_key(self) -> str:
        """A string covering every parameter that can change a verdict.

        Persistent caches namespace entries by the full engine
        configuration; a theory whose constructor takes
        verdict-affecting parameters (solver widths, work bounds) must
        fold them in here so differently-configured engines never share
        cache entries.
        """
        return self.name

    def accepts(self, goal: TheoryProp) -> bool:
        """Can this theory even attempt to decide ``goal``?"""
        raise NotImplementedError

    def entails(self, assumptions: Sequence[Prop], goal: TheoryProp) -> bool:
        """Does the conjunction of ``assumptions`` entail ``goal``?

        ``assumptions`` is the theory-relevant projection of the
        environment; atoms from *other* theories may appear and must be
        ignored (dropping assumptions is sound).
        """
        raise NotImplementedError

    def entails_batch(
        self, assumptions: Sequence[Prop], goals: Sequence[TheoryProp]
    ) -> List[bool]:
        """Decide several goals under one assumption set, positionally.

        The default simply loops :meth:`entails`; theories whose
        translation work dominates (bit-blasting, constraint
        normalisation) override this to translate ``assumptions`` once
        and reuse it across the whole batch.  Must be answer-equivalent
        to per-goal :meth:`entails` calls.
        """
        return [self.entails(assumptions, goal) for goal in goals]

    def context(self) -> "TheoryContext":
        """A fresh incremental assumption context for this theory.

        The default wraps :meth:`entails` in a :class:`BatchContext`;
        theories with genuinely incremental solvers override this to
        return a context that keeps translated state across queries.
        """
        return BatchContext(self)


class TheoryContext:
    """An append-only incremental solver context (``assert``/``entails``).

    The L-Theory query path used to re-encode the whole of ``[[Γ]]_T``
    on every goal; a context instead *accumulates* assumptions — each
    translated once — and answers any number of goals against them:

    * :meth:`assert_prop` adds one assumption (atoms the theory does
      not accept are ignored — dropping assumptions is sound);
    * :meth:`entails` decides a goal under everything asserted.

    The proof engine builds one context per environment state, asserts
    that state's ``[[Γ]]_T`` into it and then only queries it, so a
    context never retracts an assumption or copies itself.  Repeated
    goals are memoised one level up, in the registry session.

    Soundness contract: like :meth:`Theory.entails`, ``entails`` may
    answer ``True`` only when the asserted assumptions really entail
    the goal; ``False`` ("not proved") is always safe.
    """

    def assert_prop(self, prop: Prop) -> None:
        raise NotImplementedError

    def bind_counters(self, shared: Optional[dict]) -> None:
        """Accumulate solver-core work counters into ``shared``.

        ``shared`` is the engine's ``EngineStats.solver_counters``
        dict; contexts backed by counting solver cores forward it so
        pivots/conflicts/etc. show up in ``--stats``.  The default is a
        no-op — counters are diagnostics, never verdicts.
        """

    def entails(self, goal: TheoryProp) -> bool:
        raise NotImplementedError

    def entails_batch(self, goals: Sequence[TheoryProp]) -> List[bool]:
        """Decide several goals under the asserted assumptions.

        One call per theory session instead of N single-goal
        round-trips: contexts backed by incremental solvers override
        this so per-batch work (range analysis, encoding setup) happens
        once.  Answers are positional and must agree exactly with
        per-goal :meth:`entails` calls.
        """
        return [self.entails(goal) for goal in goals]

    def is_unsat(self) -> bool:
        """Are the asserted assumptions definitely inconsistent?

        ``False`` means "unknown or consistent"; only a definite
        refutation may answer ``True`` (used by Γ ⊢ ff).
        """
        return False


class BatchContext(TheoryContext):
    """Fallback context for theories without an incremental solver.

    Keeps the accepted assumptions in one list and hands it to the
    theory's one-shot :meth:`~Theory.entails` per goal, or to
    :meth:`~Theory.entails_batch` once per batch.
    """

    __slots__ = ("theory", "_props")

    def __init__(self, theory: Theory) -> None:
        self.theory = theory
        self._props: List[TheoryProp] = []

    def assert_prop(self, prop: Prop) -> None:
        if isinstance(prop, TheoryProp) and self.theory.accepts(prop):
            self._props.append(prop)

    def entails(self, goal: TheoryProp) -> bool:
        return self.theory.accepts(goal) and self.theory.entails(self._props, goal)

    def entails_batch(self, goals: Sequence[TheoryProp]) -> List[bool]:
        """One :meth:`Theory.entails_batch` dispatch for the whole batch."""
        accepted = [goal for goal in goals if self.theory.accepts(goal)]
        if not accepted:
            return [False] * len(goals)
        answers = dict(zip(accepted, self.theory.entails_batch(self._props, accepted)))
        return [answers.get(goal, False) for goal in goals]
