"""Stage 2 — saturation: worklist-driven environment extension.

``Γ, ψ`` used to be computed by a deeply recursive
``_assimilate``/``_learn_type``/``_learn_alias``/``_recanon`` tangle
threading a ``depth`` parameter through every call; on deep programs
(hundreds of nested ``let``/``if`` levels) that recursion tracked the
*program's* shape and could exhaust the Python stack, and its fuel
cutoffs silently dropped facts on merely-deep inputs.

:class:`Saturator` replaces the recursion with an explicit LIFO
worklist: items are popped, sent through the normalization rules of
:mod:`~repro.logic.kernel.normalize`, and their atomic residue is
recorded through a :class:`~repro.logic.kernel.facts.FactStore`.
Children are pushed in reverse, so processing order is exactly the
depth-first order of the old recursion — same facts, same
disjunction-shrinking decisions — but stack consumption is O(1) in
program depth.  A step *budget* (``Logic.max_steps``) replaces the
depth fuel as the termination backstop; exhausting it drops the
remaining queue, which only ever makes the checker more conservative.

The worklist loop is the single hottest loop in the checker (profiling
puts ``assimilate`` near the top of every corpus run), so the per-item
dispatch is inlined here rather than split across one method call and
two dict operations per item: clausification of the four
statically-decomposable forms (∧ / ≡ / ∈ / ∉) pushes work items
directly, and the ``rule_hits`` coverage counters — the signal the
coverage-guided fuzzer schedules on — are accumulated in local
integers and flushed into the stats dict once per assimilation, with
identical totals.

Alias merges re-key existing records onto new representatives
(L-Transport).  The old engine re-learned **every** record on **every**
merge; here the merge reports which objects' representatives actually
changed, and re-canonicalisation is skipped when no record mentions
any of them — the dominant case (a ``let`` aliasing a fresh variable),
which turns per-binding O(Γ) work into O(1).
"""

from __future__ import annotations

from typing import List

from ...tr.objects import PairObj
from ...tr.props import (
    Alias,
    And,
    FalseProp,
    IsType,
    NotType,
    Or,
    Prop,
    TheoryProp,
    TrueProp,
    make_or,
)
from ..env import Env
from .facts import FactStore
from .normalize import (
    ALIAS,
    PROP,
    TYPE,
    canon_theory,
    decompose_type,
)

__all__ = ["Saturator"]


def _identity(obj):
    return obj


class Saturator:
    """Drives normalization outputs into a fact store until fixpoint."""

    __slots__ = ("logic",)

    def __init__(self, logic) -> None:
        self.logic = logic

    # ------------------------------------------------------------------
    def extend(self, env: Env, prop: Prop) -> Env:
        """Return a new environment assuming ``prop`` (Γ, ψ)."""
        if isinstance(prop, TrueProp):
            # Γ, tt = Γ: nothing to assimilate, no snapshot needed.
            return env
        new_env = env.snapshot()
        self.assimilate(new_env, prop)
        return new_env

    def assimilate(self, env: Env, prop: Prop) -> None:
        """Saturate ``env`` with ``prop`` and everything it implies."""
        timers = self.logic.timers
        if timers is None:
            self._assimilate(env, prop)
            return
        started = timers.enter("saturate")
        try:
            self._assimilate(env, prop)
        finally:
            timers.exit("saturate", started)

    def _assimilate(self, env: Env, prop: Prop) -> None:
        logic = self.logic
        kernel = logic.kernel
        work: List = [(PROP, prop)]
        canon = env.canon_obj if logic.use_representatives else _identity
        store = FactStore(
            env,
            canon,
            kernel.subtype_closure(env),
            kernel.lookup_for_store,
            work,
        )
        budget = logic.max_steps
        request_budget = logic.budget  # deadline/cancel token, or None
        request_tick = None if request_budget is None else request_budget.tick
        hits = logic.stats.rule_hits
        use_reps = logic.use_representatives
        # hoisted bound methods and local rule-hit accumulators: the
        # loop body runs once per fact learned, program-wide
        pop = work.pop
        push = work.append
        record_theory = store.record_theory
        record_compound = store.record_compound
        record_type = store.record_type
        quick_refuted = store.quick_refuted
        mark_inconsistent = env.mark_inconsistent
        n_false = n_clausify = 0
        n_or_refuted = n_or_unit = n_or_store = 0
        n_theory = n_compound = 0
        n_decompose = n_type_pos = n_type_neg = 0
        n_alias_fork = n_alias_merge = 0
        while work:
            if env.inconsistent:
                break
            budget -= 1
            if budget < 0:
                # drop the rest: Γ merely learns less (sound)
                hits["sat.budget-exhausted"] = hits.get("sat.budget-exhausted", 0) + 1
                break
            if request_tick is not None:
                # cooperative cancellation: this is the hottest loop in
                # the checker, so an expired deadline is noticed here
                # first; the raise drops a request-scoped env snapshot.
                request_tick()
            item = pop()
            tag = item[0]
            if tag == PROP:
                current = item[1]
                if isinstance(current, TrueProp):
                    continue
                if isinstance(current, FalseProp):
                    n_false += 1
                    mark_inconsistent()
                    continue
                # clausification of statically-decomposable forms,
                # pushed in reverse so pop order matches the old
                # depth-first recursion exactly
                if isinstance(current, And):
                    n_clausify += 1
                    conjuncts = current.conjuncts
                    for index in range(len(conjuncts) - 1, -1, -1):
                        push((PROP, conjuncts[index]))
                    continue
                if isinstance(current, Alias):
                    n_clausify += 1
                    push((ALIAS, current.left, current.right))
                    continue
                if isinstance(current, IsType):
                    n_clausify += 1
                    push((TYPE, current.obj, current.type, True))
                    continue
                if isinstance(current, NotType):
                    n_clausify += 1
                    push((TYPE, current.obj, current.type, False))
                    continue
                if isinstance(current, Or):
                    live = [
                        d for d in current.disjuncts if not quick_refuted(d)
                    ]
                    if not live:
                        n_or_refuted += 1
                        mark_inconsistent()
                    elif len(live) == 1:
                        n_or_unit += 1
                        push((PROP, live[0]))
                    else:
                        n_or_store += 1
                        record_compound(make_or(live))
                    continue
                if isinstance(current, TheoryProp):
                    n_theory += 1
                    record_theory(canon_theory(canon, current))
                    continue
                # e.g. _Unrefutable atoms: inert but kept
                n_compound += 1
                record_compound(current)
            elif tag == TYPE:
                obj = canon(item[1])
                if obj.is_null():
                    continue
                ty = item[2]
                positive = item[3]
                children = decompose_type(obj, ty, positive)
                if children is not None:
                    # L-RefE / M-RefineNot / L-TypeFork, one step at a time
                    n_decompose += 1
                    for index in range(len(children) - 1, -1, -1):
                        push(children[index])
                    continue
                if positive:
                    n_type_pos += 1
                else:
                    n_type_neg += 1
                record_type(obj, ty, positive)
            else:  # ALIAS
                left = canon(item[1])
                right = canon(item[2])
                if left.is_null() or right.is_null() or left == right:
                    continue
                if isinstance(left, PairObj) and isinstance(right, PairObj):
                    # L-ObjFork: pair aliases decompose pointwise
                    n_alias_fork += 1
                    push((ALIAS, left.snd, right.snd))
                    push((ALIAS, left.fst, right.fst))
                    continue
                n_alias_merge += 1
                _rep, changed = env.merge_alias_with_changes(left, right)
                if use_reps:
                    self._recanon_delta(store, changed, hits)
        # flush the batched coverage counters (identical totals to the
        # old per-step dict updates)
        get = hits.get
        if n_false:
            hits["sat.false"] = get("sat.false", 0) + n_false
        if n_clausify:
            hits["sat.clausify"] = get("sat.clausify", 0) + n_clausify
        if n_or_refuted:
            hits["sat.or-refuted"] = get("sat.or-refuted", 0) + n_or_refuted
        if n_or_unit:
            hits["sat.or-unit"] = get("sat.or-unit", 0) + n_or_unit
        if n_or_store:
            hits["sat.or-store"] = get("sat.or-store", 0) + n_or_store
        if n_theory:
            hits["sat.theory"] = get("sat.theory", 0) + n_theory
        if n_compound:
            hits["sat.compound"] = get("sat.compound", 0) + n_compound
        if n_decompose:
            hits["sat.type-decompose"] = get("sat.type-decompose", 0) + n_decompose
        if n_type_pos:
            hits["sat.type+"] = get("sat.type+", 0) + n_type_pos
        if n_type_neg:
            hits["sat.type-"] = get("sat.type-", 0) + n_type_neg
        if n_alias_fork:
            hits["sat.alias-fork"] = get("sat.alias-fork", 0) + n_alias_fork
        if n_alias_merge:
            hits["sat.alias-merge"] = get("sat.alias-merge", 0) + n_alias_merge

    # ------------------------------------------------------------------
    # L-Transport: re-key records onto current representatives
    # ------------------------------------------------------------------
    def _recanon_delta(self, store: FactStore, changed, hits) -> None:
        """Queue a full re-canonicalisation iff the merge can matter."""
        if not changed or not store.any_record_mentions(frozenset(changed)):
            return
        hits["sat.transport"] = hits.get("sat.transport", 0) + 1  # L-Transport
        env = store.env
        old_types = env.types
        old_negs = env.negs
        old_facts = env.theory_facts
        env.reset_records()
        items: List = []
        for obj, ty in old_types.items():
            items.append((TYPE, obj, ty, True))
        for obj, tys in old_negs.items():
            for ty in tys:
                items.append((TYPE, obj, ty, False))
        store.out.extend(reversed(items))
        for fact in old_facts:
            store.record_theory(canon_theory(store.canon, fact))
