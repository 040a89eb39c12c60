"""Stages 3–4 — the iterative proof judgment and the subtyping search.

:class:`ProofKernel` evaluates Γ ⊢ ψ (Figure 6) without recursing over
the proposition: conjunctions and disjunctions are walked by an
explicit frame stack (:meth:`prove`), so goals whose and/or structure
mirrors program depth — exactly what T-If/T-Let joins produce on deep
programs — cost stack space O(1).  The only remaining recursion is the
*search*: case splits over stored disjunctions, refutation attempts
and subtyping through refinements, all of which are fuel-bounded by
``max_depth`` (a bound on proof search effort, independent of program
size).

Theory goals go through the dispatch stage one atom at a time
(:class:`~repro.logic.kernel.dispatch.TheoryDispatch`): each atom is
canonicalised and decided only when the frame machine reaches it, so a
conjunction that fails on an earlier conjunct solves nothing after it.

The memo tables (proof, subtype, lookup) and statistics live on the
owning :class:`~repro.logic.prove.Logic`; the kernel reads and writes
them so cached behaviour — including the fuel-aware negative-answer
reuse — is unchanged from the monolithic engine.
"""

from __future__ import annotations

from typing import List, Optional

from ...tr.objects import BVExpr, FieldRef, LinExpr, Obj, PairObj, Var
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
)
from ...tr.results import TypeResult, fresh_name
from ...tr.subst import prop_subst, result_subst, type_subst
from ...tr.types import (
    INT,
    Fun,
    Pair,
    Poly,
    Refine,
    Top,
    TVar,
    Type,
    Union,
    Vec,
    field_component,
)
from ..env import Env
from ..update import overlap, restrict
from .normalize import canon_theory

__all__ = ["ProofKernel"]

#: sentinel: a frame was pushed; the machine must evaluate its children
_DESCEND = object()


class _Frame:
    """One and/or node of the goal being evaluated."""

    __slots__ = ("conj", "env", "items", "index", "goal", "depth")

    def __init__(self, conj, env, items, goal, depth):
        self.conj = conj
        self.env = env
        self.items = items
        self.index = 0
        self.goal = goal
        self.depth = depth


class ProofKernel:
    """The judgment engine behind :class:`repro.logic.prove.Logic`."""

    __slots__ = ("logic",)

    def __init__(self, logic) -> None:
        self.logic = logic

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _canon(self, env: Env, obj: Obj) -> Obj:
        if self.logic.use_representatives:
            return env.canon_obj(obj)
        return obj

    def _canon_theory(self, env: Env, prop: TheoryProp) -> Prop:
        if self.logic.use_representatives:
            return canon_theory(env.canon_obj, prop)
        return canon_theory(lambda obj: obj, prop)

    def subtype_closure(self, env: Env, depth: int = 0):
        return lambda a, b: self._subtype(env, a, b, depth + 1)

    def lookup_for_store(self, env: Env, obj: Obj) -> Optional[Type]:
        """The lookup hook handed to the saturation stage."""
        return self._lookup(env, obj, 1)

    # ==================================================================
    # the proof judgment Γ ⊢ ψ  (iterative over the prop structure)
    # ==================================================================
    def prove(self, env: Env, goal: Prop, depth: int = 0) -> bool:
        """Γ ⊢ ψ via an explicit and/or frame stack.

        And-frames need every child true; or-frames need any child true
        and fall back to a case split (∨-elimination over stored
        disjunctions) when all children fail — exactly the recursive
        engine's semantics, minus the per-proposition Python frames.
        Structural descent costs no fuel: a conjunction a thousand
        props wide is walked, not given up on.
        """
        stack: List[_Frame] = []
        request_budget = self.logic.budget
        request_tick = None if request_budget is None else request_budget.tick
        verdict = self._leaf(env, goal, depth, stack)
        while stack:
            if request_tick is not None:
                # cooperative cancellation; the raise unwinds before any
                # memo write, so no partial verdict is ever cached.
                request_tick()
            if verdict is _DESCEND:
                frame = stack[-1]
                verdict = self._leaf(
                    frame.env, frame.items[frame.index], frame.depth, stack
                )
                continue
            frame = stack[-1]
            if frame.conj:
                if not verdict:
                    stack.pop()  # one conjunct failed: the And fails
                else:
                    frame.index += 1
                    if frame.index == len(frame.items):
                        stack.pop()
                        verdict = True
                    else:
                        verdict = _DESCEND
            else:
                if verdict:
                    stack.pop()  # one disjunct proved: the Or holds
                else:
                    frame.index += 1
                    if frame.index == len(frame.items):
                        stack.pop()
                        verdict = self._split(frame.env, frame.goal, frame.depth)
                    else:
                        verdict = _DESCEND
        return bool(verdict)

    def _leaf(
        self, env: Env, goal: Prop, depth: int, stack: List[_Frame]
    ) -> object:
        """Evaluate one goal node: a bool, or ``_DESCEND`` after a push."""
        if env.inconsistent:
            return True  # L-Bot
        if depth > self.logic.max_depth:
            return False
        if isinstance(goal, TrueProp):
            return True
        if isinstance(goal, FalseProp):
            return self._inconsistent(env, depth)
        if isinstance(goal, And):
            if not goal.conjuncts:
                return True  # vacuous conjunction
            stack.append(_Frame(True, env, goal.conjuncts, goal, depth))
            return _DESCEND
        if isinstance(goal, Or):
            if not goal.disjuncts:
                return self._split(env, goal, depth)
            stack.append(_Frame(False, env, goal.disjuncts, goal, depth))
            return _DESCEND
        if isinstance(goal, IsType):
            if self._prove_is(env, goal.obj, goal.type, depth):
                return True
            return self._split(env, goal, depth)
        if isinstance(goal, NotType):
            if self._prove_not(env, goal.obj, goal.type, depth):
                return True
            return self._split(env, goal, depth)
        if isinstance(goal, Alias):
            left = self._canon(env, goal.left)
            right = self._canon(env, goal.right)
            if left == right or env.aliases.same_class(left, right):
                return True  # L-Refl / L-Sym / L-Transport
            return self._split(env, goal, depth)
        if isinstance(goal, TheoryProp):
            if self._prove_theory(env, goal, depth):
                return True
            return self._split(env, goal, depth)
        return self._split(env, goal, depth)

    # ------------------------------------------------------------------
    # theory goals (stage 3: dispatch)
    # ------------------------------------------------------------------
    def _prove_theory(self, env: Env, goal: TheoryProp, depth: int) -> bool:
        canonical = self._canon_theory(env, goal)
        if isinstance(canonical, TrueProp):
            return True
        if isinstance(canonical, FalseProp):
            return self._inconsistent(env, depth)
        return self.logic.dispatch.decide_one(env, canonical)  # L-Theory

    # ------------------------------------------------------------------
    # case splits (∨-elimination over stored disjunctions)
    # ------------------------------------------------------------------
    def _split(self, env: Env, goal: Prop, depth: int) -> bool:
        if depth > self.logic.max_depth:
            return False
        extend = self.logic.extend
        for index, compound in enumerate(env.compounds):
            if not isinstance(compound, Or):
                continue
            if len(compound.disjuncts) > self.logic.max_splits:
                continue
            base = env.snapshot()
            base.drop_compound(index)
            if all(
                self.prove(extend(base, disjunct), goal, depth + 1)
                for disjunct in compound.disjuncts
            ):
                return True
        return False

    # ------------------------------------------------------------------
    # type-membership goals
    # ------------------------------------------------------------------
    def _prove_is(self, env: Env, obj: Obj, ty: Type, depth: int) -> bool:
        obj = self._canon(env, obj)
        if obj.is_null():
            return True  # the proposition was discarded as tt
        if isinstance(ty, Top):
            return True
        if isinstance(ty, Refine):
            # L-RefI
            return self._prove_is(env, obj, ty.base, depth + 1) and self.prove(
                env, prop_subst(ty.prop, {ty.var: obj}), depth + 1
            )
        known = self._lookup(env, obj, depth + 1)
        if known is not None and self._subtype(env, known, ty, depth + 1):
            return True  # L-Sub
        if isinstance(obj, PairObj) and isinstance(ty, Pair):
            return self._prove_is(env, obj.fst, ty.fst, depth + 1) and self._prove_is(
                env, obj.snd, ty.snd, depth + 1
            )
        if isinstance(ty, Union):
            return any(self._prove_is(env, obj, m, depth + 1) for m in ty.members)
        return False

    def _prove_not(self, env: Env, obj: Obj, ty: Type, depth: int) -> bool:
        obj = self._canon(env, obj)
        if obj.is_null():
            return True
        known = self._lookup(env, obj, depth + 1)
        if known is not None and not overlap(known, ty):
            return True  # M-TypeNot's proof-side analogue
        for negative in env.negs.get(obj, ()):
            if self._subtype(env, ty, negative, depth + 1):
                return True
        if isinstance(ty, Union) and ty.members:
            return all(self._prove_not(env, obj, m, depth + 1) for m in ty.members)
        # L-Not: assume o ∈ τ and look for a contradiction.
        if depth + 1 <= self.logic.max_depth:
            assumed = self.logic.extend(env, IsType(obj, ty))
            if self._inconsistent(assumed, depth + 1):
                return True
        return False

    def _inconsistent(self, env: Env, depth: int) -> bool:
        """Is the environment absurd (Γ ⊢ ff)?"""
        if env.inconsistent:
            return True
        if depth > self.logic.max_depth:
            return False
        for ty in env.types.values():
            if isinstance(ty, Union) and not ty.members:
                return True
        if self.logic.theory_session(env).linear_unsat():
            return True
        extend = self.logic.extend
        for index, compound in enumerate(env.compounds):
            if not isinstance(compound, Or):
                continue
            if len(compound.disjuncts) > self.logic.max_splits:
                continue
            base = env.snapshot()
            base.drop_compound(index)
            if all(
                self._inconsistent(extend(base, d), depth + 1)
                for d in compound.disjuncts
            ):
                return True
        return False

    # ==================================================================
    # lookups
    # ==================================================================
    def _lookup(self, env: Env, obj: Obj, depth: int) -> Optional[Type]:
        """The best structural type known for ``obj`` (L-Sub's premise).

        Memoised per (environment fingerprint, object); an entry is
        reused only when it was computed with at least as much fuel, so
        a fuel-starved (less precise) answer never replaces what a
        deeper search would have derived.
        """
        logic = self.logic
        if depth > logic.max_depth:
            return None
        logic.stats.lookup_calls += 1
        fuel = logic.max_depth - depth
        key = (env.fingerprint(), obj._iid)
        hit = logic._lookup_cache.get(key)
        if hit is not None and hit[1] >= fuel:
            logic.stats.lookup_hits += 1
            return hit[0]
        result = self._lookup_search(env, obj, depth)
        if hit is None or fuel > hit[1]:
            if len(logic._lookup_cache) >= logic._cache_limit:
                logic._lookup_cache.clear()
            logic._lookup_cache[key] = (result, fuel)
        return result

    def _lookup_search(self, env: Env, obj: Obj, depth: int) -> Optional[Type]:
        obj = self._canon(env, obj)
        candidates: List[Type] = []
        direct = env.types.get(obj)
        if direct is not None:
            candidates.append(direct)
        if isinstance(obj, (LinExpr, BVExpr)):
            # Linear and bitvector expressions are integer-valued by
            # construction (the checker only builds them from Int terms).
            candidates.append(INT)
        if isinstance(obj, PairObj):
            fst_ty = self._lookup(env, obj.fst, depth + 1)
            snd_ty = self._lookup(env, obj.snd, depth + 1)
            if fst_ty is not None and snd_ty is not None:
                candidates.append(Pair(fst_ty, snd_ty))
        if isinstance(obj, FieldRef):
            base_ty = self._lookup(env, obj.base, depth + 1)
            if base_ty is not None:
                derived = field_component(base_ty, obj.field)
                if derived is not None:
                    candidates.append(derived)
        if not candidates:
            return None
        sub = self.subtype_closure(env, depth)
        result = candidates[0]
        for extra in candidates[1:]:
            result = restrict(result, extra, sub)
        return result

    # ==================================================================
    # subtyping (Figure 5)
    # ==================================================================
    def _subtype(self, env: Env, sub: Type, sup: Type, depth: int) -> bool:
        """Figure 5, memoised.

        Positive answers are sound at any depth (fuel only bounds the
        search, never the judgment), so they are reused freely; negative
        answers are reused only when computed with at least as much fuel
        as the caller has, which keeps memoisation from ever being more
        conservative than the plain search.
        """
        if sub == sup:
            return True  # S-Refl
        logic = self.logic
        if depth > logic.max_depth:
            return False
        logic.stats.subtype_calls += 1
        fuel = logic.max_depth - depth
        key = (env.fingerprint(), sub._iid, sup._iid)
        hit = logic._subtype_cache.get(key)
        if hit is not None and (hit[0] or hit[1] >= fuel):
            logic.stats.subtype_hits += 1
            return hit[0]
        result = self._subtype_search(env, sub, sup, depth)
        if hit is None or result or fuel > hit[1]:
            if len(logic._subtype_cache) >= logic._cache_limit:
                logic._subtype_cache.clear()
            logic._subtype_cache[key] = (result, fuel)
        return result

    def _subtype_search(self, env: Env, sub: Type, sup: Type, depth: int) -> bool:
        if isinstance(sup, Top):
            return True  # S-Top
        if isinstance(sub, Union):
            return all(self._subtype(env, m, sup, depth + 1) for m in sub.members)
        if isinstance(sub, Refine):
            # S-Refine1 (which subsumes S-Weaken): Γ, x∈τ, ψ ⊢ x ∈ σ
            name = fresh_name(sub.var)
            var = Var(name)
            extended = self.logic.extend(
                env, IsType(var, Refine(sub.var, sub.base, sub.prop))
            )
            return self._prove_is(extended, var, sup, depth + 1)
        if isinstance(sup, Union):
            return any(self._subtype(env, sub, m, depth + 1) for m in sup.members)
        if isinstance(sup, Refine):
            # S-Refine2
            if not self._subtype(env, sub, sup.base, depth + 1):
                return False
            name = fresh_name(sup.var)
            var = Var(name)
            extended = self.logic.extend(env, IsType(var, sub))
            return self.prove(
                extended, prop_subst(sup.prop, {sup.var: var}), depth + 1
            )
        if isinstance(sub, Pair) and isinstance(sup, Pair):
            return self._subtype(env, sub.fst, sup.fst, depth + 1) and self._subtype(
                env, sub.snd, sup.snd, depth + 1
            )
        if isinstance(sub, Vec) and isinstance(sup, Vec):
            # Mutable vectors are invariant.
            return self._subtype(env, sub.elem, sup.elem, depth + 1) and self._subtype(
                env, sup.elem, sub.elem, depth + 1
            )
        if isinstance(sub, Fun) and isinstance(sup, Fun):
            return self._subtype_fun(env, sub, sup, depth)
        if isinstance(sub, Poly) and isinstance(sup, Poly):
            if len(sub.tvars) != len(sup.tvars):
                return False
            from ...tr.subst import type_subst_tvars

            renaming = {
                old: TVar(new) for old, new in zip(sup.tvars, sub.tvars)
            }
            return self._subtype(
                env, sub.body, type_subst_tvars(sup.body, renaming), depth + 1
            )
        return False

    def _subtype_fun(self, env: Env, sub: Fun, sup: Fun, depth: int) -> bool:
        """S-Fun, n-ary: contravariant domains, covariant dependent range."""
        if sub.arity != sup.arity:
            return False
        fresh = [Var(fresh_name(name)) for name, _ in sup.args]
        sub_map = {name: var for (name, _), var in zip(sub.args, fresh)}
        sup_map = {name: var for (name, _), var in zip(sup.args, fresh)}
        extended = env
        for i in range(sub.arity):
            sub_dom = type_subst(sub.args[i][1], sub_map)
            sup_dom = type_subst(sup.args[i][1], sup_map)
            if not self._subtype(extended, sup_dom, sub_dom, depth + 1):
                return False
            # The environment assigns the more specific (super) domain.
            extended = self.logic.extend(extended, IsType(fresh[i], sup_dom))
        sub_result = result_subst(sub.result, sub_map)
        sup_result = result_subst(sup.result, sup_map)
        return self._result_subtype(extended, sub_result, sup_result, depth + 1)

    # ==================================================================
    # type-result subtyping (SR-Result, SR-Exists)
    # ==================================================================
    def _result_subtype(
        self, env: Env, sub: TypeResult, sup: TypeResult, depth: int
    ) -> bool:
        if depth > self.logic.max_depth:
            return False
        # SR-Exists: open the left result's existential binders.
        extended = env
        for name, ty in sub.binders:
            extended = self.logic.extend(extended, IsType(Var(name), ty))
        if sup.binders:
            return False  # annotations never carry existentials
        # With a non-null object the type obligation strengthens to
        # Γ ⊢ o ∈ τ₂ (L-Sub through the object), which lets environment
        # facts about o — e.g. a conditional's guard — discharge
        # refinements the bare type cannot.
        type_ok = False
        if not sub.obj.is_null():
            extended_with = self.logic.extend(extended, IsType(sub.obj, sub.type))
            type_ok = self.prove(
                extended_with, IsType(sub.obj, sup.type), depth + 1
            )
        if not type_ok and not self._subtype(extended, sub.type, sup.type, depth + 1):
            return False
        sup_obj = self._canon(extended, sup.obj)
        if not sup_obj.is_null():
            sub_obj = self._canon(extended, sub.obj)
            if sub_obj != sup_obj and not extended.aliases.same_class(sub_obj, sup_obj):
                return False
        then_env = self.logic.extend(extended, sub.then_prop)
        if not self.prove(then_env, sup.then_prop, depth + 1):
            return False
        else_env = self.logic.extend(extended, sub.else_prop)
        return self.prove(else_env, sup.else_prop, depth + 1)

