"""The λRTR typing judgment (Figure 4), made algorithmic (section 4.1).

``Checker.synth`` assigns every expression a type-result
``(τ ; ψ+ | ψ- ; o)``.  Subsumption is inlined: elimination positions
perform explicit proof obligations (``Γ ⊢ o ∈ τ`` via the logic), and
existential binders on sub-results are propagated upward rather than
simplified at each step — both techniques the paper describes for
scaling the declarative system.

Highlights:

* **T-App** substitutes actual symbolic objects into dependent domains
  and the range (the lifting substitution ``R[x ⟹τ o]``); arguments
  with null objects are opened as existentials.
* **T-If** projects then/else propositions into the branches, detects
  dead branches (Γ ⊢ ff) so the `dot-prod` dynamic-check idiom works,
  and joins branch results.
* **T-Let** records the binding's type, its then/else disjunction
  ``ψx``, and the alias ``x ≡ o₁`` — eagerly collapsed onto a
  representative object (section 4.1).
* **letrec** (the residue of the ``for`` macros) infers un-annotatable
  λ domains with the section 4.4 Nat heuristic.
* **Mutation** (section 4.2): ``set!`` targets get no symbolic object,
  so no occurrence information is ever learned from tests on them.
"""

from __future__ import annotations

import gc
from typing import Dict, List, Optional, Sequence, Tuple

from ..logic.env import Env
from ..logic.prove import Logic
from ..syntax.ast import (
    AnnE,
    AppE,
    BoolE,
    Define,
    Expr,
    FstE,
    IfE,
    IntE,
    LamE,
    LetE,
    LetRecE,
    PairE,
    PrimE,
    Program,
    SetE,
    SndE,
    StrE,
    StructRefE,
    VarE,
    VecE,
)
from ..tr.objects import (
    FST,
    LEN,
    NULL,
    SND,
    LinExpr,
    Obj,
    Var,
    lin_scale,
    obj_field,
    obj_int,
    obj_pair,
)
from ..tr.props import (
    FF,
    IsType,
    Prop,
    TT,
    lin_eq,
    make_alias,
    make_and,
    make_is,
    make_not,
    make_or,
)
from ..tr.results import (
    TypeResult,
    fresh_name,
    reset_fresh_names,
    result_of_type,
    true_result,
)
from ..tr.subst import close_result, lift_subst, result_subst, type_subst
from ..tr.types import (
    BOT,
    BOOL,
    FALSE,
    INT,
    STR,
    TOP,
    TRUE,
    VOID,
    FalseT,
    Fun,
    Pair,
    Poly,
    Refine,
    TrueT,
    Type,
    Vec,
    field_component,
    make_union,
)
from .errors import ArityError, CheckError, UnboundVariable, UnsupportedFeature
from .infer import candidate_signatures, instantiate_poly
from .mutation import mutated_variables
from .prims import prim_type
from ..tr.pretty import pretty_result, pretty_type

__all__ = ["Checker", "check_program_text", "shared_logic"]

#: The process-wide default proof engine.  Hash-consing makes its caches
#: content-addressed (exact environment fingerprints + goals), so
#: sharing them across checker instances is sound — a hit returns
#: precisely what the search would recompute — and lets repeated checks
#: of overlapping programs (REPL turns, watch modes, corpora) reuse
#: proofs and theory translations instead of starting cold.
_SHARED_LOGIC: Optional[Logic] = None


def shared_logic() -> Logic:
    """The lazily-created process-wide :class:`Logic` instance."""
    global _SHARED_LOGIC
    if _SHARED_LOGIC is None:
        _SHARED_LOGIC = Logic()
    return _SHARED_LOGIC


class Checker:
    """The RTR type checker."""

    def __init__(self, logic: Optional[Logic] = None, nat_heuristic: bool = True):
        #: one Logic threads the whole program (and, by default, the
        #: whole process): environments, proof caches and theory
        #: sessions persist across every judgment the checker consults.
        self.logic = logic if logic is not None else shared_logic()
        #: section 4.4's inference heuristic; off, un-annotated loop
        #: parameters are tried only at Int (annotations still count).
        self.nat_heuristic = nat_heuristic
        self._mutated: frozenset = frozenset()
        #: inside a §4.4 probe (a loop candidate that is not the last):
        #: check_expr tries an `if`'s cheap else-branch first, since a
        #: probe's failure is thrown away and only its verdict counts.
        self._refute_first = False
        #: declared types of mutable bindings — set! must preserve them
        #: (including refinements, which would otherwise be unpacked
        #: into the environment and lost).
        self._declared: Dict[str, Type] = {}

    def _bind(self, env: Env, name: str, ty: Type) -> Env:
        """Record a binding; mutable bindings keep their declared type.

        Singleton boolean types are widened for mutable bindings (as
        Typed Racket generalises literal types at mutable positions),
        so ``(let ([flag #t]) (set! flag #f) ...)`` checks.
        """
        if name in self._mutated:
            if isinstance(ty, (TrueT, FalseT)):
                ty = BOOL
            self._declared[name] = ty
        return self.logic.extend(env, IsType(Var(name), ty))

    # ==================================================================
    # programs
    # ==================================================================
    def check_program(self, program: Program) -> Dict[str, Type]:
        """Check a whole module; returns the type of each definition.

        Raises :class:`CheckError` (or a subclass) on the first
        ill-typed definition or body expression.
        """
        # Checking allocates heavily (environment snapshots, interned
        # nodes) and, like the solver cores, creates almost no cyclic
        # garbage — the exceptions caught during loop-signature
        # inference are the lone source, and they are reclaimed when
        # collection resumes.  Pausing the cyclic collector for the
        # duration keeps generation scans out of the hot path.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return self._check_program(program)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _check_program(self, program: Program) -> Dict[str, Type]:
        # Restart the fresh-name counter at the program's floor: names
        # drawn during checking are deterministic per program (so
        # re-checks hit the content-addressed caches) yet can never
        # collide with — or be captured by — any ``%``-name already
        # embedded in the program's types (see Program.fresh_floor).
        reset_fresh_names(getattr(program, "fresh_floor", 0))
        self._mutated = mutated_variables(program)
        env = Env()
        types: Dict[str, Type] = {}
        # Annotated definitions are in scope everywhere (mutual recursion).
        for define in program.defines:
            if define.annotation is not None:
                env = self._bind(env, define.name, define.annotation)
                types[define.name] = define.annotation
        for define in program.defines:
            if define.annotation is not None:
                self.check_against(env, define.expr, define.annotation)
            else:
                if isinstance(define.expr, LamE) and any(
                    ann is None for _, ann in define.expr.params
                ):
                    # Unannotated function definition: apply the same
                    # candidate inference as loop lambdas (§4.4).
                    fun_ty = self._infer_loop_signature(
                        env, define.name, define.expr
                    )
                    types[define.name] = fun_ty
                    env = self._bind(env, define.name, fun_ty)
                    continue
                result = self.synth(env, define.expr)
                result = close_result(result)
                types[define.name] = result.type
                env = self._bind(env, define.name, result.type)
                if define.name not in self._mutated and not result.obj.is_null():
                    env = self.logic.extend(
                        env, make_alias(Var(define.name), result.obj)
                    )
        for expr in program.body:
            self.synth(env, expr)
        return types

    # ==================================================================
    # synthesis:  Γ ⊢ e : (τ ; ψ+ | ψ- ; o)
    # ==================================================================
    def synth(self, env: Env, expr: Expr) -> TypeResult:
        if isinstance(expr, IntE):
            # Theory-enriched T-Int: the literal is its own object.
            return true_result(INT, obj_int(expr.value))
        if isinstance(expr, BoolE):
            if expr.value:
                return TypeResult(TRUE, TT, FF, NULL)
            return TypeResult(FALSE, FF, TT, NULL)
        if isinstance(expr, StrE):
            return true_result(STR)
        if isinstance(expr, PrimE):
            return true_result(prim_type(expr.name))
        if isinstance(expr, VarE):
            return self._synth_var(env, expr)
        if isinstance(expr, LamE):
            return self._synth_lambda(env, expr)
        if isinstance(expr, AppE):
            return self._synth_app(env, expr)
        if isinstance(expr, IfE):
            return self._synth_if(env, expr)
        if isinstance(expr, LetE):
            return self._synth_let(env, expr)
        if isinstance(expr, LetRecE):
            return self._synth_letrec(env, expr)
        if isinstance(expr, PairE):
            return self._synth_pair(env, expr)
        if isinstance(expr, FstE):
            return self._synth_field(env, expr.pair, FST, expr)
        if isinstance(expr, SndE):
            return self._synth_field(env, expr.pair, SND, expr)
        if isinstance(expr, VecE):
            return self._synth_vector(env, expr)
        if isinstance(expr, SetE):
            return self._synth_set(env, expr)
        if isinstance(expr, AnnE):
            return self._synth_ann(env, expr)
        if isinstance(expr, StructRefE):
            raise UnsupportedFeature(
                "dependent record fields are not supported by RTR", expr
            )
        raise CheckError(f"cannot type check {expr!r}", expr)

    # ------------------------------------------------------------- T-Var
    def _synth_var(self, env: Env, expr: VarE) -> TypeResult:
        if expr.name in self._mutated:
            # section 4.2: no symbolic object for mutable variables.
            # Reads see the declared type — an invariant every set!
            # preserves — never occurrence-refined information.
            ty = self._declared.get(expr.name)
            if ty is None:
                ty = self.logic._lookup(env, Var(expr.name), 0)
            if ty is None:
                raise UnboundVariable(f"unbound variable {expr.name!r}", expr)
            return TypeResult(ty, TT, TT, NULL)
        ty = self.logic._lookup(env, Var(expr.name), 0)
        if ty is None:
            raise UnboundVariable(f"unbound variable {expr.name!r}", expr)
        obj = Var(expr.name)
        return TypeResult(ty, make_not(obj, FALSE), make_is(obj, FALSE), obj)

    # ------------------------------------------------------------- T-Abs
    def _synth_lambda(self, env: Env, expr: LamE) -> TypeResult:
        args: List[Tuple[str, Type]] = []
        inner = env
        for name, ann in expr.params:
            if ann is None:
                raise CheckError(
                    "cannot infer a type for this λ parameter; "
                    "add an annotation or an expected type",
                    expr,
                )
            args.append((name, ann))
            inner = self._bind(inner, name, ann)
        body_result = self.synth(inner, expr.body)
        return true_result(Fun(tuple(args), body_result))

    # ------------------------------------------------------------- T-App
    def _synth_app(self, env: Env, expr: AppE) -> TypeResult:
        fn_result = self.synth(env, expr.fn)
        env, binders = self._open(env, fn_result)
        fn_ty = fn_result.type
        while isinstance(fn_ty, Refine):
            fn_ty = fn_ty.base

        arg_results: List[TypeResult] = []
        arg_objs: List[Obj] = []
        arg_types: List[Type] = []
        correlations: List[Prop] = []
        for arg in expr.args:
            result = self.synth(env, arg)
            env, opened = self._open(env, result)
            binders += opened
            arg_results.append(result)
            arg_types.append(result.type)
            obj = result.obj
            if obj.is_null():
                # Lifting substitution's existential side, done eagerly.
                fresh = fresh_name("arg")
                fresh_var = Var(fresh)
                env = self.logic.extend(env, IsType(fresh_var, result.type))
                # Keep the argument's then/else knowledge: the fresh
                # witness is non-#f exactly when ψ+ held (the T-Let ψx
                # trick) — this is what makes `(not (int? x))` informative.
                correlation = make_or(
                    (
                        make_and((make_not(fresh_var, FALSE), result.then_prop)),
                        make_and((make_is(fresh_var, FALSE), result.else_prop)),
                    )
                )
                env = self.logic.extend(env, correlation)
                if correlation != TT:
                    correlations.append(correlation)
                binders += ((fresh, result.type),)
                obj = fresh_var
            arg_objs.append(obj)

        if isinstance(fn_ty, Poly):
            instantiated = instantiate_poly(fn_ty, arg_types)
            if instantiated is None:
                raise CheckError(
                    f"cannot instantiate polymorphic type {fn_ty!r}", expr
                )
            fn_ty = instantiated
        if not isinstance(fn_ty, Fun):
            raise CheckError(f"application of a non-function: {fn_result.type!r}", expr)
        if fn_ty.arity != len(expr.args):
            raise ArityError(
                f"expected {fn_ty.arity} arguments, got {len(expr.args)}", expr
            )

        mapping: Dict[str, Obj] = {}
        for position, ((formal, domain), obj) in enumerate(
            zip(fn_ty.args, arg_objs), start=1
        ):
            expected = type_subst(domain, mapping)
            if not self.logic.proves(env, IsType(obj, expected)):
                raise CheckError(
                    f"argument {position}, expected:\n"
                    f"  {pretty_type(expected)}\n"
                    f"but given: {pretty_type(arg_results[position - 1].type)}",
                    expr,
                )
            mapping[formal] = obj

        result = result_subst(fn_ty.result, mapping)
        result = self._patch_multiplication(expr, arg_objs, result)
        if correlations:
            extra = make_and(correlations)
            result = TypeResult(
                result.type,
                make_and((result.then_prop, extra)),
                make_and((result.else_prop, extra)),
                result.obj,
                result.binders,
            )
        return result.with_binders(binders)

    def _patch_multiplication(
        self, expr: AppE, arg_objs: Sequence[Obj], result: TypeResult
    ) -> TypeResult:
        """``(* c e)`` with a literal factor is linear: give it an object."""
        if not (isinstance(expr.fn, PrimE) and expr.fn.name in ("*", "fx*")):
            return result
        if len(arg_objs) != 2 or not result.obj.is_null():
            return result
        left, right = arg_objs
        scaled: Optional[Obj] = None
        if isinstance(left, LinExpr) and left.is_constant():
            scaled = lin_scale(left.const, right)
        elif isinstance(right, LinExpr) and right.is_constant():
            scaled = lin_scale(right.const, left)
        if scaled is None or scaled.is_null():
            return result
        return TypeResult(
            result.type, result.then_prop, result.else_prop, scaled, result.binders
        )

    # -------------------------------------------------------------- T-If
    def _synth_if(self, env: Env, expr: IfE) -> TypeResult:
        test = self.synth(env, expr.test)
        env, binders = self._open(env, test)
        then_env = self.logic.extend(env, test.then_prop)
        else_env = self.logic.extend(env, test.else_prop)

        then_result = self._synth_branch(then_env, expr.then)
        else_result = self._synth_branch(else_env, expr.els)
        then_result = close_result(then_result)
        else_result = close_result(else_result)

        joined_type = make_union((then_result.type, else_result.type))
        then_prop = make_or(
            (
                make_and((test.then_prop, then_result.then_prop)),
                make_and((test.else_prop, else_result.then_prop)),
            )
        )
        else_prop = make_or(
            (
                make_and((test.then_prop, then_result.else_prop)),
                make_and((test.else_prop, else_result.else_prop)),
            )
        )
        obj = NULL
        if not then_result.obj.is_null() and not else_result.obj.is_null():
            if env.canon_obj(then_result.obj) == env.canon_obj(else_result.obj):
                obj = then_result.obj
        return TypeResult(joined_type, then_prop, else_prop, obj, binders)

    def _synth_branch(self, env: Env, expr: Expr) -> TypeResult:
        """Check a conditional branch; a dead branch contributes ⊥.

        Γ ⊢ ff admits any typing for the branch, so we do not descend
        into it — this is what lets `(unless guard (error ...))` inform
        the rest of the body.
        """
        if self.logic.proves(env, FF):
            return TypeResult(BOT, FF, FF, NULL)
        return self.synth(env, expr)

    # ------------------------------------------------------------- T-Let
    def _bind_let(self, env: Env, expr: LetE) -> Tuple[Env, TypeResult, Tuple]:
        """T-Let's environment work for one binding; returns (env', rhs, binders)."""
        rhs = self.synth(env, expr.rhs)
        env, binders = self._open(env, rhs)
        name = expr.name
        var = Var(name)
        env = self._bind(env, name, rhs.type)
        if name not in self._mutated:
            occurrence = make_or(
                (
                    make_and((make_not(var, FALSE), rhs.then_prop)),
                    make_and((make_is(var, FALSE), rhs.else_prop)),
                )
            )
            env = self.logic.extend(env, occurrence)
            if not rhs.obj.is_null():
                env = self.logic.extend(env, make_alias(var, rhs.obj))
        return env, rhs, binders

    def _synth_let(self, env: Env, expr: LetE) -> TypeResult:
        # Whole let *spines* are synthesised by one call: chains of
        # bindings are how macro towers and long bodies lower, so their
        # length tracks the program and must not consume Python stack.
        spine: List[Tuple[str, TypeResult, Tuple]] = []
        current: Expr = expr
        while isinstance(current, LetE):
            env, rhs, binders = self._bind_let(env, current)
            spine.append((current.name, rhs, binders))
            current = current.body
        out = self.synth(env, current)
        for name, rhs, binders in reversed(spine):
            obj = NULL if name in self._mutated else rhs.obj
            out = lift_subst(out, name, rhs.type, obj)
            out = out.with_binders(binders)
        return out

    # ------------------------------------------------------------ letrec
    def _synth_letrec(self, env: Env, expr: LetRecE) -> TypeResult:
        signatures: List[Type] = []
        inferred_env = env
        unresolved: List[int] = []
        for index, (name, annotation, lam) in enumerate(expr.bindings):
            if annotation is not None:
                signatures.append(annotation)
                inferred_env = self.logic.extend(
                    inferred_env, IsType(Var(name), annotation)
                )
            else:
                signatures.append(TOP)  # placeholder
                unresolved.append(index)
        for index in unresolved:
            name, _, lam = expr.bindings[index]
            fun_ty = self._infer_loop_signature(inferred_env, name, lam)
            signatures[index] = fun_ty
            inferred_env = self.logic.extend(inferred_env, IsType(Var(name), fun_ty))
        for (name, annotation, lam), signature in zip(expr.bindings, signatures):
            if annotation is not None:
                self.check_against(inferred_env, lam, signature)
            # inferred signatures were already validated during inference
        body = self.synth(inferred_env, expr.body)
        for (name, _, _), signature in zip(expr.bindings, signatures):
            body = lift_subst(body, name, signature, NULL)
        return body

    def _infer_loop_signature(self, env: Env, name: str, lam: LamE) -> Fun:
        """Try candidate domains/ranges for an unannotated loop λ (§4.4).

        The candidates are tried in :func:`candidate_signatures`' order
        and the first that checks wins.  Every candidate but the last is
        a *probe*, checked refutation-first: an `if` whose else-branch
        is cheap (typically the loop's exit, ``acc`` or ``(void)``)
        checks that branch before its recursive branch, so a wrong
        range fails before the index proofs are paid for.  A candidate
        passes only when every live branch does, in either order, so
        the winner is the same.  The last candidate keeps the normal
        order: its error is the one reported when no candidate checks.
        """
        candidates = list(candidate_signatures(lam, self.nat_heuristic))
        last_error: Optional[CheckError] = None
        outer = self._refute_first
        try:
            for index, (domains, rng) in enumerate(candidates):
                candidate = Fun(
                    tuple(zip(lam.param_names(), domains)), result_of_type(rng)
                )
                trial_env = self.logic.extend(env, IsType(Var(name), candidate))
                self._refute_first = outer or index < len(candidates) - 1
                try:
                    self.check_against(trial_env, lam, candidate)
                    return candidate
                except CheckError as exc:
                    last_error = exc
        finally:
            self._refute_first = outer
        raise CheckError(
            f"could not infer a type for the loop function {name!r}"
            + (f"\nlast attempt failed with:\n{last_error}" if last_error else ""),
            lam,
        )

    # ------------------------------------------------------ T-Cons / T-Fst
    def _synth_pair(self, env: Env, expr: PairE) -> TypeResult:
        fst = self.synth(env, expr.fst)
        env, binders = self._open(env, fst)
        snd = self.synth(env, expr.snd)
        env, more = self._open(env, snd)
        binders += more
        # T-Cons's lifting substitutions: components without objects get
        # existential witnesses, so ⟨o₁, o₂⟩ survives (and field access
        # on the pair normalises back to the component objects).
        objs: List[Obj] = []
        for component in (fst, snd):
            obj = component.obj
            if obj.is_null():
                fresh = fresh_name("elem")
                env = self.logic.extend(env, IsType(Var(fresh), component.type))
                binders += ((fresh, component.type),)
                obj = Var(fresh)
            objs.append(obj)
        return TypeResult(
            Pair(fst.type, snd.type), TT, FF, obj_pair(objs[0], objs[1]), binders
        )

    def _synth_field(self, env: Env, pair_expr: Expr, field: str, expr: Expr) -> TypeResult:
        result = self.synth(env, pair_expr)
        env, binders = self._open(env, result)
        component = field_component(result.type, field)
        if component is None:
            # Perhaps the environment knows more than the raw type.
            if not result.obj.is_null():
                known = self.logic._lookup(env, result.obj, 0)
                if known is not None:
                    component = field_component(known, field)
        if component is None:
            raise CheckError(
                f"{field} of a non-pair: {result.type!r}", expr
            )
        obj = obj_field(field, result.obj) if not result.obj.is_null() else NULL
        return TypeResult(
            component, make_not(obj, FALSE), make_is(obj, FALSE), obj, binders
        )

    # ------------------------------------------------------------ vectors
    def _synth_vector(self, env: Env, expr: VecE) -> TypeResult:
        binders: Tuple[Tuple[str, Type], ...] = ()
        elem_types: List[Type] = []
        for elem in expr.elems:
            result = self.synth(env, elem)
            env, opened = self._open(env, result)
            binders += opened
            elem_types.append(close_result(result).type)
        elem_ty = make_union(elem_types) if elem_types else BOT
        name = fresh_name("vec")
        refined = Refine(
            name,
            Vec(elem_ty),
            lin_eq(obj_field(LEN, Var(name)), obj_int(len(expr.elems))),
        )
        return TypeResult(refined, TT, FF, NULL, binders)

    # -------------------------------------------------------------- set!
    def _synth_set(self, env: Env, expr: SetE) -> TypeResult:
        declared = self._declared.get(expr.name)
        if declared is None:
            declared = env.var_type(expr.name)
        if declared is None:
            declared = self.logic._lookup(env, Var(expr.name), 0)
        if declared is None:
            raise UnboundVariable(f"set! of unbound variable {expr.name!r}", expr)
        rhs = self.synth(env, expr.rhs)
        env, _ = self._open(env, rhs)
        self._check_result_against(env, rhs, declared, expr)
        return true_result(VOID)

    # --------------------------------------------------------------- ann
    def _synth_ann(self, env: Env, expr: AnnE) -> TypeResult:
        if isinstance(expr.expr, LamE):
            self.check_against(env, expr.expr, expr.type)
            return true_result(expr.type)
        result = self.synth(env, expr.expr)
        inner_env, binders = self._open(env, result)
        self._check_result_against(inner_env, result, expr.type, expr)
        return TypeResult(
            expr.type, result.then_prop, result.else_prop, result.obj, binders
        )

    def _check_result_against(
        self, env: Env, result: TypeResult, expected: Type, expr: Expr
    ) -> None:
        obj = result.obj
        if obj.is_null():
            fresh = fresh_name("ascribe")
            env = self.logic.extend(env, IsType(Var(fresh), result.type))
            obj = Var(fresh)
        if not self.logic.proves(env, IsType(obj, expected)):
            raise CheckError(
                f"expected:\n  {pretty_type(expected)}\n"
                f"but given: {pretty_type(result.type)}",
                expr,
            )

    # ==================================================================
    # checking mode (annotated definitions / ascribed lambdas)
    # ==================================================================
    def check_against(self, env: Env, expr: Expr, expected: Type) -> None:
        if isinstance(expr, LamE) and isinstance(expected, Poly):
            # Rigid type variables: just check the body against the Fun.
            self.check_against(env, expr, expected.body)
            return
        if isinstance(expr, LamE) and isinstance(expected, Fun):
            self._check_lambda(env, expr, expected)
            return
        if isinstance(expr, AnnE):
            self.check_against(env, expr.expr, expr.type)
            result = true_result(expr.type)
            self._check_result_against(env, result, expected, expr)
            return
        result = self.synth(env, expr)
        env, _ = self._open(env, result)
        self._check_result_against(env, result, expected, expr)

    def _check_lambda(self, env: Env, lam: LamE, expected: Fun) -> None:
        if len(lam.params) != expected.arity:
            raise ArityError(
                f"λ has {len(lam.params)} parameters but its type expects "
                f"{expected.arity}",
                lam,
            )
        mapping: Dict[str, Obj] = {}
        inner = env
        for (param, _), (formal, domain) in zip(lam.params, expected.args):
            declared = type_subst(domain, mapping)
            inner = self._bind(inner, param, declared)
            mapping[formal] = Var(param)
        expected_result = result_subst(expected.result, mapping)
        self.check_expr(inner, lam.body, expected_result)

    # ------------------------------------------------------------------
    # expression checking mode: push the expected result into branches,
    # the algorithmic counterpart of T-Subsume applied under T-If/T-Let.
    # ------------------------------------------------------------------
    def check_expr(self, env: Env, expr: Expr, expected: TypeResult) -> None:
        # let spines are walked by a loop (stack-free, like _synth_let)
        while isinstance(expr, LetE):
            env, _rhs, _binders = self._bind_let(env, expr)
            expr = expr.body
        if isinstance(expr, IfE):
            test = self.synth(env, expr.test)
            env, _ = self._open(env, test)
            then_env = self.logic.extend(env, test.then_prop)
            else_env = self.logic.extend(env, test.else_prop)
            branches = ((then_env, expr.then), (else_env, expr.els))
            if self._refute_first and _cheap(expr.els) and not _cheap(expr.then):
                branches = branches[::-1]
            for branch_env, branch in branches:
                if not self.logic.proves(branch_env, FF):
                    self.check_expr(branch_env, branch, expected)
            return
        if isinstance(expr, AnnE) and not isinstance(expr.expr, LamE):
            result = self.synth(env, expr)
            env, _ = self._open(env, result)
            if not self.logic.result_subtype(env, result, expected):
                raise CheckError(
                    f"expected result:\n  {pretty_result(expected)}\n"
                    f"but computed: {pretty_result(close_result(result))}",
                    expr,
                )
            return
        result = self.synth(env, expr)
        env, _ = self._open(env, result)
        core = TypeResult(
            result.type, result.then_prop, result.else_prop, result.obj, ()
        )
        if not self.logic.result_subtype(env, core, expected):
            raise CheckError(
                f"expected result:\n  {pretty_result(expected)}\n"
                f"but computed: {pretty_result(close_result(result))}",
                expr,
            )

    # ==================================================================
    # helpers
    # ==================================================================
    def _open(
        self, env: Env, result: TypeResult
    ) -> Tuple[Env, Tuple[Tuple[str, Type], ...]]:
        """Open a result's existential binders into the environment."""
        for name, ty in result.binders:
            env = self.logic.extend(env, IsType(Var(name), ty))
        return env, result.binders


_ATOMS = (VarE, IntE, BoolE, StrE)


def _cheap(expr: Expr) -> bool:
    """A variable, a literal, or a primitive applied only to those."""
    if isinstance(expr, AppE):
        return isinstance(expr.fn, PrimE) and all(
            isinstance(arg, _ATOMS) for arg in expr.args
        )
    return isinstance(expr, _ATOMS)


def check_program_text(source: str, **kwargs) -> Dict[str, Type]:
    """Parse, expand and type check a whole module from source text."""
    from ..syntax.parser import parse_program

    program = parse_program(source)
    return Checker(**kwargs).check_program(program)
