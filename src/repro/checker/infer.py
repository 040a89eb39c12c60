"""Local type inference (sections 4.3 and 4.4).

Two inference problems arise when scaling λRTR to real programs:

1. **Polymorphic instantiation** (§4.3).  Typed Racket uses local type
   inference (Pierce & Turner); the paper extends the constraint
   generation judgment with the CG-Ref rules so that it recurses
   through refinement types.  :func:`instantiate_poly` implements that
   constraint generation: lower bounds are gathered for each unknown
   type variable by matching the actual argument types (with
   refinements stripped, CG-RefLower) against the declared domains
   (recursing under refinements, CG-Ref), then each variable is solved
   as the union of its lower bounds.

2. **Loop-lambda domains** (§4.4).  Post-expansion ``for`` loops bind
   un-annotatable λ parameters.  :func:`candidate_signatures`
   reproduces the paper's heuristic: parameters that flow (directly or
   indirectly) into a vector-index position are tried at ``Nat``
   instead of ``Int``; if the heuristic signature fails, plain ``Int``
   is retried.  (The paper notes — and our benches reproduce — that
   this fails for reverse iteration.)

   ``Checker._infer_loop_signature`` keeps the first candidate that
   checks.  Every candidate but the last is a *probe*: its failure is
   thrown away, so it is checked refutation-first — an `if` whose
   else-branch is cheap (the loop's exit: ``acc``, ``res``,
   ``(void)``) checks that branch before the recursive one, and a
   wrong range fails before the index proofs are paid for.  The
   winner is the same in either order.  The last candidate is checked
   in program order, so the "last attempt failed with" error the user
   sees is unchanged.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..tr.parse import NAT
from ..tr.types import (
    BOOL,
    BOT,
    INT,
    TOP,
    VOID,
    Fun,
    Pair,
    Poly,
    Refine,
    TVar,
    Type,
    Union,
    Vec,
    make_union,
)
from ..tr.subst import type_subst_tvars
from ..syntax.ast import (
    AnnE,
    AppE,
    Expr,
    FstE,
    IfE,
    LamE,
    LetE,
    LetRecE,
    PairE,
    PrimE,
    SetE,
    SndE,
    StructRefE,
    VarE,
    VecE,
)

__all__ = ["instantiate_poly", "candidate_signatures", "index_flow_vars"]

#: Primitives whose second argument is an index into a sized value.
_INDEX_PRIMS = {
    "vec-ref",
    "vec-set!",
    "safe-vec-ref",
    "safe-vec-set!",
    "unsafe-vec-ref",
    "unsafe-vec-set!",
    "string-ref",
    "safe-string-ref",
}


# ----------------------------------------------------------------------
# polymorphic instantiation (CG rules)
# ----------------------------------------------------------------------
def _strip_refinements(ty: Type) -> Type:
    """CG-RefLower: ``{x:τ|ψ} <: σ`` generates the constraints of ``τ <: σ``."""
    while isinstance(ty, Refine):
        ty = ty.base
    return ty


def _generate(formal: Type, actual: Type, unknowns: FrozenSet[str],
              bounds: Dict[str, List[Type]]) -> None:
    """Collect lower bounds for ``unknowns`` from ``actual <: formal``."""
    if isinstance(formal, Refine):
        # CG-Ref / CG-RefUpper: recurse into the refined type.
        _generate(formal.base, actual, unknowns, bounds)
        return
    actual = _strip_refinements(actual)
    if isinstance(formal, TVar) and formal.name in unknowns:
        bounds[formal.name].append(actual)
        return
    if isinstance(actual, Union) and not isinstance(formal, Union):
        # e.g. a conditional join of refined vectors against (Vecof A):
        # every member contributes its bounds.
        for member in actual.members:
            _generate(formal, member, unknowns, bounds)
        return
    if isinstance(formal, Vec) and isinstance(actual, Vec):
        _generate(formal.elem, actual.elem, unknowns, bounds)
        return
    if isinstance(formal, Pair) and isinstance(actual, Pair):
        _generate(formal.fst, actual.fst, unknowns, bounds)
        _generate(formal.snd, actual.snd, unknowns, bounds)
        return
    if isinstance(formal, Union) and isinstance(actual, Union):
        return  # no structural guidance
    if isinstance(formal, Fun) and isinstance(actual, Fun):
        if formal.arity == actual.arity:
            for (_, f_dom), (_, a_dom) in zip(formal.args, actual.args):
                _generate(a_dom, f_dom, unknowns, bounds)  # contravariant
            _generate(formal.result.type, actual.result.type, unknowns, bounds)


def instantiate_poly(poly: Poly, arg_types: Sequence[Type]) -> Optional[Fun]:
    """Solve a polymorphic application's type variables (§4.3).

    Returns the instantiated monomorphic function type, or ``None`` if
    the body is not a function or arities mismatch.  Unconstrained
    variables solve to ⊥ (the standard local-type-inference choice for
    a variable appearing only covariantly).
    """
    body = poly.body
    if not isinstance(body, Fun) or body.arity != len(arg_types):
        return None
    unknowns = frozenset(poly.tvars)
    bounds: Dict[str, List[Type]] = {name: [] for name in poly.tvars}
    for (_, formal), actual in zip(body.args, arg_types):
        _generate(formal, actual, unknowns, bounds)
    solution: Dict[str, Type] = {}
    for name in poly.tvars:
        lower = bounds[name]
        solution[name] = make_union(lower) if lower else BOT
    instantiated = type_subst_tvars(body, solution)
    assert isinstance(instantiated, Fun)
    return instantiated


# ----------------------------------------------------------------------
# the §4.4 Nat heuristic for loop lambdas
# ----------------------------------------------------------------------
def _free_vars(expr: Expr, acc: Set[str]) -> None:
    if isinstance(expr, VarE):
        acc.add(expr.name)
    elif isinstance(expr, LamE):
        _free_vars(expr.body, acc)
    elif isinstance(expr, AppE):
        _free_vars(expr.fn, acc)
        for arg in expr.args:
            _free_vars(arg, acc)
    elif isinstance(expr, IfE):
        _free_vars(expr.test, acc)
        _free_vars(expr.then, acc)
        _free_vars(expr.els, acc)
    elif isinstance(expr, LetE):
        _free_vars(expr.rhs, acc)
        _free_vars(expr.body, acc)
    elif isinstance(expr, LetRecE):
        for _, _, lam in expr.bindings:
            _free_vars(lam, acc)
        _free_vars(expr.body, acc)
    elif isinstance(expr, PairE):
        _free_vars(expr.fst, acc)
        _free_vars(expr.snd, acc)
    elif isinstance(expr, (FstE, SndE)):
        _free_vars(expr.pair, acc)
    elif isinstance(expr, VecE):
        for elem in expr.elems:
            _free_vars(elem, acc)
    elif isinstance(expr, (AnnE, StructRefE)):
        _free_vars(expr.expr, acc)
    elif isinstance(expr, SetE):
        _free_vars(expr.rhs, acc)


def _index_positions(expr: Expr, direct: Set[str],
                     let_rhs: Dict[str, Set[str]]) -> None:
    """Record vars in index positions and let-binding dataflow edges."""
    if isinstance(expr, AppE):
        if (
            isinstance(expr.fn, PrimE)
            and expr.fn.name in _INDEX_PRIMS
            and len(expr.args) >= 2
        ):
            vars_in_index: Set[str] = set()
            _free_vars(expr.args[1], vars_in_index)
            direct.update(vars_in_index)
        _index_positions(expr.fn, direct, let_rhs)
        for arg in expr.args:
            _index_positions(arg, direct, let_rhs)
    elif isinstance(expr, LamE):
        _index_positions(expr.body, direct, let_rhs)
    elif isinstance(expr, IfE):
        _index_positions(expr.test, direct, let_rhs)
        _index_positions(expr.then, direct, let_rhs)
        _index_positions(expr.els, direct, let_rhs)
    elif isinstance(expr, LetE):
        rhs_vars: Set[str] = set()
        _free_vars(expr.rhs, rhs_vars)
        let_rhs.setdefault(expr.name, set()).update(rhs_vars)
        _index_positions(expr.rhs, direct, let_rhs)
        _index_positions(expr.body, direct, let_rhs)
    elif isinstance(expr, LetRecE):
        for _, _, lam in expr.bindings:
            _index_positions(lam, direct, let_rhs)
        _index_positions(expr.body, direct, let_rhs)
    elif isinstance(expr, PairE):
        _index_positions(expr.fst, direct, let_rhs)
        _index_positions(expr.snd, direct, let_rhs)
    elif isinstance(expr, (FstE, SndE)):
        _index_positions(expr.pair, direct, let_rhs)
    elif isinstance(expr, VecE):
        for elem in expr.elems:
            _index_positions(elem, direct, let_rhs)
    elif isinstance(expr, (AnnE, StructRefE)):
        _index_positions(expr.expr, direct, let_rhs)
    elif isinstance(expr, SetE):
        _index_positions(expr.rhs, direct, let_rhs)


def index_flow_vars(body: Expr) -> FrozenSet[str]:
    """Variables that flow, directly or indirectly, into an index slot.

    The indirect case covers the expansion's ``(define i pos)``: ``i``
    is used as an index and is let-bound to ``pos``, so ``pos`` flows
    too.  Computed as a fixpoint over let-binding edges.
    """
    direct: Set[str] = set()
    let_rhs: Dict[str, Set[str]] = {}
    _index_positions(body, direct, let_rhs)
    flowing = set(direct)
    changed = True
    while changed:
        changed = False
        for name, rhs_vars in let_rhs.items():
            if name in flowing and not rhs_vars <= flowing:
                flowing |= rhs_vars
                changed = True
    return frozenset(flowing)


def candidate_signatures(
    lam: LamE, nat_heuristic: bool = True
) -> Iterator[Tuple[Tuple[Type, ...], Type]]:
    """Candidate (domains, range) signatures for an unannotated loop λ.

    Explicit parameter annotations are always respected.  For the rest,
    the first candidate applies the Nat heuristic to index-flowing
    parameters; later candidates fall back to ``Int`` everywhere, and a
    few alternative ranges cover non-numeric accumulators.  With
    ``nat_heuristic`` off (the §4.4 ablation) only the ``Int``
    fallbacks remain; a ``Nat`` the programmer wrote stays.
    """
    flowing = index_flow_vars(lam.body) if nat_heuristic else frozenset()

    def domains(use_heuristic: bool) -> Tuple[Type, ...]:
        out: List[Type] = []
        for name, ann in lam.params:
            if ann is not None:
                out.append(ann)
            elif use_heuristic and name in flowing:
                out.append(NAT)
            else:
                out.append(INT)
        return tuple(out)

    heuristic = domains(True)
    plain = domains(False)
    # Nat is tried before Int: a more specific range helps enclosing
    # obligations (e.g. a Nat-returning definition), and loops whose
    # accumulator is a plain Int fail it quickly and fall through.
    ranges = (NAT, INT, BOOL, VOID, TOP)
    seen: Set[Tuple[Tuple[Type, ...], Type]] = set()
    for rng in ranges:
        for doms in (heuristic, plain):
            key = (doms, rng)
            if key not in seen:
                seen.add(key)
                yield key
