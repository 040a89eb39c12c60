"""The theory of linear integer arithmetic (section 2.1).

Goals and assumptions are :class:`~repro.tr.props.LeqZero` atoms over
canonical linear expressions; non-linear atoms inside the expressions
(field references such as ``(len v)``, bitvector terms, variables) are
treated as opaque integer-valued unknowns.  Entailment is discharged by
:mod:`repro.solvers.linear`, whose ``solver_backend`` knob selects the
incremental dual simplex (``fast``) or the Fourier-Motzkin eliminator
mirroring the lightweight solver the paper describes (``legacy``).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..solvers.backend import resolve_backend
from ..solvers.linear import (
    UNSAT,
    Constraint,
    IncrementalConstraintSet,
)
from ..tr.intern import register_clear_hook
from ..tr.objects import LinExpr, Obj
from ..tr.props import LeqZero, Prop, TheoryProp
from .base import Theory, TheoryContext

__all__ = ["LinearArithmeticTheory", "LinArithContext", "constraint_of_leqzero"]


#: translation memo keyed by the atom's intern id (ids are never
#: reused, and the table is dropped with the intern tables)
_CONSTRAINT_MEMO: Dict[int, Constraint] = {}

register_clear_hook(_CONSTRAINT_MEMO.clear)


def constraint_of_leqzero(atom: LeqZero) -> Constraint:
    """Translate ``e ≤ 0`` into the solver's constraint representation."""
    con = _CONSTRAINT_MEMO.get(atom._iid)
    if con is None:
        coeffs: Dict[Obj, int] = {}
        for obj, coeff in atom.expr.terms:
            coeffs[obj] = coeffs.get(obj, 0) + coeff
        con = Constraint.make(coeffs, atom.expr.const)
        if len(_CONSTRAINT_MEMO) >= (1 << 17):
            _CONSTRAINT_MEMO.clear()
        _CONSTRAINT_MEMO[atom._iid] = con
    return con


class LinearArithmeticTheory(Theory):
    """Solver-backed linear integer arithmetic.

    The deciding core is picked by the ``solver_backend`` knob
    (:mod:`repro.solvers.backend`): incremental dual simplex under
    ``fast``, Fourier-Motzkin elimination under ``legacy``.  ``backend``
    may pin a specific core for this theory instance (the differential
    fuzz oracle runs one engine per backend); ``None`` follows the
    process default at query time.
    """

    name = "linear-arithmetic"

    def __init__(
        self, max_constraints: int = 6000, backend: Optional[str] = None
    ):
        self.max_constraints = max_constraints
        self.solver_backend = backend

    def config_key(self) -> str:
        # the work bound and the solver core decide UNKNOWN-vs-UNSAT,
        # hence verdicts — the two backends must never share persistent
        # cache entries.
        backend = resolve_backend(self.solver_backend)
        return (
            f"{self.name}(max_constraints={self.max_constraints},"
            f"backend={backend})"
        )

    def accepts(self, goal: TheoryProp) -> bool:
        return isinstance(goal, LeqZero)

    def entails(self, assumptions: Sequence[Prop], goal: TheoryProp) -> bool:
        if not isinstance(goal, LeqZero):
            return False
        cset = IncrementalConstraintSet(backend=self.solver_backend)
        for prop in assumptions:
            if isinstance(prop, LeqZero):
                cset.add(constraint_of_leqzero(prop))
        return cset.entails(constraint_of_leqzero(goal), self.max_constraints)

    def context(self) -> "LinArithContext":
        return LinArithContext(self)


class LinArithContext(TheoryContext):
    """Incremental linear-arithmetic context.

    Each asserted atom is translated to a solver constraint exactly
    once and kept in an :class:`IncrementalConstraintSet`; goals are
    decided against the accumulated set, so a stable Γ pays its
    translation once across all the goals it is consulted for.
    """

    __slots__ = ("theory", "_set")

    def __init__(self, theory: LinearArithmeticTheory) -> None:
        self.theory = theory
        self._set = IncrementalConstraintSet(backend=theory.solver_backend)

    def bind_counters(self, shared: Optional[Dict[str, int]]) -> None:
        self._set.bind_counters(shared)

    def assert_prop(self, prop: Prop) -> None:
        if isinstance(prop, LeqZero):
            self._set.add(constraint_of_leqzero(prop))

    def entails(self, goal: TheoryProp) -> bool:
        if not isinstance(goal, LeqZero):
            return False
        return self._set.entails(
            constraint_of_leqzero(goal), self.theory.max_constraints
        )

    def is_unsat(self) -> bool:
        return self._set.satisfiable(self.theory.max_constraints) == UNSAT
