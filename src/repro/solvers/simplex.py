"""Incremental dual simplex over exact rationals (the fast LA core).

The Simplex-for-DPLL(T) architecture of Dutertre & de Moura ("A Fast
Linear-Arithmetic Solver for DPLL(T)", CAV 2006), specialised to the
conjunction-of-inequalities queries the λRTR theory layer produces:

* every distinct multi-atom linear form ``Σ aᵢxᵢ`` gets one **slack
  variable** ``s`` with the tableau equation ``s = Σ aᵢxᵢ``; the
  tableau is shared by every assertion and goal that mentions the
  form;
* asserting ``Σ aᵢxᵢ + c ≤ 0`` is a **bound update** (``s ≤ -c`` or,
  for single-atom constraints, a bound directly on the atom's
  variable) recorded on a trail, so :meth:`push`/:meth:`pop` retract
  assertions in O(1) per bound without touching the tableau;
* feasibility is restored by **Bland's-rule pivoting** on the basic
  variable with the smallest index that violates a bound — the check
  is *incremental*: after a pop or a new assertion it resumes from the
  current (almost-feasible) assignment instead of re-solving;
* :meth:`entails` refutes the negated goal inside a push/pop bracket
  — the integer negation ``¬(e ≤ 0) ≡ 1 - e ≤ 0`` — so a goal costs a
  couple of bound asserts and the pivots needed to re-establish
  feasibility, not a re-translation of Γ.  A slack row created *for*
  a goal is garbage-collected afterwards, keeping the tableau at the
  size of Γ across arbitrarily long goal streams.

Exactness without :class:`~fractions.Fraction` rows: each tableau row
is stored as integer coefficients with one positive integer
denominator (``den·basic = Σ coeff·nonbasic``), GCD-reduced after
every pivot.  Pivoting is integer-only arithmetic; the assignment ``β``
holds plain ``int`` values while they are integral (almost always, for
the checker's unit-coefficient constraints) and promotes to
``Fraction`` only when a pivot lands on a fractional vertex.

Integer reasoning: every ingested constraint is GCD-normalised
(:meth:`~repro.solvers.linform.Constraint.normalized`), and a bounded
**branch-and-bound** layer splits on atom variables with fractional
values (``x ≤ ⌊v⌋ ∨ x ≥ ⌈v⌉``) to find integer-only contradictions
the rational relaxation misses.  Exhausting the node or pivot budget
answers :data:`~repro.solvers.linform.UNKNOWN` — the solver stays
*sound for refutation* exactly like the Fourier-Motzkin core it
replaces: UNSAT is always correct over the integers, SAT may be
rational-only.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, gcd
from typing import Dict, List, Optional, Set, Tuple

from ..budget import current_budget
from .linform import SAT, UNKNOWN, UNSAT, Constraint
from .reference import fm_satisfiable

__all__ = ["Simplex"]

#: branch-and-bound node budget per top-level check — generous for the
#: checker's almost-always-integral queries, bounded for fuzz noise.
DEFAULT_BB_NODES = 256

#: how many goal-created slack rows to keep for reuse.  Checker goal
#: streams repeat linear *forms* (``i − n``, ``i + 1 − len``) with
#: varying constants, so caching the tableau row skips both the row
#: construction and the pivot that would re-enter it next time; the cap
#: keeps an adversarial stream of distinct forms from growing the
#: tableau without bound (each extra row taxes every later pivot).
GOAL_FORM_CACHE = 24



class Simplex:
    """An incremental simplex context deciding integer-sound queries.

    State is the Dutertre–de Moura triple: a tableau of basic-variable
    rows over nonbasic columns, per-variable bounds, and a rational
    assignment ``β`` that always satisfies the tableau equations and
    keeps every *nonbasic* variable within its bounds.  Counters
    (:attr:`pivots`, :attr:`checks`, :attr:`branches`) are cumulative
    and surface through ``EngineStats.solver_counters``.
    """

    __slots__ = (
        "_atom_vars",
        "_atom_of",
        "_forms",
        "_goal_forms",
        "_rows",
        "_dens",
        "_cols",
        "_lower",
        "_upper",
        "_beta",
        "_next_var",
        "_violated",
        "_trail",
        "_conflict_level",
        "pivots",
        "checks",
        "branches",
    )

    def __init__(self) -> None:
        #: atom key → variable id (creation order; Bland's rule uses ids)
        self._atom_vars: Dict[object, int] = {}
        #: variable id → atom key (slack variables are absent: only
        #: atom variables participate in branch-and-bound)
        self._atom_of: Dict[int, object] = {}
        #: canonical multi-atom form → slack variable id
        self._forms: Dict[Tuple, int] = {}
        #: insertion-ordered LRU of forms created *for goals* (still
        #: unbounded once their query popped) — evicted via
        #: :meth:`_drop_form` when over :data:`GOAL_FORM_CACHE`
        self._goal_forms: Dict[Tuple, None] = {}
        #: basic variable → {nonbasic variable: integer coefficient}
        self._rows: Dict[int, Dict[int, int]] = {}
        #: basic variable → positive integer row denominator:
        #: ``den·basic = Σ coeff·nonbasic``
        self._dens: Dict[int, int] = {}
        #: nonbasic variable → set of basic variables whose row uses it
        self._cols: Dict[int, Set[int]] = {}
        self._lower: Dict[int, int] = {}
        self._upper: Dict[int, int] = {}
        #: variable → value: ``int`` while integral, ``Fraction`` once
        #: fractional (they interoperate; ``int.denominator`` exists)
        self._beta: Dict[int, object] = {}
        #: monotonic id source — never reused, even after a dropped
        #: goal row frees its slack (a recycled id would alias a live
        #: variable)
        self._next_var = 0
        #: basic variables whose β may have drifted out of bounds — the
        #: work-list :meth:`check` drains instead of scanning every row
        #: (β only moves through :meth:`_update`/:meth:`_pivot_and_update`,
        #: which register the touched basics here; pop only loosens
        #: bounds, so it can never create a violation)
        self._violated: Set[int] = set()
        #: bound-change trail, one frame per push level
        self._trail: List[List[Tuple[bool, int, Optional[int]]]] = [[]]
        #: frame index whose assertion contradicted an existing bound
        self._conflict_level: Optional[int] = None
        self.pivots = 0
        self.checks = 0
        self.branches = 0

    # ------------------------------------------------------------------
    # variables and the tableau
    # ------------------------------------------------------------------
    def _new_var(self) -> int:
        var = self._next_var
        self._next_var = var + 1
        self._beta[var] = 0
        return var

    def _atom_var(self, atom: object) -> int:
        var = self._atom_vars.get(atom)
        if var is None:
            var = self._new_var()
            self._atom_vars[atom] = var
            self._atom_of[var] = atom
        return var

    def _slack_var(self, form: Tuple[Tuple[object, int], ...]) -> int:
        """The slack variable for ``Σ aᵢxᵢ``, creating row + β on demand."""
        slack = self._forms.get(form)
        if slack is not None:
            return slack
        # Build the defining row over *nonbasic* variables: any atom
        # that is currently basic is substituted by its own row.  All
        # integer arithmetic: scale by the LCM of the basic atoms' row
        # denominators up front.
        atom_vars = [(self._atom_var(atom), coeff) for atom, coeff in form]
        den = 1
        for var, _ in atom_vars:
            inner_den = self._dens.get(var)
            if inner_den is not None:
                den = den * inner_den // gcd(den, inner_den)
        acc: Dict[int, int] = {}
        value = 0
        for var, coeff in atom_vars:
            value += coeff * self._beta[var]
            inner = self._rows.get(var)
            if inner is None:
                acc[var] = acc.get(var, 0) + coeff * den
            else:
                scale = coeff * (den // self._dens[var])
                for nonbasic, num in inner.items():
                    acc[nonbasic] = acc.get(nonbasic, 0) + scale * num
        row = {var: num for var, num in acc.items() if num}
        slack = self._new_var()
        self._forms[form] = slack
        self._set_row(slack, row, den)
        self._beta[slack] = value
        for var in row:
            self._cols.setdefault(var, set()).add(slack)
        return slack

    def _set_row(self, basic: int, row: Dict[int, int], den: int) -> None:
        """Install a GCD-reduced row (callers guarantee ``den > 0``)."""
        g = den
        for num in row.values():
            g = gcd(g, num)
            if g == 1:
                break
        if g > 1:
            row = {var: num // g for var, num in row.items()}
            den //= g
        self._rows[basic] = row
        self._dens[basic] = den

    def _drop_form(self, form: Tuple) -> None:
        """Garbage-collect a slack created for a since-retracted goal.

        Only legal when the slack carries no bounds (the goal's bound
        was popped).  If the slack was pivoted nonbasic in the
        meantime, one pivot brings it back to basic; the variable that
        left the basis is nudged back inside its bounds to restore the
        nonbasic invariant.
        """
        slack = self._forms.pop(form)
        if slack not in self._rows:
            dependents = self._cols.get(slack)
            if not dependents:
                self._cols.pop(slack, None)
                del self._beta[slack]
                return
            leave = next(iter(dependents))
            self._pivot(leave, slack)
            lower = self._lower.get(leave)
            upper = self._upper.get(leave)
            beta = self._beta[leave]
            if lower is not None and beta < lower:
                self._update(leave, lower)
            elif upper is not None and beta > upper:
                self._update(leave, upper)
        row = self._rows.pop(slack)
        del self._dens[slack]
        for var in row:
            self._cols[var].discard(slack)
        del self._beta[slack]

    # ------------------------------------------------------------------
    # push / pop: bounds-based assertion and retraction
    # ------------------------------------------------------------------
    def push(self) -> None:
        self._trail.append([])

    def pop(self) -> None:
        if len(self._trail) == 1:
            raise IndexError("pop without matching push")
        frame = self._trail.pop()
        for is_upper, var, old in reversed(frame):
            if is_upper:
                if old is None:
                    self._upper.pop(var, None)
                else:
                    self._upper[var] = old
            else:
                if old is None:
                    self._lower.pop(var, None)
                else:
                    self._lower[var] = old
        if (
            self._conflict_level is not None
            and self._conflict_level >= len(self._trail)
        ):
            self._conflict_level = None

    def _update(self, var: int, value: Fraction) -> None:
        """Move nonbasic ``var`` to ``value``, keeping β on the tableau."""
        delta = value - self._beta[var]
        if delta:
            beta = self._beta
            rows = self._rows
            dens = self._dens
            dependents = self._cols.get(var, ())
            for basic in dependents:
                den = dens[basic]
                if den == 1:
                    # int·int stays int — the hot path for the unit
                    # coefficients checker constraints are made of
                    beta[basic] += rows[basic][var] * delta
                else:
                    beta[basic] += Fraction(rows[basic][var], den) * delta
            self._violated.update(dependents)
            beta[var] = value

    def _assert_upper(self, var: int, bound: int) -> bool:
        lower = self._lower.get(var)
        if lower is not None and bound < lower:
            return False
        upper = self._upper.get(var)
        if upper is None or bound < upper:
            self._trail[-1].append((True, var, upper))
            self._upper[var] = bound
            if var in self._rows:
                self._violated.add(var)
            elif self._beta[var] > bound:
                self._update(var, bound)
        return True

    def _assert_lower(self, var: int, bound: int) -> bool:
        upper = self._upper.get(var)
        if upper is not None and bound > upper:
            return False
        lower = self._lower.get(var)
        if lower is None or bound > lower:
            self._trail[-1].append((False, var, lower))
            self._lower[var] = bound
            if var in self._rows:
                self._violated.add(var)
            elif self._beta[var] < bound:
                self._update(var, bound)
        return True

    def assert_constraint(self, con: Constraint) -> bool:
        """Assert a *normalised* ``Σ aᵢxᵢ + c ≤ 0`` as a bound update.

        Returns ``False`` (and records a conflict retracted by the
        matching :meth:`pop`) when the bound contradicts an existing
        one; constant-only constraints are the caller's business.
        """
        if self._conflict_level is not None:
            return False
        ok = self._assert_constraint(con)
        if not ok:
            self._conflict_level = len(self._trail) - 1
        return ok

    def _assert_constraint(self, con: Constraint) -> bool:
        coeffs = con.coeffs
        if not coeffs:
            return con.const <= 0
        if len(coeffs) == 1:
            # GCD normalisation leaves single-atom coefficients at ±1.
            atom, coeff = coeffs[0]
            var = self._atom_var(atom)
            if coeff == 1:
                return self._assert_upper(var, -con.const)
            if coeff == -1:
                return self._assert_lower(var, con.const)
        # Multi-atom: sign-normalise the form so ``f`` and ``-f`` share
        # one slack variable (an upper bound on one is a lower bound on
        # the other).
        if coeffs[0][1] > 0:
            slack = self._slack_var(coeffs)
            return self._assert_upper(slack, -con.const)
        negated = tuple((atom, -coeff) for atom, coeff in coeffs)
        slack = self._slack_var(negated)
        return self._assert_lower(slack, con.const)

    @property
    def in_conflict(self) -> bool:
        return self._conflict_level is not None

    # ------------------------------------------------------------------
    # the feasibility check (Bland's rule)
    # ------------------------------------------------------------------
    def _pivot(self, leave: int, enter: int) -> None:
        """Swap basic ``leave`` with nonbasic ``enter`` (integer algebra)."""
        row = self._rows.pop(leave)
        den = self._dens.pop(leave)
        factor = row.pop(enter)
        sign = 1 if factor > 0 else -1
        for var in row:
            self._cols[var].discard(leave)
        dependents = self._cols.pop(enter, set())
        dependents.discard(leave)
        # |factor|·enter = sign·den·leave − sign·Σ row[k]·k
        new_row: Dict[int, int] = {leave: sign * den}
        for var, num in row.items():
            if num:
                new_row[var] = -sign * num
        self._set_row(enter, new_row, sign * factor)
        new_row = self._rows[enter]
        new_den = self._dens[enter]
        for var in new_row:
            self._cols.setdefault(var, set()).add(enter)
        for basic in dependents:
            brow = self._rows[basic]
            scale = brow.pop(enter)
            # new_den·bden·basic = Σ (new_den·brow[k] + scale·new_row[k])·k
            merged: Dict[int, int] = {
                var: new_den * num for var, num in brow.items()
            }
            for var, num in new_row.items():
                updated = merged.get(var, 0) + scale * num
                if updated:
                    merged[var] = updated
                else:
                    merged.pop(var, None)
            cols = self._cols
            for var in brow:
                if var not in merged:
                    cols[var].discard(basic)
            for var in merged:
                if var not in brow:
                    cols.setdefault(var, set()).add(basic)
            self._set_row(basic, merged, new_den * self._dens[basic])
        self.pivots += 1

    def _pivot_and_update(self, leave: int, enter: int, value: Fraction) -> None:
        num = self._rows[leave][enter]
        den = self._dens[leave]
        diff = value - self._beta[leave]
        if den == 1 and (num == 1 or num == -1):
            theta = diff * num  # 1/±1 == ±1: stays int for int β
        else:
            theta = diff * Fraction(den, num)
        beta = self._beta
        beta[leave] = value
        beta[enter] += theta
        rows = self._rows
        dens = self._dens
        dependents = self._cols.get(enter, ())
        for basic in dependents:
            if basic != leave:
                bden = dens[basic]
                if bden == 1:
                    beta[basic] += rows[basic][enter] * theta
                else:
                    beta[basic] += Fraction(rows[basic][enter], bden) * theta
        self._violated.update(dependents)
        self._violated.add(enter)  # basic after the pivot, β just moved
        self._pivot(leave, enter)

    def check(self, max_pivots: int = 20_000) -> str:
        """Restore β to a bound-respecting assignment, or refute.

        Returns :data:`SAT` (rationally feasible), :data:`UNSAT`
        (a Bland-certified infeasible row) or :data:`UNKNOWN` when the
        pivot budget trips.
        """
        if self._conflict_level is not None:
            return UNSAT
        self.checks += 1
        budget = max_pivots
        beta = self._beta
        lower = self._lower
        upper = self._upper
        rows = self._rows
        violated = self._violated
        # Heuristic pivoting (largest violation / largest coefficient)
        # makes rapid progress but can cycle; after a grace allowance we
        # switch to Bland's rule (min indices), which terminates from
        # any tableau state.
        bland_after = budget - max(64, len(rows) * 4)
        request_budget = current_budget()
        request_tick = None if request_budget is None else request_budget.tick
        while True:
            if request_tick is not None:
                # cooperative cancellation, once per pivot round; callers
                # (``entails``'s push/finally-pop bracket) restore bounds
                # on the way out, so an abort leaves the tableau reusable.
                request_tick()
            bland = budget <= bland_after
            # Drain the work-list: anything back in bounds (or no longer
            # basic — ex-basics are always left inside their bounds) is
            # dropped.
            leave = None
            need_raise = False
            gap = None
            settled = []
            for basic in violated:
                if basic not in rows:
                    settled.append(basic)
                    continue
                value = beta[basic]
                bound = lower.get(basic)
                if bound is not None and value < bound:
                    if bland:
                        if leave is None or basic < leave:
                            leave, need_raise = basic, True
                    elif gap is None or bound - value > gap:
                        leave, need_raise, gap = basic, True, bound - value
                    continue
                bound = upper.get(basic)
                if bound is not None and value > bound:
                    if bland:
                        if leave is None or basic < leave:
                            leave, need_raise = basic, False
                    elif gap is None or value - bound > gap:
                        leave, need_raise, gap = basic, False, value - bound
                else:
                    settled.append(basic)
            violated.difference_update(settled)
            if leave is None:
                return SAT
            if budget <= 0:
                return UNKNOWN
            # Entering variable: an eligible nonbasic of the leave row
            # (den > 0, so the integer numerator carries the coefficient
            # sign) — largest |coefficient| normally, smallest index
            # under Bland.
            enter = None
            best = 0
            for var, num in rows[leave].items():
                if bland:
                    if enter is not None and var > enter:
                        continue
                elif -best < num < best:
                    continue
                if (num > 0) == need_raise:
                    bound = upper.get(var)
                    if bound is None or beta[var] < bound:
                        enter = var
                        best = num if num > 0 else -num
                else:
                    bound = lower.get(var)
                    if bound is None or beta[var] > bound:
                        enter = var
                        best = num if num > 0 else -num
            if enter is None:
                return UNSAT
            target = lower[leave] if need_raise else upper[leave]
            self._pivot_and_update(leave, enter, target)
            budget -= 1

    # ------------------------------------------------------------------
    # integer tightening: bounded branch-and-bound
    # ------------------------------------------------------------------
    def check_integer(
        self, max_pivots: int = 20_000, max_nodes: int = DEFAULT_BB_NODES
    ) -> str:
        """:meth:`check`, then branch on fractional atom values.

        UNSAT means integer-infeasible; SAT means rationally feasible
        with every atom integral *or* the node budget ran out while a
        rational model existed and the Fourier-Motzkin core could not
        refute the asserted bounds either (the same "SAT may be
        rational-only" contract that core documents).

        The search is a depth-first walk with an explicit stack of
        ``[var, split, children tried]`` nodes, the ``x ≤ ⌊v⌋`` child
        first: its depth is bounded by the node budget, not by the
        Python stack.  Each tried child holds one :meth:`push`; every
        one is popped before returning, however the walk ends.
        """
        nodes = max_nodes
        open_nodes: List[List] = []
        pushed = 0
        unknown = False
        exhausted = False
        try:
            feasible = True
            while True:
                verdict = self.check(max_pivots) if feasible else UNSAT
                if verdict == SAT:
                    fractional = None
                    for var in self._atom_of:
                        if self._beta[var].denominator != 1:
                            fractional = var
                            break
                    if fractional is None:
                        return SAT
                    if nodes <= 0:
                        exhausted = True
                        break
                    nodes -= 1
                    self.branches += 1
                    open_nodes.append([fractional, floor(self._beta[fractional]), 0])
                elif verdict == UNKNOWN:
                    unknown = True
                # Descend into the next untried child, backtracking past
                # nodes whose two children are both done.
                while open_nodes:
                    node = open_nodes[-1]
                    var, split, tried = node
                    if tried:
                        self.pop()
                        pushed -= 1
                    if tried == 2:
                        open_nodes.pop()
                        continue
                    node[2] = tried + 1
                    self.push()
                    pushed += 1
                    if tried == 0:
                        feasible = self._assert_upper(var, split)
                    else:
                        feasible = self._assert_lower(var, split + 1)
                    break
                else:
                    return UNKNOWN if unknown else UNSAT
        finally:
            for _ in range(pushed):
                self.pop()
        # Out of nodes with only a rational model: the bounds asserted
        # at entry (now restored) may still be integer-infeasible in a
        # way branching on unbounded atoms never closes, which the
        # Fourier-Motzkin core's GCD tightening can refute.
        if exhausted and fm_satisfiable(self._bound_constraints()) == UNSAT:
            return UNSAT
        return SAT

    def _bound_constraints(self) -> List[Constraint]:
        """The asserted bounds as constraints over atoms."""
        form_of = {slack: form for form, slack in self._forms.items()}
        for var, atom in self._atom_of.items():
            form_of[var] = ((atom, 1),)
        constraints: List[Constraint] = []
        for var, bound in self._upper.items():
            constraints.append(Constraint(form_of[var], -bound))
        for var, bound in self._lower.items():
            negated = tuple((atom, -coeff) for atom, coeff in form_of[var])
            constraints.append(Constraint(negated, bound))
        return constraints

    # ------------------------------------------------------------------
    # entailment by refutation
    # ------------------------------------------------------------------
    def _bounds_entail(self, goal: Constraint) -> bool:
        """Do the current bounds alone already imply ``goal``?

        The bound-propagation shortcut of Dutertre–de Moura §4: with
        the goal read as ``e ≤ t``, an asserted bound on ``e``'s own
        slack, or the interval sum ``Σ aᵢ·bound(xᵢ)``, often discharges
        it without touching the tableau.  Sound and cheap; ``False``
        just means "fall through to the full check".
        """
        coeffs = goal.coeffs
        target = -goal.const
        if len(coeffs) > 1:
            # the goal's own form may carry an asserted bound
            if coeffs[0][1] > 0:
                slack = self._forms.get(coeffs)
                if slack is not None:
                    bound = self._upper.get(slack)
                    if bound is not None and bound <= target:
                        return True
            else:
                flipped = tuple((atom, -coeff) for atom, coeff in coeffs)
                slack = self._forms.get(flipped)
                if slack is not None:
                    bound = self._lower.get(slack)
                    if bound is not None and -bound <= target:
                        return True
        total = 0
        for atom, coeff in coeffs:
            var = self._atom_vars.get(atom)
            if var is None:
                return False  # unconstrained atom: no finite bound
            bound = self._upper.get(var) if coeff > 0 else self._lower.get(var)
            if bound is None:
                return False
            total += coeff * bound
        return total <= target

    def entails(
        self,
        goal: Constraint,
        max_pivots: int = 20_000,
        max_nodes: int = DEFAULT_BB_NODES,
    ) -> bool:
        """Γ ⊨ goal, via Γ ∧ ¬goal being integer-UNSAT."""
        if self._conflict_level is not None:
            return True  # ex falso
        normalized = goal.normalized()
        if normalized.is_trivial():
            return True
        if self._bounds_entail(normalized):
            return True
        negation = goal.negated().normalized()
        if negation.is_contradiction():
            return True  # the goal is a tautology
        goal_form: Optional[Tuple] = None
        if len(negation.coeffs) > 1:
            key = negation.coeffs
            if key[0][1] <= 0:
                key = tuple((atom, -coeff) for atom, coeff in key)
            if key in self._goal_forms:
                # Reuse the cached row; refresh its LRU position.
                del self._goal_forms[key]
                self._goal_forms[key] = None
            elif key not in self._forms:
                goal_form = key  # created for this goal: cache afterwards
        self.push()
        try:
            if negation.is_trivial():
                pass  # ¬goal is vacuous: entailed iff Γ itself is absurd
            elif not self.assert_constraint(negation):
                return True  # ¬goal contradicts an asserted bound
            return self.check_integer(max_pivots, max_nodes) == UNSAT
        finally:
            self.pop()
            if goal_form is not None and goal_form in self._forms:
                self._goal_forms[goal_form] = None
                self._evict_goal_forms()

    def _evict_goal_forms(self) -> None:
        while len(self._goal_forms) > GOAL_FORM_CACHE:
            form = next(iter(self._goal_forms))
            del self._goal_forms[form]
            slack = self._forms.get(form)
            if slack is None:
                continue
            if slack in self._lower or slack in self._upper:
                # Γ has since asserted a bound on this very form — it is
                # no longer goal-only state, so it stays for good.
                continue
            self._drop_form(form)

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Cumulative work counters (flushed into ``EngineStats``)."""
        return {
            "simplex.pivots": self.pivots,
            "simplex.checks": self.checks,
            "simplex.branches": self.branches,
        }
