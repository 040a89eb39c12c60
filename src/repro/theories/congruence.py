"""The theory of integer congruences (parity and beyond).

A third theory added by the section 3.4 recipe, realising the paper's
conclusion that "other programs, ranging from fixed-width arithmetic
to theories of regular expressions, can similarly benefit":

1. the proposition grammar gains :class:`~repro.tr.props.Congruence`
   atoms ``o ≡ r (mod m)``;
2. ``even?``/``odd?`` are enriched to emit them as then/else
   propositions (see :mod:`repro.checker.prims`);
3. this module provides the solver consulted by L-Theory.

The decision procedure: assumptions pin residues for atoms (merged by
CRT when several congruences speak about one atom; an inconsistent
merge refutes everything).  A goal about a *linear combination* is
evaluated residue-wise — ``Σ aᵢxᵢ + c (mod m)`` is determined whenever
each ``xᵢ`` has a known residue modulo a multiple of ``m`` — so facts
like "2x is even" come out for free from the linear structure.
"""

from __future__ import annotations

from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from ..tr.objects import LinExpr, Obj
from ..tr.props import Congruence, Prop, TheoryProp
from .base import Theory, TheoryContext

__all__ = ["CongruenceTheory", "CongruenceContext", "merge_congruences"]


def merge_congruences(
    first: Tuple[int, int], second: Tuple[int, int]
) -> Optional[Tuple[int, int]]:
    """CRT merge of ``x ≡ r₁ (mod m₁)`` and ``x ≡ r₂ (mod m₂)``.

    Returns the combined ``(modulus, residue)`` or ``None`` when the
    two are inconsistent (``r₁ ≢ r₂ (mod gcd(m₁, m₂))``).
    """
    m1, r1 = first
    m2, r2 = second
    g = gcd(m1, m2)
    if (r1 - r2) % g != 0:
        return None
    lcm = m1 // g * m2
    # Solve x ≡ r1 (mod m1), x ≡ r2 (mod m2) by stepping r1 in m1-strides.
    step = m1
    x = r1
    while x % m2 != r2 % m2:
        x += step
    return lcm, x % lcm


class CongruenceTheory(Theory):
    """Residue reasoning over congruence atoms and linear structure."""

    name = "congruence"

    def accepts(self, goal: TheoryProp) -> bool:
        return isinstance(goal, Congruence)

    def entails(self, assumptions: Sequence[Prop], goal: TheoryProp) -> bool:
        if not isinstance(goal, Congruence):
            return False
        known = self._residues(assumptions)
        if known is None:
            return True  # inconsistent assumptions entail anything
        residue = self._residue_of(goal.obj, goal.modulus, known)
        if residue is None:
            return False
        return residue == goal.residue % goal.modulus

    def context(self) -> "CongruenceContext":
        return CongruenceContext(self)

    # ------------------------------------------------------------------
    def _residues(
        self, assumptions: Sequence[Prop]
    ) -> Optional[Dict[Obj, Tuple[int, int]]]:
        """Atom → (modulus, residue); ``None`` marks inconsistency."""
        known: Dict[Obj, Tuple[int, int]] = {}
        for prop in assumptions:
            if not isinstance(prop, Congruence):
                continue
            entry = (prop.modulus, prop.residue % prop.modulus)
            if prop.obj in known:
                merged = merge_congruences(known[prop.obj], entry)
                if merged is None:
                    return None
                known[prop.obj] = merged
            else:
                known[prop.obj] = entry
        return known

    def _residue_of(
        self, obj: Obj, modulus: int, known: Dict[Obj, Tuple[int, int]]
    ) -> Optional[int]:
        """The residue of ``obj`` modulo ``modulus``, if determined."""
        direct = known.get(obj)
        if direct is not None and direct[0] % modulus == 0:
            return direct[1] % modulus
        if isinstance(obj, LinExpr):
            total = obj.const
            for atom, coeff in obj.terms:
                # A coefficient divisible by the modulus contributes 0
                # regardless of the atom's (possibly unknown) residue.
                if coeff % modulus == 0:
                    continue
                inner = self._residue_of(atom, modulus, known)
                if inner is None:
                    return None
                total += coeff * inner
            return total % modulus
        return None


class CongruenceContext(TheoryContext):
    """Incremental residue table with a push/pop undo trail.

    Assertions CRT-merge into a persistent atom → (modulus, residue)
    map; each frame records the entries it overwrote so :meth:`pop`
    restores them exactly.  An inconsistent merge latches the frame's
    inconsistency flag (ex falso: everything is then entailed) until
    the offending frame is popped.
    """

    __slots__ = ("theory", "_known", "_trail", "_inconsistent_level")

    def __init__(self, theory: CongruenceTheory) -> None:
        self.theory = theory
        self._known: Dict[Obj, Tuple[int, int]] = {}
        #: one undo frame per push level: (obj, previous entry or None)
        self._trail: List[List[Tuple[Obj, Optional[Tuple[int, int]]]]] = [[]]
        self._inconsistent_level: Optional[int] = None

    def push(self) -> None:
        self._trail.append([])

    def pop(self) -> None:
        if len(self._trail) == 1:
            raise IndexError("pop without matching push")
        for obj, previous in reversed(self._trail.pop()):
            if previous is None:
                del self._known[obj]
            else:
                self._known[obj] = previous
        if (
            self._inconsistent_level is not None
            and self._inconsistent_level >= len(self._trail)
        ):
            self._inconsistent_level = None

    def assert_prop(self, prop: Prop) -> None:
        if not isinstance(prop, Congruence) or self._inconsistent_level is not None:
            return
        entry = (prop.modulus, prop.residue % prop.modulus)
        previous = self._known.get(prop.obj)
        if previous is not None:
            merged = merge_congruences(previous, entry)
            if merged is None:
                self._inconsistent_level = len(self._trail) - 1
                return
            if merged == previous:
                return
            entry = merged
        self._trail[-1].append((prop.obj, previous))
        self._known[prop.obj] = entry

    def entails(self, goal: TheoryProp) -> bool:
        if not isinstance(goal, Congruence):
            return False
        if self._inconsistent_level is not None:
            return True
        residue = self.theory._residue_of(goal.obj, goal.modulus, self._known)
        if residue is None:
            return False
        return residue == goal.residue % goal.modulus

    def entails_batch(self, goals: Sequence[TheoryProp]) -> List[bool]:
        """Every goal reads the same residue table — one pass, no setup."""
        if self._inconsistent_level is not None:
            return [isinstance(goal, Congruence) for goal in goals]
        residue_of = self.theory._residue_of
        known = self._known
        results: List[bool] = []
        for goal in goals:
            if not isinstance(goal, Congruence):
                results.append(False)
                continue
            residue = residue_of(goal.obj, goal.modulus, known)
            results.append(
                residue is not None and residue == goal.residue % goal.modulus
            )
        return results
