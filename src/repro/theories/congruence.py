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
from typing import Dict, Optional, Sequence, Tuple

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
    # x = r1 + m1·k with m1·k ≡ r2 - r1 (mod m2); dividing through by g
    # leaves m1/g invertible modulo m2/g.
    n = m2 // g
    k = (r2 - r1) // g * pow(m1 // g, -1, n) % n
    return lcm, (r1 + m1 * k) % lcm


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
    """Incremental residue table.

    Assertions CRT-merge into an atom → (modulus, residue) map.  An
    inconsistent merge latches the context (ex falso: everything is
    then entailed).
    """

    __slots__ = ("theory", "_known", "_inconsistent")

    def __init__(self, theory: CongruenceTheory) -> None:
        self.theory = theory
        self._known: Dict[Obj, Tuple[int, int]] = {}
        self._inconsistent = False

    def assert_prop(self, prop: Prop) -> None:
        if not isinstance(prop, Congruence) or self._inconsistent:
            return
        entry = (prop.modulus, prop.residue % prop.modulus)
        previous = self._known.get(prop.obj)
        merged = entry if previous is None else merge_congruences(previous, entry)
        if merged is None:
            self._inconsistent = True
        else:
            self._known[prop.obj] = merged

    def entails(self, goal: TheoryProp) -> bool:
        if not isinstance(goal, Congruence):
            return False
        if self._inconsistent:
            return True
        residue = self.theory._residue_of(goal.obj, goal.modulus, self._known)
        if residue is None:
            return False
        return residue == goal.residue % goal.modulus
