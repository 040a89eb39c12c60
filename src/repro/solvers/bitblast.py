"""Bit-blasting of fixed-width bitvector terms to CNF.

The bitvector theory (section 2.2 of the paper) is decided by lowering
every term to a vector of propositional literals (LSB first) with
Tseitin-encoded gates, then refuting with the SAT core the
``solver_backend`` choice selects in :mod:`repro.solvers.sat` (CDCL
under ``fast``, DPLL under ``legacy``).

Every gate folds constants before it encodes anything: a constant
input, a repeated input or an input beside its own complement decides
the output from literals that already exist, and no variable or clause
is added.  So a constant multiplier costs one adder per set bit, and
adding or comparing against a constant shrinks the same way.  There is
no structural hashing: a gate built twice is encoded twice (the
bitvector context caches encodings per term, one level up).

Every gate that is not folded defines a fresh variable by both
directions of its Tseitin definition, so an encoding's clauses
constrain nothing but its own fresh variables.  That is why the
bitvector context can keep a goal's encoding after the goal is decided:
the goal itself is asked as an assumption, never as a clause.

The :class:`BitBlaster` hands out fresh variables, caches variable
encodings, and offers the operations the AES ``xtime`` example and the
enriched primitive environment need: bitwise logic, addition,
multiplication, constant shifts, and unsigned comparisons.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from .sat import CNF, solve

__all__ = ["BitBlaster"]

Bits = Tuple[int, ...]


class BitBlaster:
    """Accumulates CNF clauses while encoding bitvector terms."""

    def __init__(self) -> None:
        self.clauses: CNF = []
        self._next_var = 1
        self._true_lit = self.fresh()
        self.clauses.append([self._true_lit])
        self._var_bits: Dict[Hashable, Bits] = {}

    # ------------------------------------------------------------------
    # literals
    # ------------------------------------------------------------------
    def fresh(self) -> int:
        var = self._next_var
        self._next_var += 1
        return var

    @property
    def true_lit(self) -> int:
        return self._true_lit

    @property
    def false_lit(self) -> int:
        return -self._true_lit

    def constant(self, value: int, width: int) -> Bits:
        """Encode the unsigned constant ``value`` at ``width`` bits."""
        return tuple(
            self.true_lit if (value >> i) & 1 else self.false_lit for i in range(width)
        )

    def variable(self, key: Hashable, width: int) -> Bits:
        """The (cached) bit-vector of fresh literals naming ``key``."""
        bits = self._var_bits.get(key)
        if bits is None:
            bits = tuple(self.fresh() for _ in range(width))
            self._var_bits[key] = bits
        if len(bits) != width:
            raise ValueError(f"width mismatch for {key!r}: {len(bits)} vs {width}")
        return bits

    # ------------------------------------------------------------------
    # gates (Tseitin encodings, constant-folded)
    # ------------------------------------------------------------------
    # A folded gate returns a literal that already exists; any other
    # gate defines a fresh output by both directions of its definition.

    def gate_and(self, a: int, b: int) -> int:
        true = self._true_lit
        if a == -true or b == -true or a == -b:
            return -true
        if a == true or a == b:
            return b
        if b == true:
            return a
        c = self.fresh()
        self.clauses += [[-c, a], [-c, b], [c, -a, -b]]
        return c

    def gate_or(self, a: int, b: int) -> int:
        true = self._true_lit
        if a == true or b == true or a == -b:
            return true
        if a == -true or a == b:
            return b
        if b == -true:
            return a
        c = self.fresh()
        self.clauses += [[c, -a], [c, -b], [-c, a, b]]
        return c

    def gate_xor(self, a: int, b: int) -> int:
        true = self._true_lit
        if a == -true:
            return b
        if b == -true:
            return a
        if a == true:
            return -b
        if b == true:
            return -a
        if a == b:
            return -true
        if a == -b:
            return true
        c = self.fresh()
        self.clauses += [[-c, a, b], [-c, -a, -b], [c, -a, b], [c, a, -b]]
        return c

    def gate_iff(self, a: int, b: int) -> int:
        return -self.gate_xor(a, b)

    def gate_majority(self, a: int, b: int, c: int) -> int:
        true = self._true_lit
        for x, y, z in ((a, b, c), (b, a, c), (c, a, b)):
            if x == -true:
                return self.gate_and(y, z)
            if x == true:
                return self.gate_or(y, z)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            if x == y:
                return x
            if x == -y:
                return z
        out = self.fresh()
        self.clauses += [
            [-out, a, b],
            [-out, a, c],
            [-out, b, c],
            [out, -a, -b],
            [out, -a, -c],
            [out, -b, -c],
        ]
        return out

    # ------------------------------------------------------------------
    # word-level operations
    # ------------------------------------------------------------------
    def bv_not(self, a: Bits) -> Bits:
        return tuple(-bit for bit in a)

    def bv_and(self, a: Bits, b: Bits) -> Bits:
        return tuple(self.gate_and(x, y) for x, y in zip(a, b))

    def bv_or(self, a: Bits, b: Bits) -> Bits:
        return tuple(self.gate_or(x, y) for x, y in zip(a, b))

    def bv_xor(self, a: Bits, b: Bits) -> Bits:
        return tuple(self.gate_xor(x, y) for x, y in zip(a, b))

    def bv_add(self, a: Bits, b: Bits) -> Bits:
        """Ripple-carry addition, truncating the final carry (mod 2^w)."""
        carry = self.false_lit
        out: List[int] = []
        for x, y in zip(a, b):
            s = self.gate_xor(self.gate_xor(x, y), carry)
            carry = self.gate_majority(x, y, carry)
            out.append(s)
        return tuple(out)

    def bv_shl(self, a: Bits, amount: int) -> Bits:
        width = len(a)
        return tuple(
            self.false_lit if i < amount else a[i - amount] for i in range(width)
        )

    def bv_lshr(self, a: Bits, amount: int) -> Bits:
        width = len(a)
        return tuple(
            a[i + amount] if i + amount < width else self.false_lit
            for i in range(width)
        )

    def bv_mul(self, a: Bits, b: Bits) -> Bits:
        """Shift-and-add multiplication (mod 2^w).

        A multiplier bit known to be 0 adds no partial product, so a
        constant multiplier costs one adder per set bit.
        """
        width = len(a)
        acc = self.constant(0, width)
        for i in range(width):
            if b[i] == self.false_lit:
                continue
            shifted = self.bv_shl(a, i)
            gated = tuple(self.gate_and(bit, b[i]) for bit in shifted)
            acc = self.bv_add(acc, gated)
        return acc

    # ------------------------------------------------------------------
    # predicates (return a single literal)
    # ------------------------------------------------------------------
    def bv_eq(self, a: Bits, b: Bits) -> int:
        acc = self.true_lit
        for x, y in zip(a, b):
            acc = self.gate_and(acc, self.gate_iff(x, y))
        return acc

    def bv_ult(self, a: Bits, b: Bits) -> int:
        """Unsigned ``a < b``: MSB-first lexicographic comparison."""
        lt = self.false_lit
        for x, y in zip(a, b):  # LSB to MSB, so fold keeps MSB dominant
            bit_lt = self.gate_and(-x, y)
            bit_eq = self.gate_iff(x, y)
            lt = self.gate_or(bit_lt, self.gate_and(bit_eq, lt))
        return lt

    def bv_ule(self, a: Bits, b: Bits) -> int:
        return -self.bv_ult(b, a)

    # ------------------------------------------------------------------
    # assertions and solving
    # ------------------------------------------------------------------
    def assert_lit(self, lit: int) -> None:
        self.clauses.append([lit])

    def check_sat(self, backend: Optional[str] = None) -> bool:
        """Is the accumulated formula satisfiable?

        A solver resource exhaustion is reported as *satisfiable*
        (cannot refute), keeping the enclosing proof search sound.
        ``backend`` selects the SAT core (``None`` = process default).
        """
        try:
            return solve(self.clauses, backend=backend).sat
        except ResourceWarning:
            return True
