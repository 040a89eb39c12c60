"""The theory of fixed-width bitvectors (section 2.2).

Where the paper leverages Z3's bitvector reasoning, this reproduction
bit-blasts to CNF (:mod:`repro.solvers.bitblast`, whose gates fold
constant and repeated inputs away) and refutes with the SAT core the
``solver_backend`` choice selects (CDCL under ``fast``, DPLL under
``legacy``) — the same refutation discipline an SMT backend uses.

Semantics bridged here: at the program level bitvector operations act
on ordinary non-negative integers (``AND``/``XOR``/``*`` on bytes in
the AES example), so the solver works at an internal width wide enough
that no encoded term can wrap.  Before encoding, every atom is checked
to be *grounded*: a conservative interval analysis over the available
range assumptions must bound it below ``2^width``.  If any term cannot
be bounded the query is declined (sound: "not proved").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..solvers.backend import resolve_backend
from ..solvers.bitblast import BitBlaster, Bits
from ..solvers.sat import IncrementalSatSolver
from ..tr.objects import BVExpr, LinExpr, Obj
from ..tr.props import BVProp, LeqZero, Prop, TheoryProp
from .base import Theory, TheoryContext

__all__ = ["BitvectorTheory", "BitvectorContext"]

#: Internal blasting width: wide enough for byte arithmetic (sums and
#: constant products of bytes stay far below 2^24).
DEFAULT_WIDTH = 24


def _mentions_bv(obj: Obj) -> bool:
    if isinstance(obj, BVExpr):
        return True
    if isinstance(obj, LinExpr):
        return any(_mentions_bv(atom) for atom, _ in obj.terms)
    return False


class _Bounds:
    """Upper bounds (exclusive of negativity) gathered from assumptions.

    ``lo[o] = 0`` records ``0 ≤ o``; ``hi[o] = c`` records ``o ≤ c``.
    Only single-atom, unit-coefficient facts feed the table — exactly
    the shape refinement types such as ``Byte`` produce.
    """

    def __init__(self) -> None:
        self.nonneg: set = set()
        self.hi: Dict[Obj, int] = {}

    def absorb(self, atom: LeqZero) -> None:
        expr = atom.expr
        if len(expr.terms) != 1:
            return
        obj, coeff = expr.terms[0]
        if coeff == 1:
            # o + c ≤ 0  ⟹  o ≤ -c
            bound = -expr.const
            if obj not in self.hi or bound < self.hi[obj]:
                self.hi[obj] = bound
        elif coeff == -1:
            # -o + c ≤ 0  ⟹  o ≥ c
            if expr.const >= 0:
                self.nonneg.add(obj)

    def max_value(self, obj: Union[Obj, int]) -> Optional[int]:
        """A conservative upper bound on the integer value of ``obj``.

        ``None`` means "cannot bound" — the query must be declined.
        Requires non-negativity for opaque atoms so that unsigned
        encoding is faithful.
        """
        if isinstance(obj, int):
            return obj if obj >= 0 else None
        if isinstance(obj, LinExpr):
            total = obj.const
            if obj.const < 0:
                return None
            for atom, coeff in obj.terms:
                if coeff < 0:
                    return None
                inner = self.max_value(atom)
                if inner is None:
                    return None
                total += coeff * inner
            return total
        if isinstance(obj, BVExpr):
            args = [self.max_value(a) for a in obj.args]
            if any(a is None for a in args):
                return None
            if obj.op in ("and",):
                return min(a for a in args)  # AND cannot exceed either side
            if obj.op in ("or", "xor"):
                peak = max(args)
                # or/xor of values < 2^k stay < 2^k
                bits = peak.bit_length()
                return (1 << bits) - 1
            if obj.op == "not":
                return (1 << obj.width) - 1
            if obj.op == "add":
                return sum(args)
            if obj.op == "mul":
                out = 1
                for a in args:
                    out *= a
                return out
            if obj.op == "shl":
                base, amount = args
                return base << amount
            if obj.op == "lshr":
                return args[0]
            return None
        # Opaque atom (variable, field reference): needs recorded bounds.
        if obj in self.nonneg and obj in self.hi:
            return self.hi[obj]
        return None


class BitvectorTheory(Theory):
    """Bit-blasting + SAT decision procedure for bitvector atoms.

    The propositional core is picked by the ``solver_backend`` knob:
    CDCL under ``fast``, recursive DPLL under ``legacy``.  ``backend``
    pins a core for this theory instance; ``None`` follows the process
    default at query time.
    """

    name = "bitvectors"

    def __init__(self, width: int = DEFAULT_WIDTH, backend: Optional[str] = None):
        self.width = width
        self.solver_backend = backend

    def config_key(self) -> str:
        # the blasting width decides groundability and the SAT core's
        # budget behaviour decides proved-vs-declined, hence verdicts
        backend = resolve_backend(self.solver_backend)
        return f"{self.name}(width={self.width},backend={backend})"

    def accepts(self, goal: TheoryProp) -> bool:
        # Linear goals are accepted too: when bitvector *facts* are in
        # play (e.g. "the high bit is clear"), a purely linear goal like
        # ``num ≤ 127`` may only be decidable by blasting.  Ungroundable
        # goals are declined cheaply inside :meth:`entails`.
        return isinstance(goal, (BVProp, LeqZero))

    # ------------------------------------------------------------------
    def entails(self, assumptions: Sequence[Prop], goal: TheoryProp) -> bool:
        bounds, lin_assumptions, bv_assumptions = _gather_bounds(assumptions)

        blaster = BitBlaster()
        encoder = _Encoder(blaster, bounds, self.width)

        goal_lit = encoder.encode_prop(goal)
        if goal_lit is None:
            return False  # goal not groundable: decline

        for prop in bv_assumptions:
            lit = encoder.encode_prop(prop)
            if lit is not None:
                blaster.assert_lit(lit)
        for prop in lin_assumptions:
            lit = encoder.encode_prop(prop)
            if lit is not None:
                blaster.assert_lit(lit)

        blaster.assert_lit(-goal_lit)
        return not blaster.check_sat(backend=self.solver_backend)

    def context(self) -> "BitvectorContext":
        return BitvectorContext(self)


def _gather_bounds(
    assumptions: Sequence[Prop],
) -> Tuple["_Bounds", List[LeqZero], List[BVProp]]:
    """Range analysis over the assumptions (with equality propagation)."""
    bounds = _Bounds()
    bv_assumptions: List[BVProp] = []
    lin_assumptions: List[LeqZero] = []
    for prop in assumptions:
        if isinstance(prop, LeqZero):
            bounds.absorb(prop)
            lin_assumptions.append(prop)
        elif isinstance(prop, BVProp):
            bv_assumptions.append(prop)
    # Propagate bounds through equalities: an opaque atom equal to a
    # groundable term inherits its range (iterate for chains).
    for _ in range(len(bv_assumptions) + 1):
        changed = False
        for prop in bv_assumptions:
            if prop.op != "=":
                continue
            for var_side, expr_side in ((prop.lhs, prop.rhs), (prop.rhs, prop.lhs)):
                if isinstance(var_side, (BVExpr, LinExpr)):
                    continue
                if bounds.max_value(var_side) is not None:
                    continue
                peak = bounds.max_value(expr_side)
                if peak is not None:
                    bounds.nonneg.add(var_side)
                    bounds.hi[var_side] = peak
                    changed = True
        if not changed:
            break
    return bounds, lin_assumptions, bv_assumptions


class _Encoder:
    """Encodes objects and atoms against a :class:`BitBlaster`.

    Supports mark/rollback so a speculative encoding (a goal's Tseitin
    clauses) can be retracted: entries cached after :meth:`mark` are
    forgotten by :meth:`release`, keeping the cache consistent with a
    truncated clause list.
    """

    def __init__(self, blaster: BitBlaster, bounds: _Bounds, width: int):
        self.blaster = blaster
        self.bounds = bounds
        self.width = width
        self._cache: Dict[Obj, Optional[Bits]] = {}
        self._order: List[Obj] = []

    def mark(self) -> int:
        return len(self._order)

    def release(self, mark: int) -> None:
        while len(self._order) > mark:
            self._cache.pop(self._order.pop(), None)

    def _fits(self, obj: Union[Obj, int]) -> bool:
        peak = self.bounds.max_value(obj)
        return peak is not None and peak < (1 << self.width)

    def encode_obj(self, obj: Union[Obj, int]) -> Optional[Bits]:
        if isinstance(obj, int):
            if 0 <= obj < (1 << self.width):
                return self.blaster.constant(obj, self.width)
            return None
        if obj in self._cache:
            return self._cache[obj]
        self._cache[obj] = None  # cycle guard
        self._order.append(obj)
        bits = self._encode_obj(obj)
        self._cache[obj] = bits
        return bits

    def _encode_obj(self, obj: Obj) -> Optional[Bits]:
        if isinstance(obj, LinExpr):
            if not self._fits(obj):
                return None
            acc = self.blaster.constant(obj.const, self.width)
            for atom, coeff in obj.terms:
                inner = self.encode_obj(atom)
                if inner is None:
                    return None
                scaled = self.blaster.bv_mul(
                    inner, self.blaster.constant(coeff, self.width)
                )
                acc = self.blaster.bv_add(acc, scaled)
            return acc
        if isinstance(obj, BVExpr):
            if not self._fits(obj):
                return None
            args: List[Bits] = []
            for arg in obj.args:
                encoded = self.encode_obj(arg)
                if encoded is None:
                    return None
                args.append(encoded)
            op = obj.op
            if op == "and":
                return self.blaster.bv_and(*args)
            if op == "or":
                return self.blaster.bv_or(*args)
            if op == "xor":
                return self.blaster.bv_xor(*args)
            if op == "not":
                # Integer-level NOT within the declared width: x ^ (2^w - 1).
                mask = self.blaster.constant((1 << obj.width) - 1, self.width)
                return self.blaster.bv_xor(args[0], mask)
            if op == "add":
                return self.blaster.bv_add(*args)
            if op == "mul":
                return self.blaster.bv_mul(*args)
            if op == "shl":
                amount = obj.args[1]
                if not isinstance(amount, int):
                    return None
                return self.blaster.bv_shl(args[0], amount)
            if op == "lshr":
                amount = obj.args[1]
                if not isinstance(amount, int):
                    return None
                return self.blaster.bv_lshr(args[0], amount)
            return None
        # Opaque atom: encode as a variable, constrained by its bounds.
        if not self._fits(obj):
            return None
        bits = self.blaster.variable(obj, self.width)
        hi = self.bounds.hi.get(obj)
        if hi is not None:
            hi_bits = self.blaster.constant(hi, self.width)
            self.blaster.assert_lit(self.blaster.bv_ule(bits, hi_bits))
        return bits

    def _split_linear(self, expr: LinExpr) -> Optional[Tuple[Bits, Bits]]:
        """Encode ``expr ≤ 0`` as ``pos ≤ᵤ neg`` with both sides ≥ 0.

        Positive-coefficient terms and a positive constant go on the
        left; negated negative-coefficient terms and a negative
        constant (negated) on the right.
        """
        pos: Bits = self.blaster.constant(max(expr.const, 0), self.width)
        neg: Bits = self.blaster.constant(max(-expr.const, 0), self.width)
        pos_peak = max(expr.const, 0)
        neg_peak = max(-expr.const, 0)
        for atom, coeff in expr.terms:
            inner = self.encode_obj(atom)
            if inner is None:
                return None
            peak = self.bounds.max_value(atom)
            if peak is None:
                return None
            scaled = self.blaster.bv_mul(
                inner, self.blaster.constant(abs(coeff), self.width)
            )
            if coeff > 0:
                pos = self.blaster.bv_add(pos, scaled)
                pos_peak += coeff * peak
            else:
                neg = self.blaster.bv_add(neg, scaled)
                neg_peak += -coeff * peak
        if pos_peak >= (1 << self.width) or neg_peak >= (1 << self.width):
            return None
        return pos, neg

    def encode_prop(self, prop: Prop) -> Optional[int]:
        """Encode an atom as a single literal, or ``None`` to decline."""
        if isinstance(prop, LeqZero):
            sides = self._split_linear(prop.expr)
            if sides is None:
                return None
            pos, neg = sides
            return self.blaster.bv_ule(pos, neg)
        if isinstance(prop, BVProp):
            lhs = self.encode_obj(prop.lhs)
            rhs = self.encode_obj(prop.rhs)
            if lhs is None or rhs is None:
                return None
            op = prop.op
            if op == "=":
                return self.blaster.bv_eq(lhs, rhs)
            if op == "≠":
                return -self.blaster.bv_eq(lhs, rhs)
            if op == "≤":
                return self.blaster.bv_ule(lhs, rhs)
            if op == "<":
                return self.blaster.bv_ult(lhs, rhs)
            if op == "≥":
                return self.blaster.bv_ule(rhs, lhs)
            if op == ">":
                return self.blaster.bv_ult(rhs, lhs)
            return None
        return None


class BitvectorContext(TheoryContext):
    """Incremental bitvector context: Γ is bit-blasted once, goals ride
    a push/pop clause stack.

    The one-shot path re-runs the range analysis and re-encodes every
    assumption for *each* goal.  This context instead keeps a
    persistent :class:`BitBlaster`/encoder pair and an
    :class:`~repro.solvers.sat.IncrementalSatSolver`: assumption
    clauses are asserted once, and each goal's (conservative Tseitin)
    definition clauses plus its negated-goal unit live inside a
    ``push``/``pop`` bracket of the solver.  An assertion after a query
    drops the range analysis and the encoding, which are rebuilt lazily
    on the next query.
    """

    __slots__ = ("theory", "_props", "_bounds", "_encoded", "_counters")

    def __init__(self, theory: BitvectorTheory) -> None:
        self.theory = theory
        self._props: List[Union[LeqZero, BVProp]] = []
        #: lazily built range analysis over the current assumptions
        self._bounds: Optional[_Bounds] = None
        #: lazily built (blaster, encoder, solver)
        self._encoded: Optional[list] = None
        #: shared solver-counter dict (``EngineStats.solver_counters``)
        self._counters: Optional[Dict[str, int]] = None

    def bind_counters(self, shared: Optional[Dict[str, int]]) -> None:
        self._counters = shared
        if self._encoded is not None:
            self._encoded[2].bind_counters(shared)

    def assert_prop(self, prop: Prop) -> None:
        if isinstance(prop, (LeqZero, BVProp)):
            self._props.append(prop)
            self._bounds = None
            self._encoded = None

    def _ensure_bounds(self) -> "_Bounds":
        if self._bounds is None:
            self._bounds = _gather_bounds(self._props)[0]
        return self._bounds

    def _groundable(self, goal: TheoryProp, bounds: "_Bounds") -> bool:
        """Can the goal possibly be encoded under the current bounds?

        A pure range check mirroring the encoder's decline conditions,
        run *before* any clauses exist — ungroundable goals (the common
        case for linear goals falling through from Fourier-Motzkin)
        must not force Γ to be bit-blasted.
        """
        limit = 1 << self.theory.width
        if isinstance(goal, LeqZero):
            pos_peak = max(goal.expr.const, 0)
            neg_peak = max(-goal.expr.const, 0)
            for atom, coeff in goal.expr.terms:
                peak = bounds.max_value(atom)
                if peak is None:
                    return False
                if coeff > 0:
                    pos_peak += coeff * peak
                else:
                    neg_peak += -coeff * peak
            return pos_peak < limit and neg_peak < limit
        if isinstance(goal, BVProp):
            for side in (goal.lhs, goal.rhs):
                peak = bounds.max_value(side)
                if peak is None or peak >= limit:
                    return False
            return True
        return False

    def _ensure_encoded(self) -> list:
        if self._encoded is None:
            bounds = self._ensure_bounds()
            blaster = BitBlaster()
            encoder = _Encoder(blaster, bounds, self.theory.width)
            for wanted in (BVProp, LeqZero):
                for prop in self._props:
                    if isinstance(prop, wanted):
                        lit = encoder.encode_prop(prop)
                        if lit is not None:
                            blaster.assert_lit(lit)
            solver = IncrementalSatSolver(backend=self.theory.solver_backend)
            solver.bind_counters(self._counters)
            solver.add_clauses(blaster.clauses)
            self._encoded = [blaster, encoder, solver]
        return self._encoded

    def entails(self, goal: TheoryProp) -> bool:
        if not isinstance(goal, (BVProp, LeqZero)):
            return False
        if not self._groundable(goal, self._ensure_bounds()):
            return False  # decline without blasting Γ
        return self._decide_encoded(goal)

    def _speculative_clauses(self, goal: TheoryProp) -> Optional[List[List[int]]]:
        """Encode ``goal`` and return its clause set plus the ¬goal unit.

        The whole goal encoding is speculative: its Tseitin clauses are
        captured and then retracted from the shared blaster and
        encoder, so successive goals never pay for each other's
        clauses.  ``None`` means the goal could not be grounded.
        """
        blaster, encoder, _solver = self._ensure_encoded()
        clause_mark = len(blaster.clauses)
        encoder_mark = encoder.mark()
        goal_lit = encoder.encode_prop(goal)
        extra: Optional[List[List[int]]] = None
        if goal_lit is not None:
            extra = [list(clause) for clause in blaster.clauses[clause_mark:]]
            extra.append([-goal_lit])
        del blaster.clauses[clause_mark:]
        encoder.release(encoder_mark)
        return extra

    def _decide_encoded(self, goal: TheoryProp) -> bool:
        """Refute ``¬goal`` against the shared assumption encoding."""
        extra = self._speculative_clauses(goal)
        if extra is None:
            return False  # goal not groundable after all: decline
        solver = self._encoded[2]
        return not solver.check_many([extra])[0]

    def entails_batch(self, goals: Sequence[TheoryProp]) -> List[bool]:
        """Blast ``[[Γ]]_T`` at most once for the whole batch.

        The range analysis and assumption encoding are shared by every
        goal.  Each groundable goal is speculatively encoded (and its
        Tseitin clauses retracted, so goals never pay for each other),
        then the negated-goal clause sets go to the SAT solver as
        **one** :meth:`IncrementalSatSolver.check_many` call against
        the shared assumption prefix — N goals cost one translation
        plus one multi-probe solver call instead of N translations.
        """
        results: List[bool] = []
        pending: List[Tuple[int, List[List[int]]]] = []
        for goal in goals:
            extra = None
            # An ungroundable goal is declined without blasting Γ.
            if isinstance(goal, (BVProp, LeqZero)) and self._groundable(
                goal, self._ensure_bounds()
            ):
                extra = self._speculative_clauses(goal)
            if extra is not None:
                pending.append((len(results), extra))
            results.append(False)  # declined, or patched below
        if pending:
            solver = self._encoded[2]
            answers = solver.check_many([extra for _, extra in pending])
            for (position, _), sat in zip(pending, answers):
                results[position] = not sat  # refuting ¬goal proves the goal
        return results
