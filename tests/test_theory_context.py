"""The append-only theory-context API (assert_prop / entails).

Each theory's context must agree with its one-shot ``entails`` on every
assumption list, contradictory ones included — the context is an
optimisation, never a semantics change.  The tests drive each concrete
context (linear arithmetic, bitvectors, congruence), the registry
session that multiplexes them, and the incremental solver structures
underneath.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers.linear import (
    SAT,
    UNSAT,
    Constraint,
    IncrementalConstraintSet,
    fm_entails,
)
from repro.solvers.sat import IncrementalSatSolver
from repro.theories.bitvec import BitvectorTheory
from repro.theories.congruence import CongruenceTheory
from repro.theories.linarith import LinearArithmeticTheory
from repro.theories.registry import default_registry
from repro.tr.objects import BVExpr, Var, lin_add, lin_scale, obj_int
from repro.tr.props import (
    BVProp,
    Congruence,
    TheoryProp,
    lin_le,
    lin_lt,
    make_congruence,
)

x = Var("x")
y = Var("y")


def leq(lhs, rhs):
    return lin_le(lhs, rhs)


class TestLinArithContext:
    def test_incremental_matches_batch(self):
        theory = LinearArithmeticTheory()
        ctx = theory.context()
        facts = [leq(x, obj_int(5)), leq(obj_int(0), x)]
        for fact in facts:
            ctx.assert_prop(fact)
        goal = leq(x, obj_int(10))
        assert ctx.entails(goal) == theory.entails(facts, goal) == True

    def test_contradiction_latches(self):
        ctx = LinearArithmeticTheory().context()
        ctx.assert_prop(leq(obj_int(0), x))
        assert not ctx.is_unsat()
        assert not ctx.entails(leq(obj_int(99), x))
        ctx.assert_prop(lin_lt(x, obj_int(0)))
        assert ctx.is_unsat()
        assert ctx.entails(leq(obj_int(99), x))  # ex falso
        ctx.assert_prop(leq(x, obj_int(5)))  # later facts cannot undo it
        assert ctx.is_unsat()
        assert ctx.entails(leq(obj_int(99), x))


class TestCongruenceContext:
    def test_matches_batch(self):
        theory = CongruenceTheory()
        ctx = theory.context()
        fact = Congruence(x, 2, 0)
        ctx.assert_prop(fact)
        goal = Congruence(x, 2, 0)
        assert ctx.entails(goal) == theory.entails([fact], goal) == True
        assert not ctx.entails(Congruence(x, 2, 1))

    def test_crt_merge(self):
        ctx = CongruenceTheory().context()
        ctx.assert_prop(Congruence(x, 2, 0))
        assert not ctx.entails(Congruence(x, 6, 4))
        ctx.assert_prop(Congruence(x, 3, 1))
        # x ≡ 0 (mod 2) ∧ x ≡ 1 (mod 3)  ⟹  x ≡ 4 (mod 6)
        assert ctx.entails(Congruence(x, 6, 4))
        assert ctx.entails(Congruence(x, 2, 0))
        assert not ctx.entails(Congruence(x, 6, 2))

    def test_inconsistency_latches(self):
        ctx = CongruenceTheory().context()
        ctx.assert_prop(Congruence(x, 2, 0))
        assert not ctx.entails(Congruence(y, 5, 3))
        ctx.assert_prop(Congruence(x, 2, 1))  # contradicts
        assert ctx.entails(Congruence(y, 5, 3))  # ex falso
        ctx.assert_prop(Congruence(x, 4, 0))  # later facts cannot undo it
        assert ctx.entails_batch([Congruence(y, 5, 3), leq(x, obj_int(0))]) == [
            True,
            False,
        ]


class TestBitvectorContext:
    def _byte_facts(self, var):
        return [leq(obj_int(0), var), leq(var, obj_int(255))]

    def test_matches_batch(self):
        theory = BitvectorTheory()
        ctx = theory.context()
        facts = self._byte_facts(x)
        for fact in facts:
            ctx.assert_prop(fact)
        goal = BVProp("≤", BVExpr("and", (x, 15), 8), obj_int(15), 8)
        assert ctx.entails(goal) == theory.entails(facts, goal) == True

    def test_goal_memoised_and_invalidated(self):
        """The encoding built by a query is reused by the next one, and
        an assert after a query drops it, so the answer can change."""
        ctx = BitvectorTheory().context()
        for fact in self._byte_facts(x):
            ctx.assert_prop(fact)
        tight = BVProp("≤", x, obj_int(10), 8)
        assert ctx.entails(BVProp("≤", x, obj_int(255), 8))
        encoded = ctx._encoded
        assert not ctx.entails(tight)
        assert ctx._encoded is encoded
        ctx.assert_prop(leq(x, obj_int(10)))
        assert ctx._encoded is None
        assert ctx.entails(tight)
        assert ctx.entails_batch([tight, BVProp("≤", x, obj_int(9), 8)]) == [
            True,
            False,
        ]

    def test_ungroundable_goal_declined(self):
        ctx = BitvectorTheory().context()
        # No range facts for x: the encoding must decline, not guess.
        assert not ctx.entails(BVProp("≤", x, obj_int(255), 8))


class TestRegistrySession:
    def test_session_agrees_with_batch_registry(self):
        registry = default_registry()
        facts = [leq(x, obj_int(5)), Congruence(x, 2, 0)]
        session = registry.session()
        session.assert_all(facts)
        for goal in (leq(x, obj_int(9)), Congruence(x, 2, 0)):
            assert session.entails(goal) == registry.entails(facts, goal) == True

    def test_query_counters(self):
        counters = {}
        session = default_registry().session(counters)
        session.assert_prop(leq(x, obj_int(5)))
        session.entails(leq(x, obj_int(9)))
        session.entails(leq(x, obj_int(9)))  # memo hit: no extra query
        assert counters["linear-arithmetic"] == 1


class TestAcceptsPrefilter:
    def test_registry_filters_assumptions_per_theory(self):
        from repro.theories.base import Theory
        from repro.tr.props import TheoryProp

        seen = {}

        class Spy(Theory):
            name = "spy"

            def accepts(self, goal):
                return isinstance(goal, Congruence)

            def entails(self, assumptions, goal):
                seen["assumptions"] = list(assumptions)
                return False

        registry = default_registry()
        registry.register(Spy())
        facts = [leq(x, obj_int(5)), Congruence(x, 2, 0)]
        registry.entails(facts, Congruence(x, 4, 0))
        # the spy only ever saw atoms it accepts
        assert seen["assumptions"] == [Congruence(x, 2, 0)]


class TestIncrementalConstraintSet:
    def test_dedup_and_memo(self):
        cs = IncrementalConstraintSet()
        con = Constraint.make({"x": 1}, -5)
        cs.add(con)
        cs.add(con)
        assert len(cs) == 1
        goal = Constraint.make({"x": 1}, -10)
        assert cs.entails(goal) == fm_entails([con], goal)

    def test_contradicting_add_flips_satisfiable(self):
        cs = IncrementalConstraintSet()
        cs.add(Constraint.make({"x": -1}, 0))  # 0 ≤ x
        assert cs.satisfiable() == SAT
        cs.add(Constraint.make({"x": 1}, 1))  # x ≤ -1
        assert cs.satisfiable() == UNSAT
        assert cs.entails(Constraint.make({"x": -1}, 99))  # ex falso


class TestIncrementalSatSolver:
    def test_push_pop(self):
        solver = IncrementalSatSolver()
        solver.add_clause([1, 2])
        assert solver.check_sat()
        solver.push()
        solver.add_clause([-1])
        solver.add_clause([-2])
        assert not solver.check_sat()
        solver.pop()
        assert solver.check_sat()

    def test_memo_survives_no_op_frames(self):
        solver = IncrementalSatSolver()
        solver.add_clause([1])
        assert solver.check_sat()
        solver.push()
        solver.pop()
        assert solver.check_sat()


# ----------------------------------------------------------------------
# every context answers exactly as its theory's one-shot entails
# ----------------------------------------------------------------------
_small = st.integers(-4, 4)
_var = st.sampled_from([x, y])


def _linear(draw_coeffs):
    a, b, c = draw_coeffs
    return lin_add(lin_add(lin_scale(a, x), lin_scale(b, y)), obj_int(c))


_linear_objs = st.tuples(_small, _small, _small).map(_linear)
_leq_atoms = st.builds(lin_le, _linear_objs, st.just(obj_int(0)))
_congruence_atoms = st.builds(
    make_congruence,
    # shared atoms make conflicting residues (and CRT merges) common
    st.one_of(st.sampled_from([x, y, lin_add(x, y)]), _linear_objs),
    st.integers(1, 6),
    st.integers(0, 5),
)
# bitvector atoms stay within 4 bits so a 7-bit blast grounds them
_nibble = st.integers(0, 15)
_nibble_bounds = st.builds(
    lambda var, hi: [leq(obj_int(0), var), leq(var, obj_int(hi))], _var, _nibble
)
_bv_operands = st.one_of(
    _var,
    st.builds(lambda v, k: BVExpr("and", (v, k), 8), _var, _nibble),
    st.builds(lambda v, k: BVExpr("or", (v, k), 8), _var, _nibble),
    st.builds(lambda a, b: BVExpr("xor", (a, b), 8), _var, _var),
)
_bv_atoms = st.builds(
    BVProp,
    st.sampled_from(["=", "≠", "≤", "<"]),
    _bv_operands,
    _nibble.map(obj_int),
    st.just(8),
)

_CASES = {
    "linear-arithmetic": (
        LinearArithmeticTheory,
        st.lists(_leq_atoms, max_size=6),
        st.lists(_leq_atoms, min_size=1, max_size=4),
    ),
    "congruence": (
        CongruenceTheory,
        st.lists(_congruence_atoms, max_size=6),
        st.lists(_congruence_atoms, min_size=1, max_size=4),
    ),
    "bitvectors": (
        BitvectorTheory,
        st.tuples(
            st.lists(_nibble_bounds, max_size=2),
            st.lists(st.one_of(_bv_atoms, _leq_atoms), max_size=3),
        ).map(lambda parts: [a for pair in parts[0] for a in pair] + parts[1]),
        st.lists(st.one_of(_bv_atoms, _leq_atoms), min_size=1, max_size=3),
    ),
}


@pytest.mark.parametrize("name", sorted(_CASES))
def test_context_answers_as_one_shot_entails(name):
    make_theory, assumption_lists, goal_lists = _CASES[name]

    @settings(max_examples=40, deadline=None)
    @given(assumption_lists, goal_lists)
    def check(assumptions, goals):
        theory = make_theory()
        assumptions = [p for p in assumptions if isinstance(p, TheoryProp)]
        goals = [g for g in goals if isinstance(g, TheoryProp)]
        expected = [theory.entails(assumptions, goal) for goal in goals]
        ctx = theory.context()
        for prop in assumptions:
            ctx.assert_prop(prop)
        assert [ctx.entails(goal) for goal in goals] == expected
        batch_ctx = theory.context()
        for prop in assumptions:
            batch_ctx.assert_prop(prop)
        assert batch_ctx.entails_batch(goals) == expected

    check()
