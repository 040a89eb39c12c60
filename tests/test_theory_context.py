"""The incremental theory-context API (push / assert_prop / pop).

Each theory's context must agree with its batch ``entails`` on every
assumption set reachable through pushes and pops — the context is an
optimisation, never a semantics change.  The tests drive each concrete
context (linear arithmetic, bitvectors, congruence), the registry
session that multiplexes them, and the incremental solver structures
underneath.
"""

import pytest

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
from repro.tr.objects import BVExpr, Var, obj_int
from repro.tr.props import BVProp, Congruence, lin_le, lin_lt

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

    def test_push_pop_restores_answers(self):
        ctx = LinearArithmeticTheory().context()
        ctx.assert_prop(leq(x, obj_int(5)))
        tight = leq(x, obj_int(3))
        assert not ctx.entails(tight)
        ctx.push()
        ctx.assert_prop(leq(x, obj_int(2)))
        assert ctx.entails(tight)
        ctx.pop()
        assert not ctx.entails(tight)

    def test_contradiction_scoped_to_frame(self):
        ctx = LinearArithmeticTheory().context()
        ctx.assert_prop(leq(obj_int(0), x))
        assert not ctx.is_unsat()
        ctx.push()
        ctx.assert_prop(lin_lt(x, obj_int(0)))
        assert ctx.is_unsat()
        assert ctx.entails(leq(obj_int(99), x))  # ex falso
        ctx.pop()
        assert not ctx.is_unsat()
        assert not ctx.entails(leq(obj_int(99), x))

    def test_pop_without_push_raises(self):
        with pytest.raises(IndexError):
            LinearArithmeticTheory().context().pop()


class TestCongruenceContext:
    def test_matches_batch(self):
        theory = CongruenceTheory()
        ctx = theory.context()
        fact = Congruence(x, 2, 0)
        ctx.assert_prop(fact)
        goal = Congruence(x, 2, 0)
        assert ctx.entails(goal) == theory.entails([fact], goal) == True
        assert not ctx.entails(Congruence(x, 2, 1))

    def test_crt_merge_and_pop(self):
        ctx = CongruenceTheory().context()
        ctx.assert_prop(Congruence(x, 2, 0))
        ctx.push()
        ctx.assert_prop(Congruence(x, 3, 1))
        # x ≡ 0 (mod 2) ∧ x ≡ 1 (mod 3)  ⟹  x ≡ 4 (mod 6)
        assert ctx.entails(Congruence(x, 6, 4))
        ctx.pop()
        assert not ctx.entails(Congruence(x, 6, 4))
        assert ctx.entails(Congruence(x, 2, 0))

    def test_inconsistency_latched_and_released(self):
        ctx = CongruenceTheory().context()
        ctx.assert_prop(Congruence(x, 2, 0))
        ctx.push()
        ctx.assert_prop(Congruence(x, 2, 1))  # contradicts
        assert ctx.entails(Congruence(y, 5, 3))  # ex falso
        ctx.pop()
        assert not ctx.entails(Congruence(y, 5, 3))


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
        ctx = BitvectorTheory().context()
        for fact in self._byte_facts(x):
            ctx.assert_prop(fact)
        goal = BVProp("≤", x, obj_int(255), 8)
        assert ctx.entails(goal)
        assert ctx.entails(goal)  # memo hit
        ctx.push()
        ctx.assert_prop(leq(x, obj_int(10)))
        assert ctx.entails(BVProp("≤", x, obj_int(10), 8))
        ctx.pop()
        assert not ctx.entails(BVProp("≤", x, obj_int(10), 8))

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

    def test_push_pop_and_satisfiable(self):
        cs = IncrementalConstraintSet()
        cs.add(Constraint.make({"x": -1}, 0))  # 0 ≤ x
        assert cs.satisfiable() == SAT
        cs.push()
        cs.add(Constraint.make({"x": 1}, 1))  # x ≤ -1
        assert cs.satisfiable() == UNSAT
        cs.pop()
        assert cs.satisfiable() == SAT


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
