"""Batched theory dispatch must be answer-equivalent to single goals.

``entails_batch`` (theory, context, session and registry level) exists
purely to collapse N session round-trips into one — any divergence
from per-goal ``entails`` answers would be a soundness/precision bug.
"""

import pytest

from repro.theories.base import BatchContext, Theory
from repro.theories.registry import default_registry
from repro.tr.objects import BVExpr, Var, obj_int, lin_add, lin_scale
from repro.tr.props import BVProp, lin_le, make_congruence

X, Y = Var("x"), Var("y")


def _assumptions():
    return [
        lin_le(obj_int(0), X),          # 0 ≤ x
        lin_le(X, obj_int(10)),         # x ≤ 10
        lin_le(obj_int(0), Y),          # 0 ≤ y
        lin_le(Y, obj_int(255)),        # y ≤ 255
        make_congruence(X, 2, 0),       # x even
    ]


def _goals():
    return [
        lin_le(X, obj_int(20)),                   # provable (linarith)
        lin_le(obj_int(5), X),                    # not provable
        lin_le(lin_add(X, Y), obj_int(265)),      # provable (linarith)
        make_congruence(X, 2, 0),                 # provable (congruence)
        make_congruence(X, 2, 1),                 # refutable
        make_congruence(lin_scale(2, Y), 2, 0),   # provable (linear residue)
        BVProp("≤", BVExpr("and", (X, Y), 8), Y, 8),    # provable (bitvec)
        BVProp("<", Y, BVExpr("and", (X, Y), 8), 8),    # not provable
        lin_le(X, obj_int(20)),                   # duplicate of goal 0
    ]


class TestRegistryBatch:
    def test_batch_equals_single(self):
        registry = default_registry()
        single = [registry.entails(_assumptions(), g) for g in _goals()]
        batch = registry.entails_batch(_assumptions(), _goals())
        assert batch == single
        assert any(batch) and not all(batch)  # the set is discriminating

    def test_session_batch_equals_single_and_memoises(self):
        registry = default_registry()
        loner = registry.session()
        loner.assert_all(_assumptions())
        batcher = registry.session()
        batcher.assert_all(_assumptions())

        single = [loner.entails(g) for g in _goals()]
        batch = batcher.entails_batch(_goals())
        assert batch == single
        # memo consistency both directions
        assert batcher.entails_batch(_goals()) == batch
        assert [batcher.entails(g) for g in _goals()] == batch
        assert [loner.entails(g) for g in _goals()] == single

    def test_counters_match_single_goal_accounting(self):
        registry = default_registry()
        loner = registry.session()
        loner.assert_all(_assumptions())
        batcher = registry.session()
        batcher.assert_all(_assumptions())
        for goal in _goals():
            loner.entails(goal)
        batcher.entails_batch(_goals())
        assert batcher.counters == loner.counters

    def test_empty_batch(self):
        session = default_registry().session()
        assert session.entails_batch([]) == []


class TestContextBatch:
    @pytest.mark.parametrize("index", range(3))
    def test_each_context_batch_equals_single(self, index):
        registry = default_registry()
        theory = registry.theories[index]
        single_ctx = theory.context()
        batch_ctx = theory.context()
        for prop in _assumptions():
            if theory.accepts(prop):
                single_ctx.assert_prop(prop)
                batch_ctx.assert_prop(prop)
        goals = [g for g in _goals()]
        single = [single_ctx.entails(g) if theory.accepts(g) else False for g in goals]
        batch = batch_ctx.entails_batch(goals)
        assert batch == single


class _CountingTheory(Theory):
    """Accepts everything linear; counts batch invocations."""

    name = "counting"

    def __init__(self):
        self.batch_calls = 0
        self.single_calls = 0

    def accepts(self, goal):
        return True

    def entails(self, assumptions, goal):
        self.single_calls += 1
        return False

    def entails_batch(self, assumptions, goals):
        self.batch_calls += 1
        return [self.entails(assumptions, g) for g in goals]


def test_batch_context_flattens_assumptions_once():
    theory = _CountingTheory()
    context = BatchContext(theory)
    for prop in _assumptions():
        context.assert_prop(prop)
    goals = _goals()
    answers = context.entails_batch(goals)
    assert answers == [False] * len(goals)
    assert theory.batch_calls == 1  # one dispatch for the whole batch
    # no memo below the session: a second batch is one more dispatch
    assert context.entails_batch(goals) == answers
    assert theory.batch_calls == 2
