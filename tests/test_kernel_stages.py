"""Unit coverage for the layered proof kernel's stages.

Normalization rules are pure single-step rewrites; saturation is a
budgeted worklist; dispatch decides each theory atom as it is reached.
These tests pin the stage contracts directly, below the Logic façade.
"""

from repro.logic.env import Env
from repro.logic.kernel.normalize import (
    ALIAS,
    PROP,
    TYPE,
    alias_forks,
    canon_theory,
    clausify_step,
    decompose_type,
)
from repro.logic.prove import Logic
from repro.tr.objects import PairObj, Var, obj_int
from repro.tr.props import (
    And,
    FalseProp,
    IsType,
    NotType,
    Or,
    TrueProp,
    lin_le,
    make_alias,
    make_and,
)
from repro.tr.parse import NAT
from repro.tr.types import INT, Pair, Refine, Union

X, Y = Var("x"), Var("y")


class TestNormalize:
    def test_conjunctions_split_in_order(self):
        prop = make_and((IsType(X, INT), IsType(Y, INT)))
        steps = clausify_step(prop)
        assert steps == [
            (PROP, IsType(X, INT)),
            (PROP, IsType(Y, INT)),
        ]

    def test_atoms_become_typed_items(self):
        assert clausify_step(IsType(X, INT)) == [(TYPE, X, INT, True)]
        assert clausify_step(NotType(X, INT)) == [(TYPE, X, INT, False)]
        assert clausify_step(make_alias(X, Y)) == [(ALIAS, X, Y)]

    def test_disjunctions_are_not_clausified(self):
        # Or shrinking needs the store's state; the step must decline.
        assert clausify_step(Or((IsType(X, INT), IsType(Y, INT)))) is None

    def test_positive_refinement_unpacks(self):
        refined = Refine("v", INT, lin_le(obj_int(0), Var("v")))
        steps = decompose_type(X, refined, True)
        assert steps[0] == (TYPE, X, INT, True)
        tag, unpacked = steps[1]
        assert tag == PROP and unpacked == lin_le(obj_int(0), X)

    def test_negative_refinement_becomes_disjunction(self):
        refined = Refine("v", INT, lin_le(obj_int(0), Var("v")))
        ((tag, prop),) = decompose_type(X, refined, False)
        assert tag == PROP and isinstance(prop, Or)

    def test_pair_fact_forks_pointwise(self):
        pair_obj = PairObj(X, Y)
        steps = decompose_type(pair_obj, Pair(INT, NAT), True)
        assert steps == [
            (TYPE, X, INT, True),
            (TYPE, Y, NAT, True),
        ]

    def test_pair_alias_forks_pointwise(self):
        left = PairObj(X, Y)
        right = PairObj(Var("a"), Var("b"))
        assert alias_forks(left, right) == [
            (ALIAS, X, Var("a")),
            (ALIAS, Y, Var("b")),
        ]

    def test_canon_theory_constant_folds(self):
        identity = lambda obj: obj
        assert isinstance(
            canon_theory(identity, lin_le(obj_int(0), obj_int(1))), TrueProp
        )
        assert isinstance(
            canon_theory(identity, lin_le(obj_int(1), obj_int(0))), FalseProp
        )


class TestSaturation:
    def test_extension_is_iterative_on_wide_conjunctions(self):
        logic = Logic()
        conjuncts = tuple(IsType(Var(f"v{i}"), INT) for i in range(3000))
        env = logic.extend(Env(), And(conjuncts))
        assert len(env.types) == 3000

    def test_step_budget_drops_rather_than_dies(self):
        logic = Logic(max_steps=10)
        conjuncts = tuple(IsType(Var(f"v{i}"), INT) for i in range(100))
        env = logic.extend(Env(), And(conjuncts))
        # budget exhausted: some facts dropped, environment consistent
        assert 0 < len(env.types) < 100
        assert not env.inconsistent

    def test_contradiction_marks_inconsistent(self):
        logic = Logic()
        env = logic.extend(Env(), IsType(X, Union(())))
        assert env.inconsistent

    def test_alias_merge_skips_recanon_for_fresh_names(self):
        # The T-Let pattern: alias a fresh variable to an existing
        # object.  No record mentions the fresh name, so the merge must
        # not rebuild the record tables (same dict identity).
        logic = Logic()
        env = logic.extend(Env(), IsType(X, INT))
        extended = logic.extend(env, make_alias(Var("fresh"), X))
        assert extended.aliases.same_class(Var("fresh"), X)
        assert extended.types.get(X) == INT  # record survived unmoved

    def test_alias_merge_keeps_facts_reachable_through_either_name(self):
        # Regression: aliasing a *recorded* variable to an unrecorded
        # one demotes the recorded name; its facts must be re-keyed
        # onto the representative, and proofs must go through under
        # both spellings.  (A mis-unpacked change set once skipped the
        # re-canonicalisation here.)
        logic = Logic()
        env = logic.extend(Env(), IsType(X, INT))
        merged = logic.extend(env, make_alias(X, Y))
        assert logic.proves(merged, IsType(X, INT))
        assert logic.proves(merged, IsType(Y, INT))

    def test_alias_merge_recanons_when_records_mention_demoted(self):
        # Aliasing two recorded variables re-keys onto the representative.
        logic = Logic()
        env = Env()
        env = logic.extend(env, IsType(X, INT))
        env = logic.extend(env, IsType(Y, NAT))
        merged = logic.extend(env, make_alias(X, Y))
        rep = merged.aliases.find(X)
        assert merged.aliases.same_class(X, Y)
        # both facts now live on the representative, intersected
        assert rep in merged.types


class TestDispatchStage:
    def test_conjoined_theory_goals_each_reach_the_session(self):
        logic = Logic()
        env = logic.extend(Env(), lin_le(X, obj_int(5)))
        goal = make_and((lin_le(X, obj_int(6)), lin_le(X, obj_int(7))))
        assert logic.proves(env, goal)
        assert logic.stats.theory_goals == 2

    def test_conjunction_stops_at_its_first_failing_theory_atom(self):
        # x ≤ 3 fails under x ≤ 5, so the conjunction fails there and
        # x ≤ 7 is never sent to a solver.
        logic = Logic()
        env = logic.extend(Env(), lin_le(X, obj_int(5)))
        goal = make_and((lin_le(X, obj_int(3)), lin_le(X, obj_int(7))))
        assert not logic.proves(env, goal)
        assert logic.stats.theory_goals == 1

    def test_batched_answers_match_singles(self):
        goals = [lin_le(X, obj_int(6)), lin_le(obj_int(9), X)]
        batched = Logic()
        env_b = batched.extend(Env(), lin_le(X, obj_int(5)))
        combined = batched.proves(env_b, make_and(tuple(goals)))
        singles = Logic()
        env_s = singles.extend(Env(), lin_le(X, obj_int(5)))
        individually = [singles.proves(env_s, g) for g in goals]
        assert combined == all(individually)
        assert individually == [True, False]
