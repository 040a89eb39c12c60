"""Tests for hybrid environments: snapshots, canonicalisation, caching."""

from repro.logic.env import Env
from repro.logic.prove import Logic
from repro.tr.objects import (
    FST,
    LEN,
    SND,
    Var,
    lin_add,
    obj_field,
    obj_int,
    obj_pair,
)
from repro.tr.props import IsType, lin_le, lin_lt, make_alias
from repro.tr.types import BOOL, INT, Vec, make_union

LOGIC = Logic()

x, y, v, w = Var("x"), Var("y"), Var("v"), Var("w")


class TestSnapshotIsolation:
    def test_extension_does_not_mutate_parent(self):
        env = Env()
        child = LOGIC.extend(env, IsType(x, INT))
        assert env.types == {}
        assert child.types != {}

    def test_sibling_branches_independent(self):
        base = LOGIC.extend(Env(), IsType(x, make_union([INT, BOOL])))
        then_env = LOGIC.extend(base, IsType(x, INT))
        else_env = LOGIC.extend(base, IsType(x, BOOL))
        assert LOGIC.proves(then_env, IsType(x, INT))
        assert not LOGIC.proves(then_env, IsType(x, BOOL))
        assert LOGIC.proves(else_env, IsType(x, BOOL))
        assert not LOGIC.proves(else_env, IsType(x, INT))

    def test_alias_isolation(self):
        base = Env()
        child = LOGIC.extend(base, make_alias(x, y))
        assert child.aliases.same_class(x, y)
        assert not base.aliases.same_class(x, y)

    def test_theory_fact_isolation(self):
        base = LOGIC.extend(Env(), IsType(x, INT))
        child = LOGIC.extend(base, lin_le(x, obj_int(5)))
        assert LOGIC.proves(child, lin_le(x, obj_int(10)))
        assert not LOGIC.proves(base, lin_le(x, obj_int(10)))


class TestCanonicalisation:
    def test_canon_plain_var(self):
        env = LOGIC.extend(Env(), make_alias(x, y))
        assert env.canon_obj(x) == env.canon_obj(y)

    def test_canon_recurses_into_fields(self):
        env = LOGIC.extend(Env(), IsType(v, Vec(INT)))
        env = LOGIC.extend(env, make_alias(w, v))
        assert env.canon_obj(obj_field(LEN, w)) == env.canon_obj(obj_field(LEN, v))

    def test_canon_recurses_into_linexprs(self):
        env = LOGIC.extend(Env(), IsType(x, INT))
        env = LOGIC.extend(env, IsType(y, INT))
        env = LOGIC.extend(env, make_alias(x, y))
        left = env.canon_obj(lin_add(x, obj_int(1)))
        right = env.canon_obj(lin_add(y, obj_int(1)))
        assert left == right

    def test_canon_pairs(self):
        env = LOGIC.extend(Env(), make_alias(x, y))
        assert env.canon_obj(obj_pair(x, obj_int(1))) == env.canon_obj(
            obj_pair(y, obj_int(1))
        )

    def test_representative_prefers_field_ref(self):
        env = LOGIC.extend(Env(), IsType(v, Vec(INT)))
        env = LOGIC.extend(env, make_alias(Var("end"), obj_field(LEN, v)))
        assert env.canon_obj(Var("end")) == obj_field(LEN, v)


class TestFactPropagationAcrossAliases:
    def test_facts_recanonicalised_after_union(self):
        # a fact about `end` recorded BEFORE the alias is still usable after
        env = LOGIC.extend(Env(), IsType(v, Vec(INT)))
        env = LOGIC.extend(env, IsType(Var("end"), INT))
        env = LOGIC.extend(env, IsType(Var("i"), INT))
        env = LOGIC.extend(env, lin_lt(Var("i"), Var("end")))
        env = LOGIC.extend(env, make_alias(Var("end"), obj_field(LEN, v)))
        assert LOGIC.proves(env, lin_lt(Var("i"), obj_field(LEN, v)))

    def test_type_info_merges_on_union(self):
        env = LOGIC.extend(Env(), IsType(x, make_union([INT, BOOL])))
        env = LOGIC.extend(env, IsType(y, INT))
        env = LOGIC.extend(env, make_alias(x, y))
        assert LOGIC.proves(env, IsType(x, INT))

    def test_contradictory_aliases_detected(self):
        from repro.tr.props import FF
        from repro.tr.types import STR

        env = LOGIC.extend(Env(), IsType(x, INT))
        env = LOGIC.extend(env, IsType(y, STR))
        env = LOGIC.extend(env, make_alias(x, y))
        assert LOGIC.proves(env, FF)


class TestTheoryCache:
    def test_cache_not_shared_across_snapshots(self):
        env = LOGIC.extend(Env(), lin_le(x, obj_int(5)))
        LOGIC.theory_assumptions(env)
        child = LOGIC.extend(env, lin_le(y, obj_int(3)))
        assert len(LOGIC.theory_assumptions(child)) > len(
            LOGIC.theory_assumptions(env)
        )
