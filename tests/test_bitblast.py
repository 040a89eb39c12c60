"""Tests for bit-blasting: encoded operations match Python semantics."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers.bitblast import BitBlaster
from repro.solvers.sat import solve
from repro.theories.bitvec import DEFAULT_WIDTH, BitvectorTheory
from repro.tr.objects import Var, obj_int
from repro.tr.props import lin_le

WIDTH = 8
_bytes = st.integers(0, 255)


def _assert_equals_value(blaster, bits, value):
    """Assert 'bits == value' is forced, by checking the negation UNSAT."""
    expected = blaster.constant(value % (1 << len(bits)), len(bits))
    eq = blaster.bv_eq(bits, expected)
    blaster.assert_lit(-eq)
    assert not blaster.check_sat()


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_and(a, b):
    blaster = BitBlaster()
    result = blaster.bv_and(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, a & b)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_or(a, b):
    blaster = BitBlaster()
    result = blaster.bv_or(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, a | b)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_xor(a, b):
    blaster = BitBlaster()
    result = blaster.bv_xor(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, a ^ b)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_add_mod_256(a, b):
    blaster = BitBlaster()
    result = blaster.bv_add(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, (a + b) % 256)


@settings(max_examples=30, deadline=None)
@given(_bytes, _bytes)
def test_mul_mod_256(a, b):
    blaster = BitBlaster()
    result = blaster.bv_mul(blaster.constant(a, WIDTH), blaster.constant(b, WIDTH))
    _assert_equals_value(blaster, result, (a * b) % 256)


@settings(max_examples=40, deadline=None)
@given(_bytes, st.integers(0, 7))
def test_shifts(a, k):
    blaster = BitBlaster()
    shl = blaster.bv_shl(blaster.constant(a, WIDTH), k)
    _assert_equals_value(blaster, shl, (a << k) % 256)
    blaster2 = BitBlaster()
    shr = blaster2.bv_lshr(blaster2.constant(a, WIDTH), k)
    _assert_equals_value(blaster2, shr, a >> k)


@settings(max_examples=60, deadline=None)
@given(_bytes, _bytes)
def test_comparisons(a, b):
    blaster = BitBlaster()
    av, bv = blaster.constant(a, WIDTH), blaster.constant(b, WIDTH)
    lt = blaster.bv_ult(av, bv)
    le = blaster.bv_ule(av, bv)
    eq = blaster.bv_eq(av, bv)
    blaster.assert_lit(lt if a < b else -lt)
    blaster.assert_lit(le if a <= b else -le)
    blaster.assert_lit(eq if a == b else -eq)
    assert blaster.check_sat()


def test_not_within_width():
    blaster = BitBlaster()
    result = blaster.bv_not(blaster.constant(0b10100101, WIDTH))
    _assert_equals_value(blaster, result, 0b01011010)


def test_variables_are_cached():
    blaster = BitBlaster()
    a1 = blaster.variable("x", WIDTH)
    a2 = blaster.variable("x", WIDTH)
    assert a1 == a2


def test_free_variable_comparison_is_satisfiable_both_ways():
    blaster = BitBlaster()
    x = blaster.variable("x", WIDTH)
    limit = blaster.constant(100, WIDTH)
    lt = blaster.bv_ult(x, limit)
    blaster.assert_lit(lt)
    assert blaster.check_sat()  # some x < 100 exists


def test_xtime_invariant_via_blasting():
    """The AES xtime core: ((2n) & 0xff) ^ 0x1b stays within a byte."""
    blaster = BitBlaster()
    width = 16
    n = blaster.variable("num", width)
    blaster.assert_lit(blaster.bv_ule(n, blaster.constant(255, width)))
    doubled = blaster.bv_mul(n, blaster.constant(2, width))
    masked = blaster.bv_and(doubled, blaster.constant(0xFF, width))
    xored = blaster.bv_xor(masked, blaster.constant(0x1B, width))
    over = blaster.bv_ult(blaster.constant(255, width), xored)
    blaster.assert_lit(over)  # claim: result can exceed 255
    assert not blaster.check_sat()  # refuted


# ----------------------------------------------------------------------
# constant folding
# ----------------------------------------------------------------------


def test_multiply_by_one_is_the_multiplicand():
    blaster = BitBlaster()
    x = blaster.variable("x", DEFAULT_WIDTH)
    before = len(blaster.clauses)
    assert blaster.bv_mul(x, blaster.constant(1, DEFAULT_WIDTH)) == x
    assert len(blaster.clauses) == before


def test_adding_zero_is_the_addend():
    blaster = BitBlaster()
    x = blaster.variable("x", WIDTH)
    before = len(blaster.clauses)
    assert blaster.bv_add(x, blaster.constant(0, WIDTH)) == x
    assert blaster.bv_add(blaster.constant(0, WIDTH), x) == x
    assert len(blaster.clauses) == before


@pytest.mark.parametrize("backend", ["fast", "legacy"])
def test_empty_length_query_blasts_small(backend):
    """Γ = 0 ≤ L ≤ 0 does not entail 1 ≤ L, at the production width.

    The linear fall-through shape of the generated corpus: unfolded
    gates blasted this Γ into 21,196 clauses.
    """
    length = Var("L")
    context = BitvectorTheory(backend=backend).context()
    context.assert_prop(lin_le(obj_int(0), length))
    context.assert_prop(lin_le(length, obj_int(0)))
    assert context.entails(lin_le(obj_int(1), length)) is False
    assert context.entails(lin_le(length, obj_int(0))) is True
    blaster = context._encoded[0]  # Γ only: goal clauses were retracted
    assert len(blaster.clauses) < 1000


_N_VARS = 4


def _gate_trees():
    """Gate trees over variables, constants, repeated and complemented
    inputs, as nested tuples."""
    leaves = st.one_of(
        st.builds(lambda i: ("var", i), st.integers(0, _N_VARS - 1)),
        st.builds(lambda v: ("const", v), st.booleans()),
    )

    binary = st.sampled_from(["and", "or", "xor", "iff"])
    any_gate = st.sampled_from(["and", "or", "xor", "iff", "maj"])

    def grow(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(binary, children, children),
            st.tuples(st.just("maj"), children, children, children),
            # the same literal twice, or next to its complement
            st.tuples(st.just("same"), any_gate, children, children),
            st.tuples(st.just("opposite"), any_gate, children, children),
        )

    return st.recursive(leaves, grow, max_leaves=12)


_GATES = {
    "and": (BitBlaster.gate_and, lambda a, b: a and b),
    "or": (BitBlaster.gate_or, lambda a, b: a or b),
    "xor": (BitBlaster.gate_xor, lambda a, b: a != b),
    "iff": (BitBlaster.gate_iff, lambda a, b: a == b),
}


def _build(blaster, names, tree, env):
    """Encode ``tree``; return (literal, value under ``env``)."""
    kind = tree[0]
    if kind == "var":
        return names[tree[1]], env[tree[1]]
    if kind == "const":
        return (blaster.true_lit if tree[1] else blaster.false_lit), tree[1]
    if kind == "not":
        lit, value = _build(blaster, names, tree[1], env)
        return -lit, not value
    if kind in _GATES:
        gate, semantics = _GATES[kind]
        (a, av), (b, bv) = (_build(blaster, names, t, env) for t in tree[1:])
        return gate(blaster, a, b), semantics(av, bv)
    if kind == "maj":
        built = [_build(blaster, names, t, env) for t in tree[1:]]
        lits = [lit for lit, _ in built]
        return blaster.gate_majority(*lits), sum(v for _, v in built) >= 2
    # "same" / "opposite": op(t, t) or op(t, ¬t), with u as maj's third input
    op, t, u = tree[1:]
    a, av = _build(blaster, names, t, env)
    b, bv = (a, av) if kind == "same" else (-a, not av)
    if op == "maj":
        c, cv = _build(blaster, names, u, env)
        return blaster.gate_majority(a, b, c), av + bv + cv >= 2
    gate, semantics = _GATES[op]
    return gate(blaster, a, b), semantics(av, bv)


@pytest.mark.parametrize("backend", ["fast", "legacy"])
def test_folded_gates_force_the_python_value(backend):
    @settings(max_examples=60, deadline=None)
    @given(_gate_trees())
    def check(tree):
        for values in itertools.product([False, True], repeat=_N_VARS):
            blaster = BitBlaster()
            names = [blaster.fresh() for _ in range(_N_VARS)]
            out, expected = _build(blaster, names, tree, values)
            units = [[n if v else -n] for n, v in zip(names, values)]
            forced = out if expected else -out
            base = blaster.clauses + units
            assert solve(base + [[forced]], backend=backend).sat
            assert not solve(base + [[-forced]], backend=backend).sat

    check()
