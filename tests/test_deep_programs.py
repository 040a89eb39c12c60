"""Deep-program regression tests: program depth must never exhaust the
Python stack.

The pre-kernel engine recursed per nesting level in four places —
macro expansion, let parsing, let synthesis and proposition
assimilation — so a ~500-level ``let``/``if`` tower died with
``RecursionError`` at the default interpreter limit.  The layered
kernel (worklist saturation, iterative and/or proving) plus the
spine-looping front end check these programs in O(1) stack.  The
reader recursed too, once per list level; it is a stack loop now, and
the front-end cases below go to 10,000 levels.

These tests run at whatever recursion limit the host interpreter has —
they must pass *without* raising it.
"""

import sys
from contextlib import contextmanager

import pytest

from repro.checker.check import Checker, check_program_text
from repro.checker.errors import CheckError
from repro.logic.env import Env
from repro.logic.prove import Logic
from repro.sexp.reader import read, read_all, read_many
from repro.syntax.ast import LetE
from repro.syntax.parser import parse_program

DEPTH = 500
#: nesting depth for the front end alone (reader and parser)
FRONT_END_DEPTH = 10_000


def deep_if_let(depth: int) -> str:
    """``(let ([x0 0]) (let ([x1 (if (int? x0) (+ x0 1) 0)]) ...))``.

    Every level contributes a binding, an occurrence-typing ``if`` on
    the previous binding, an alias and a disjunction — the full T-Let /
    T-If assimilation pipeline, ``depth`` levels deep.
    """
    lines = []
    prev = None
    for index in range(depth):
        rhs = "0" if prev is None else f"(if (int? {prev}) (+ {prev} 1) 0)"
        lines.append(f"(let ([x{index} {rhs}])")
        prev = f"x{index}"
    return "\n".join(lines) + f"\n{prev}" + ")" * depth


def deep_body(depth: int) -> str:
    """A single function whose body is a ``depth``-form sequence
    (lowers to a let1 spine through ``expand_body``)."""
    steps = "\n  ".join(f"(+ {index} 1)" for index in range(depth))
    return f"(: f : Int -> Int)\n(define (f n)\n  {steps}\n  n)"


class TestDeepNesting:
    def test_500_level_if_let_tower_checks(self):
        # Guard: the point is surviving at the *default* limit.  If a
        # test runner raised it, lower it back for this test.
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            types = check_program_text(deep_if_let(DEPTH))
        finally:
            sys.setrecursionlimit(limit)
        assert types == {}  # a bare expression: no definitions

    def test_deep_tower_types_precisely(self):
        # The tower's last binding is provably an Int: every level's
        # occurrence test refines the previous binding.
        source = deep_if_let(50)
        program = parse_program(source)
        checker = Checker(logic=Logic())
        checker.check_program(program)  # must not raise

    @pytest.mark.slow
    def test_500_form_body_checks(self):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            types = check_program_text(deep_body(DEPTH))
        finally:
            sys.setrecursionlimit(limit)
        assert "f" in types

    def test_deep_program_is_rejected_precisely(self):
        # Depth must not cost precision: an ill-typed leaf at the
        # bottom of a deep tower is still caught.
        source = deep_if_let(200)
        bad = source.replace("\nx199", '\n(+ x199 "oops")')
        with pytest.raises(CheckError):
            check_program_text(bad)

    def test_deep_goal_with_persistent_cache_attached(self, tmp_path):
        # The cache keys goals by content digest (built from reprs);
        # digesting a deep goal must not recurse either.
        from repro.batch import ProofCache, logic_config_key
        from repro.tr.objects import Var
        from repro.tr.props import And, IsType, Or
        from repro.tr.types import INT

        logic = Logic()
        cache = ProofCache(str(tmp_path), logic_config_key(logic))
        logic.attach_persistent_cache(cache)
        x = Var("x")
        env = logic.extend(Env(), IsType(x, INT))
        atom = IsType(x, INT)
        goal = atom
        for _ in range(1500):
            goal = And((atom, Or((goal, atom))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert logic.proves(env, goal)
        finally:
            sys.setrecursionlimit(limit)
        assert cache.delta()  # the verdict was recorded under its digest

    def test_shared_subtrees_prime_in_linear_time(self):
        # A tower of PairObj(t, t) has 2^n paths but n nodes; priming
        # (and therefore proving) must be O(nodes).
        from repro.tr.objects import PairObj, Var
        from repro.tr.props import IsType
        from repro.tr.types import TOP

        tower = Var("x")
        for _ in range(200):
            tower = PairObj(tower, tower)
        logic = Logic()
        assert logic.proves(Env(), IsType(tower, TOP))

    def test_deep_conjunction_goal_is_walked_not_abandoned(self):
        # A goal whose and/or structure is far deeper than the old
        # per-prop fuel (max_depth=64) could explore, and far deeper
        # than the Python stack allows recursively: the kernel's
        # frame machine walks it and proves every atom.
        from repro.tr.objects import Var
        from repro.tr.props import And, IsType, Or
        from repro.tr.types import INT

        logic = Logic()
        x = Var("x")
        env = logic.extend(Env(), IsType(x, INT))
        atom = IsType(x, INT)
        goal = atom
        for _ in range(1500):
            goal = And((atom, Or((goal, atom))))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert logic.proves(env, goal)
        finally:
            sys.setrecursionlimit(limit)

    @pytest.mark.slow
    def test_theory_query_at_the_tip_of_a_deep_extension_chain(self):
        # A theory session is built from the environment's own [[Γ]]_T,
        # never by walking the chain of environments it was extended
        # from, so a 600-step chain costs no Python frame per step.
        from repro.tr.objects import Var
        from repro.tr.props import lin_le

        logic = Logic()
        xs = [Var(f"x{index}") for index in range(601)]
        chain = [Env()]
        for index in range(600):
            chain.append(logic.extend(chain[-1], lin_le(xs[index], xs[index + 1])))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            assert logic.proves(chain[-1], lin_le(xs[0], xs[600]))
        finally:
            sys.setrecursionlimit(limit)


@contextmanager
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def nested_lists(depth: int) -> str:
    return "(" * depth + "x" + ")" * depth


def list_depth(datum) -> int:
    depth = 0
    while isinstance(datum, list):
        assert len(datum) == 1
        datum = datum[0]
        depth += 1
    return depth


def let_tower(depth: int) -> str:
    """``(let ([x0 0]) (let ([x1 (+ x0 1)]) ... x{depth-1}))``."""
    lines = ["(let ([x0 0])"] + [
        f"(let ([x{index} (+ x{index - 1} 1)])" for index in range(1, depth)
    ]
    return "\n".join(lines) + f"\nx{depth - 1}" + ")" * depth


class TestDeepFrontEnd:
    """The reader and the parser hold no Python frame per nesting level."""

    def test_read_10000_levels(self):
        with default_recursion_limit():
            datum = read(nested_lists(FRONT_END_DEPTH))
        assert list_depth(datum) == FRONT_END_DEPTH

    def test_read_many_10000_levels(self):
        text = nested_lists(FRONT_END_DEPTH) + " 'y " + nested_lists(FRONT_END_DEPTH)
        with default_recursion_limit():
            data = list(read_many(text))
        assert len(data) == 3
        assert [list_depth(data[0]), list_depth(data[2])] == [FRONT_END_DEPTH] * 2

    def test_read_all_10000_levels(self):
        text = nested_lists(FRONT_END_DEPTH) + "\n; done\n" + nested_lists(FRONT_END_DEPTH)
        with default_recursion_limit():
            data = read_all(text)
        assert [list_depth(datum) for datum in data] == [FRONT_END_DEPTH] * 2

    def test_parse_10000_level_let_tower(self):
        with default_recursion_limit():
            program = parse_program(let_tower(FRONT_END_DEPTH))
        (expr,) = program.body
        depth = 0
        while isinstance(expr, LetE):
            depth += 1
            expr = expr.body
        assert depth == FRONT_END_DEPTH
