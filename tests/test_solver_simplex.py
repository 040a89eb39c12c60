"""Property tests for the incremental dual simplex core.

Three invariant families from the Dutertre–de Moura design:

* **tableau invariants** — β satisfies every row equation exactly
  (integer rows with per-row denominators, so the identity is
  ``den·β[basic] == Σ coeff·β[nonbasic]`` over exact rationals), and
  after a SAT check every variable sits inside its bounds;
* **push/pop** — retracting a frame restores the bounds maps exactly,
  and the goal-form LRU keeps the tableau from growing without bound
  over a stream of distinct goals;
* **agreement** — never less precise than the Fourier-Motzkin
  reference on random small systems, and strictly-more-precise
  verdicts are confirmed against a brute-force integer grid.
"""

import itertools
import random

from hypothesis import example, given, settings, strategies as st

from repro.solvers.linform import SAT, UNKNOWN, UNSAT, Constraint
from repro.solvers.reference import fm_entails, fm_satisfiable
from repro.solvers.simplex import GOAL_FORM_CACHE, Simplex


def c(coeffs, const):
    return Constraint.make(coeffs, const)


ATOMS = ["x", "y", "z"]


def constraints_strategy(max_cons=6):
    coeff = st.integers(min_value=-3, max_value=3)
    one = st.builds(
        lambda pairs, const: c(
            {a: v for a, v in zip(ATOMS, pairs) if v}, const
        ),
        st.tuples(coeff, coeff, coeff),
        st.integers(min_value=-8, max_value=8),
    )
    return st.lists(one, min_size=1, max_size=max_cons)


def ingest(sx, constraints):
    """Assert every constraint; False when a conflict was detected."""
    for con in constraints:
        con = con.normalized()
        if con.is_trivial():
            continue
        if con.is_contradiction() or not sx.assert_constraint(con):
            return False
    return True


def holds_at(con, point):
    total = con.const
    for atom, coeff in con.coeffs:
        total += coeff * point[atom]
    return total <= 0


def integer_point_exists(constraints, radius=12):
    grid = range(-radius, radius + 1)
    return any(
        all(holds_at(con, dict(zip(ATOMS, pt))) for con in constraints)
        for pt in itertools.product(grid, repeat=len(ATOMS))
    )


def assert_tableau_invariants(sx):
    # every row equation holds exactly under β
    for basic, row in sx._rows.items():
        lhs = sx._dens[basic] * sx._beta[basic]
        rhs = sum(num * sx._beta[var] for var, num in row.items())
        assert lhs == rhs, f"row of {basic} violated: {lhs} != {rhs}"
    # the column index mirrors the rows
    derived = {}
    for basic, row in sx._rows.items():
        for var in row:
            derived.setdefault(var, set()).add(basic)
    for var, basics in derived.items():
        assert basics <= sx._cols.get(var, set())
    for var, basics in sx._cols.items():
        assert basics <= derived.get(var, set()) | set()
    # no basic variable appears as a column of another row
    for basic in sx._rows:
        for other, row in sx._rows.items():
            assert basic not in row, f"basic {basic} in row of {other}"
    # row denominators are positive and GCD-reduced
    for basic, row in sx._rows.items():
        den = sx._dens[basic]
        assert den > 0
        g = den
        for num in row.values():
            g = __import__("math").gcd(g, num)
        assert g == 1 or not row


class TestTableauInvariants:
    @settings(max_examples=150, deadline=None)
    @given(constraints_strategy())
    def test_rows_hold_under_beta_after_check(self, constraints):
        sx = Simplex()
        if not ingest(sx, constraints):
            return
        verdict = sx.check_integer()
        assert_tableau_invariants(sx)
        if verdict == SAT:
            # after SAT every variable respects its bounds
            for var, bound in sx._lower.items():
                assert sx._beta[var] >= bound
            for var, bound in sx._upper.items():
                assert sx._beta[var] <= bound

    @settings(max_examples=100, deadline=None)
    @given(constraints_strategy(), constraints_strategy(max_cons=3))
    def test_invariants_survive_goal_streams(self, base, goals):
        sx = Simplex()
        if not ingest(sx, base):
            return
        sx.check_integer()
        for goal in goals:
            sx.entails(goal)
            assert_tableau_invariants(sx)


class TestPushPop:
    @settings(max_examples=100, deadline=None)
    @given(constraints_strategy(), constraints_strategy(max_cons=3))
    def test_pop_restores_bounds_exactly(self, base, extra):
        sx = Simplex()
        if not ingest(sx, base):
            return
        sx.check_integer()
        lower_before = dict(sx._lower)
        upper_before = dict(sx._upper)
        conflict_before = sx.in_conflict
        sx.push()
        ingest(sx, extra)
        sx.check_integer()
        sx.pop()
        assert sx._lower == lower_before
        assert sx._upper == upper_before
        assert sx.in_conflict == conflict_before
        assert_tableau_invariants(sx)

    def test_pop_without_push_raises(self):
        try:
            Simplex().pop()
        except IndexError:
            pass
        else:
            raise AssertionError("pop on level 0 must raise")

    def test_verdicts_repeat_after_pop(self):
        # the same query answered before and after an unrelated
        # push/pop bracket must not change
        sx = Simplex()
        assert ingest(sx, [c({"x": 1, "y": -1}, 0), c({"y": 1}, -9)])
        goal = c({"x": 1}, -9)
        first = sx.entails(goal)
        sx.push()
        assert sx.assert_constraint(c({"x": -1}, 3).normalized())
        sx.check_integer()
        sx.pop()
        assert sx.entails(goal) == first is True

    def test_goal_form_cache_bounds_tableau(self):
        sx = Simplex()
        assert ingest(
            sx, [c({f"a{i}": 1, f"a{i+1}": -1}, 0) for i in range(6)]
        )
        assert sx.check_integer() == SAT
        base_rows = len(sx._rows)
        # 200 goals over distinct fresh forms — far beyond the LRU cap
        for k in range(200):
            sx.entails(c({f"a{k % 7}": 1, f"g{k}": 1}, -5))
        assert len(sx._rows) <= base_rows + GOAL_FORM_CACHE + 1
        assert_tableau_invariants(sx)


#: integer-infeasible with x and y unbounded: the rational solutions
#: force z = 1 and x − y = −2/3, so branching on x or y never closes
#: and the node budget runs out on a rational-only model
UNBOUNDED_BRANCHING = [
    c({"x": 1, "y": 1}, 0),
    c({"x": 2, "y": -2, "z": 3}, -2),
    c({"x": 3, "y": -3, "z": 1}, 1),
    c({"x": -3, "y": 3, "z": -2}, 0),
]


class TestAgreementWithFM:
    @settings(max_examples=200, deadline=None)
    @given(constraints_strategy())
    @example(UNBOUNDED_BRANCHING)
    @example(UNBOUNDED_BRANCHING + [c({"y": 1, "z": 1}, 0), c({"x": -1, "y": 2}, 0)])
    def test_satisfiability_agreement(self, constraints):
        fm = fm_satisfiable(constraints)
        sx = Simplex()
        verdict = UNSAT if not ingest(sx, constraints) else sx.check_integer()
        if fm == UNSAT:
            # FM refutations are integer-sound; simplex must refute too
            assert verdict == UNSAT
        elif fm == SAT and verdict == UNSAT:
            # simplex claims *integer* infeasibility beyond FM's
            # rational reasoning — confirm against the grid
            assert not integer_point_exists(constraints)

    def test_deep_branching_is_iterative_and_pops_every_frame(self):
        # 4096 nodes of branch-and-bound on unbounded atoms nest far
        # deeper than the default recursion limit
        sx = Simplex()
        assert ingest(sx, UNBOUNDED_BRANCHING)
        bounds = (dict(sx._lower), dict(sx._upper))
        assert sx.check_integer(max_nodes=4096) == UNSAT
        assert sx.branches == 4096
        assert len(sx._trail) == 1
        assert (sx._lower, sx._upper) == bounds

    @settings(max_examples=200, deadline=None)
    @given(
        constraints_strategy(),
        st.tuples(
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2),
        ),
        st.integers(min_value=-6, max_value=6),
    )
    def test_entailment_superset_of_fm(self, constraints, goal_coeffs, const):
        goal = c({a: v for a, v in zip(ATOMS, goal_coeffs) if v}, const)
        fm = fm_entails(constraints, goal)
        sx = Simplex()
        proved = True if not ingest(sx, constraints) else sx.entails(goal)
        if fm:
            assert proved, f"FM proved {goal} but simplex did not"
        if proved and not fm:
            # extra precision must still be semantically valid: no
            # integer model of Γ may violate the goal
            grid = range(-12, 13)
            for pt in itertools.product(grid, repeat=len(ATOMS)):
                point = dict(zip(ATOMS, pt))
                if all(holds_at(con, point) for con in constraints):
                    assert holds_at(goal, point), (
                        f"unsound entailment of {goal} at {point}"
                    )

    def test_unknown_budget_is_conservative(self):
        # starving the pivot budget must degrade to "not proved",
        # never to a wrong refutation
        chain = [c({f"v{i}": 1, f"v{i+1}": -1}, 1) for i in range(10)]
        sx = Simplex()
        assert ingest(sx, chain)
        assert sx.check(max_pivots=0) in (SAT, UNKNOWN)


class TestCloneIsolation:
    def test_counters_cumulative_and_copied(self):
        sx = Simplex()
        assert ingest(sx, [c({"x": 1, "y": -1}, 0), c({"y": 1}, -5)])
        sx.entails(c({"x": 1}, -5))
        snapshot = sx.counters()
        assert set(snapshot) == {
            "simplex.pivots",
            "simplex.checks",
            "simplex.branches",
        }
        sx.entails(c({"x": 1}, -4))
        assert sx.counters()["simplex.checks"] > snapshot["simplex.checks"]
