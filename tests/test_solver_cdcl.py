"""Property tests for the CDCL SAT core.

The three guarantees worth pinning:

* **models** — every SAT answer comes with an assignment satisfying
  the whole CNF;
* **learning** — every learnt clause is a logical consequence of the
  input formula (refuting its negation under the reference DPLL);
* **agreement** — verdicts match the reference DPLL on random ≤20-var
  instances, and assumption-based solving matches solving with the
  assumptions added as unit clauses.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.solvers.cdcl import CDCL, luby
from repro.solvers.reference import dpll_solve
from repro.solvers.sat import IncrementalSatSolver, solve


def random_cnf(rng, n_vars, n_clauses, width=3):
    cnf = []
    for _ in range(n_clauses):
        size = rng.randint(1, width)
        variables = rng.sample(range(1, n_vars + 1), min(size, n_vars))
        cnf.append([v if rng.random() < 0.5 else -v for v in variables])
    return cnf


def ref_verdict(cnf):
    sat, _model, _conflicts = dpll_solve(cnf)
    return sat


def satisfies(cnf, model):
    return all(
        any(model.get(abs(lit), False) == (lit > 0) for lit in clause)
        for clause in cnf
    )


def cnf_strategy(max_vars=8, max_clauses=16):
    lit = st.integers(min_value=1, max_value=max_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )
    clause = st.lists(lit, min_size=1, max_size=3)
    return st.lists(clause, min_size=1, max_size=max_clauses)


class TestModels:
    @settings(max_examples=200, deadline=None)
    @given(cnf_strategy())
    def test_sat_models_satisfy_cnf(self, cnf):
        engine = CDCL()
        engine.add_clauses(cnf)
        sat, model = engine.solve()
        if sat:
            assert satisfies(cnf, model)

    @settings(max_examples=100, deadline=None)
    @given(cnf_strategy())
    def test_facade_solve_matches_engine(self, cnf):
        result = solve(cnf, backend="fast")
        sat = ref_verdict(cnf)
        assert result.sat == sat
        if result.sat:
            assert satisfies(cnf, result.model)


class TestLearning:
    def test_learnt_clauses_are_implied(self):
        rng = random.Random(2024)
        checked = 0
        for _ in range(30):
            # strict 3-SAT near the phase transition: forces conflicts
            cnf = [
                [v if rng.random() < 0.5 else -v
                 for v in rng.sample(range(1, 13), 3)]
                for _ in range(52)
            ]
            engine = CDCL()
            engine.add_clauses(cnf)
            engine.solve()
            for learnt in engine._learnts[:10]:
                # CNF ∧ ¬learnt must be UNSAT if the clause is implied
                refute = [list(cl) for cl in cnf]
                refute.extend([[-lit] for lit in learnt])
                assert not ref_verdict(refute), f"learnt clause {learnt} not implied"
                checked += 1
        assert checked > 0, "no learnt clauses exercised — weaken the inputs"

    def test_restarts_preserve_verdict(self):
        # pigeonhole forces many conflicts, hence Luby restarts
        holes = 5
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        cnf = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.append([-var(p1, h), -var(p2, h)])
        engine = CDCL()
        engine.add_clauses(cnf)
        sat, _ = engine.solve()
        assert not sat
        assert engine.conflicts > 0

    def test_luby_sequence_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestAgreement:
    @settings(max_examples=150, deadline=None)
    @given(cnf_strategy(max_vars=8, max_clauses=20))
    def test_verdict_matches_dpll_small(self, cnf):
        ref_sat = ref_verdict(cnf)
        engine = CDCL()
        engine.add_clauses(cnf)
        sat, _ = engine.solve()
        assert sat == ref_sat

    def test_verdict_matches_dpll_20var(self):
        rng = random.Random(77)
        for _ in range(40):
            cnf = random_cnf(rng, 20, rng.randint(30, 85))
            ref_sat = ref_verdict(cnf)
            engine = CDCL()
            engine.add_clauses(cnf)
            sat, _ = engine.solve()
            assert sat == ref_sat

    def test_assumptions_match_units(self):
        rng = random.Random(9)
        for _ in range(60):
            cnf = random_cnf(rng, 10, 30)
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, 11), 3)
            ]
            engine = CDCL()
            engine.add_clauses(cnf)
            sat_assumed, model = engine.solve(assumptions=assumptions)
            ref_sat = ref_verdict(cnf + [[lit] for lit in assumptions])
            assert sat_assumed == ref_sat
            if sat_assumed:
                assert satisfies(cnf, model)
                for lit in assumptions:
                    assert model.get(abs(lit)) == (lit > 0)

    def test_assumptions_do_not_persist(self):
        engine = CDCL()
        engine.add_clauses([[1, 2], [-1, 2]])
        sat, _ = engine.solve(assumptions=[-2])
        assert not sat
        sat, model = engine.solve()
        assert sat and model[2] is True


class TestIncrementalFacade:
    @pytest.mark.parametrize("backend", ["fast", "legacy"])
    def test_assumptions_match_fresh_solves(self, backend):
        rng = random.Random(5)
        for _ in range(25):
            base = random_cnf(rng, 9, 18)
            inc = IncrementalSatSolver(backend=backend)
            inc.add_clauses(base)
            baseline = inc.check_sat()
            for _ in range(3):
                assumed = [
                    v if rng.random() < 0.5 else -v
                    for v in rng.sample(range(1, 10), rng.randint(1, 4))
                ]
                units = [[lit] for lit in assumed]
                assert inc.check_sat(assumed) == ref_verdict(base + units)
            assert baseline == ref_verdict(base)
            assert inc.check_sat() == baseline  # assumptions never persist

    @pytest.mark.parametrize("backend", ["fast", "legacy"])
    def test_clauses_added_after_an_assumption_query(self, backend):
        # clauses learned under an assumption must not corrupt later
        # answers, with or without assumptions, as clauses keep coming
        inc = IncrementalSatSolver(backend=backend)
        inc.add_clause([1, 2])
        assert inc.check_sat([-1, -2]) is False
        assert inc.check_sat() is True
        inc.add_clause([-1, 3])
        assert inc.check_sat([-2, -3]) is False
        assert inc.check_sat([-2]) is True
        assert inc.check_sat() is True

    def test_resource_budget_raises(self):
        holes = 7
        pigeons = holes + 1
        var = lambda p, h: p * holes + h + 1
        cnf = [[var(p, h) for h in range(holes)] for p in range(pigeons)]
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.append([-var(p1, h), -var(p2, h)])
        engine = CDCL()
        engine.add_clauses(cnf)
        with pytest.raises(ResourceWarning):
            engine.solve(max_conflicts=5)
