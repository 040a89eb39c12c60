"""EngineStats: mergeable across workers, picklable across processes."""

import pickle

from repro.logic.prove import EngineStats, Logic
from repro.checker.check import Checker
from repro.syntax.parser import parse_program

SOURCE = """
(: f : [x : Int] -> [y : Int #:where (>= y x)])
(define (f x) (if (> x 0) x 1))
(f 3)
"""


def _worked_stats(source: str = SOURCE) -> EngineStats:
    logic = Logic()
    Checker(logic=logic).check_program(parse_program(source))
    return logic.stats


def _conjunction_stats() -> EngineStats:
    """Stats from a workload that proves a conjunction of two theory
    atoms on top of a normal checker run."""
    from repro.logic.env import Env
    from repro.tr.objects import Var, obj_int
    from repro.tr.props import lin_le, make_and

    logic = Logic()
    Checker(logic=logic).check_program(parse_program(SOURCE))
    x = Var("x")
    env = logic.extend(Env(), lin_le(x, obj_int(5)))
    goal = make_and((lin_le(x, obj_int(6)), lin_le(x, obj_int(7))))
    assert logic.proves(env, goal)
    return logic.stats


class TestMerge:
    def test_counters_add(self):
        first = _worked_stats()
        second = _worked_stats()
        merged = EngineStats().merge(first).merge(second)
        assert merged.prove_calls == first.prove_calls + second.prove_calls
        assert merged.subtype_calls == first.subtype_calls + second.subtype_calls
        assert merged.theory_goals == first.theory_goals + second.theory_goals
        for name in set(first.theory_queries) | set(second.theory_queries):
            assert merged.theory_queries.get(name, 0) == (
                first.theory_queries.get(name, 0)
                + second.theory_queries.get(name, 0)
            )

    def test_merge_returns_self_for_chaining(self):
        stats = EngineStats()
        assert stats.merge(EngineStats()) is stats

    def test_aggregate_hit_rate_is_exact(self):
        # Rates must come out as total-hits / total-calls, not an
        # average of per-worker rates.
        left = EngineStats()
        left.prove_calls, left.prove_hits = 100, 100
        right = EngineStats()
        right.prove_calls, right.prove_hits = 300, 0
        merged = EngineStats().merge(left).merge(right)
        assert merged.prove_hit_rate == 25.0

    def test_merge_does_not_alias_theory_queries(self):
        donor = EngineStats()
        donor.theory_queries["linear-arithmetic"] = 5
        merged = EngineStats().merge(donor)
        merged.theory_queries["linear-arithmetic"] += 1
        assert donor.theory_queries["linear-arithmetic"] == 5


class TestCopyDeltaRoundTrip:
    """The daemon-lane / fork-worker accounting contract.

    A long-lived engine snapshots (``copy``) before a request and
    subtracts (``delta_from``) after; workers pickle their deltas to
    the parent, which merges them.  The round trip must reconstruct
    the totals exactly — including the dict-valued slots
    (``theory_queries``, ``solver_counters``).
    """

    def test_copy_then_delta_recovers_increment(self):
        stats = _worked_stats()
        baseline = stats.copy()
        logic2 = Logic()
        Checker(logic=logic2).check_program(parse_program(SOURCE))
        stats.merge(logic2.stats)
        delta = stats.delta_from(baseline)
        assert delta.as_dict() == logic2.stats.as_dict()

    def test_batches_and_solver_counters_survive_fork_merge(self):
        # simulate two fork workers: each works, pickles a delta,
        # and the parent merges — totals must be exact sums
        workers = [_conjunction_stats(), _worked_stats()]
        shipped = [pickle.loads(pickle.dumps(w)) for w in workers]
        merged = EngineStats()
        for delta in shipped:
            merged.merge(delta)
        assert merged.theory_goals == sum(w.theory_goals for w in workers)
        names = set()
        for w in workers:
            names |= set(w.solver_counters)
        for name in names:
            assert merged.solver_counters.get(name, 0) == sum(
                w.solver_counters.get(name, 0) for w in workers
            )

    def test_solver_counters_populated_by_fast_backend(self):
        stats = _conjunction_stats()
        # the refinement in SOURCE forces linear-arithmetic work, so
        # the fast core's counters must have flowed through the facade
        assert any(
            name.startswith(("simplex.", "cdcl.", "sat."))
            for name in stats.solver_counters
        ), stats.solver_counters

    def test_delta_from_drops_zero_dict_entries(self):
        stats = _worked_stats()
        delta = stats.delta_from(stats.copy())
        assert delta.solver_counters == {}
        assert delta.theory_queries == {}
        assert delta.theory_goals == 0

    def test_copy_does_not_alias_solver_counters(self):
        stats = _worked_stats()
        snapshot = stats.copy()
        for name in list(stats.solver_counters):
            stats.solver_counters[name] += 7
        delta = stats.delta_from(snapshot)
        assert all(count == 7 for count in delta.solver_counters.values())


class TestPickle:
    def test_roundtrip_preserves_every_counter(self):
        stats = _worked_stats()
        clone = pickle.loads(pickle.dumps(stats))
        assert clone.as_dict() == stats.as_dict()

    def test_roundtrip_across_protocols(self):
        stats = _worked_stats()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(stats, protocol))
            assert clone.as_dict() == stats.as_dict()

    def test_unpickled_stats_still_merge(self):
        stats = _worked_stats()
        clone = pickle.loads(pickle.dumps(stats))
        merged = EngineStats().merge(clone)
        assert merged.prove_calls == stats.prove_calls
