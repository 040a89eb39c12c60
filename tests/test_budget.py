"""Unit tests for request budgets (repro/budget.py) and their kernel hooks.

The budget is the cancellation seam: a deadline or an explicit cancel
must abort the engine mid-proof (saturate worklist, prover frame loop,
simplex pivots, CDCL search) via a structured retryable exception,
and the engine must stay consistent afterwards.
"""

import threading
import time

import pytest

from repro.budget import (
    Budget,
    CancelledError,
    DeadlineExceeded,
    JobCancelled,
    activate,
    current_budget,
)
from repro.checker.check import Checker
from repro.checker.errors import CheckError
from repro.logic.prove import Logic
from repro.syntax.parser import parse_program

THEORY_HEAVY = """
(: clamp : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (clamp x y) (if (> x y) x y))
(define a (clamp 3 7))
"""


class TestBudget:
    def test_no_deadline_never_expires(self):
        budget = Budget()
        for _ in range(10_000):
            budget.tick()
        budget.check()  # no raise

    def test_expired_deadline_raises_on_check(self):
        budget = Budget(deadline_ms=0.01)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded) as info:
            budget.check()
        assert info.value.code == "deadline_exceeded"
        assert info.value.retryable is True

    def test_tick_is_stride_amortised(self):
        budget = Budget(deadline_ms=0.01, stride=256)
        time.sleep(0.005)
        # the first (stride - 1) ticks are credit decrements only
        for _ in range(255):
            budget.tick()
        with pytest.raises(DeadlineExceeded):
            budget.tick()  # 256th tick performs the real check

    def test_cancel_raises_job_cancelled(self):
        budget = Budget()
        budget.cancel("watchdog: test")
        with pytest.raises(JobCancelled) as info:
            budget.check()
        assert info.value.code == "cancelled"
        assert "watchdog" in str(info.value)

    def test_cancel_wins_from_another_thread(self):
        budget = Budget()
        released = threading.Event()

        def spin():
            try:
                while True:
                    budget.tick()
                    time.sleep(0.001)
            except CancelledError:
                released.set()

        worker = threading.Thread(target=spin, daemon=True)
        worker.start()
        budget.cancel("stop")
        assert released.wait(timeout=5.0)

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError):
            Budget(deadline_ms=0)
        with pytest.raises(ValueError):
            Budget(deadline_ms=-5)
        with pytest.raises(ValueError):
            Budget(deadline_ms=True)
        for non_finite in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                Budget(deadline_ms=non_finite)

    def test_bound_stats_count_aborts(self):
        rule_hits = {}
        budget = Budget(deadline_ms=0.01)
        budget.bind_stats(rule_hits)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded):
            budget.check()
        assert rule_hits["budget.deadline-exceeded"] == 1


class TestActivation:
    def test_current_budget_defaults_to_none(self):
        assert current_budget() is None

    def test_activate_scopes_and_restores(self):
        outer, inner = Budget(), Budget()
        with activate(outer):
            assert current_budget() is outer
            with activate(inner):
                assert current_budget() is inner
            assert current_budget() is outer
        assert current_budget() is None

    def test_activation_is_thread_local(self):
        budget = Budget()
        seen = []

        def probe():
            seen.append(current_budget())

        with activate(budget):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen == [None]


class TestLogicBudgeted:
    def test_expired_budget_aborts_checking(self):
        checker = Checker(logic=Logic())
        program = parse_program(THEORY_HEAVY)
        budget = Budget(deadline_ms=0.01)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded):
            with checker.logic.budgeted(budget):
                checker.check_program(program)

    def test_engine_stays_consistent_after_abort(self):
        checker = Checker(logic=Logic())
        program = parse_program(THEORY_HEAVY)
        budget = Budget(deadline_ms=0.01)
        time.sleep(0.005)
        with pytest.raises(DeadlineExceeded):
            with checker.logic.budgeted(budget):
                checker.check_program(program)
        # the same engine, unbudgeted: the verdict is unaffected
        Checker(logic=checker.logic).check_program(parse_program(THEORY_HEAVY))

    def test_budgeted_none_is_a_no_op(self):
        logic = Logic()
        with logic.budgeted(None) as active:
            assert active is None
            assert logic.budget is None

    def test_abort_never_poisons_caches(self):
        # verdicts after an abort equal a fresh engine's: nothing
        # half-proved was memoised
        logic = Logic()
        checker = Checker(logic=logic)
        program = parse_program(THEORY_HEAVY)
        budget = Budget(deadline_ms=0.01)
        time.sleep(0.005)
        with pytest.raises(CancelledError):
            with logic.budgeted(budget):
                checker.check_program(program)
        warm = Checker(logic=logic).check_program(parse_program(THEORY_HEAVY))
        fresh = Checker(logic=Logic()).check_program(parse_program(THEORY_HEAVY))
        assert set(warm) == set(fresh)

    def test_ill_typed_still_rejected_under_budget(self):
        checker = Checker(logic=Logic())
        program = parse_program("(: f : Int -> Bool)\n(define (f x) x)")
        with checker.logic.budgeted(Budget(deadline_ms=60_000)):
            with pytest.raises(CheckError):
                checker.check_program(program)
