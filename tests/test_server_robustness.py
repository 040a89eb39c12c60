"""Robustness tests for the checking daemon (repro/server/daemon.py).

Deadlines abort mid-proof with a structured retryable error; the
bounded queue sheds load instead of queueing unboundedly; the watchdog
cancels hung requests and a dead engine lane is re-forked; and
``stop()`` wakes every blocked connection immediately — no 0.5s
polling.

Lanes are processes forked from the engine handed to the server, so
faults are injected into that engine *before* ``start()``.
"""

import multiprocessing
import threading
import time

import pytest

from repro.budget import Budget, JobCancelled, current_budget
from repro.chaos.faults import ChaosDispatch
from repro.logic.env import Env
from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig, ServerError
from repro.tr.objects import Var, obj_int
from repro.tr.props import lin_le

THEORY_HEAVY = """
(: clamp : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (clamp x y) (if (> x y) x y))
(define a (clamp 3 7))
"""

SIMPLE = "(define x 1)"


def _server(tmp_path, logic=None, **overrides):
    settings = dict(
        socket_path=str(tmp_path / "robust.sock"),
        hang_seconds=0.0,  # tests opt in explicitly
    )
    settings.update(overrides)
    daemon = CheckingServer(ServerConfig(**settings), logic=logic or Logic())
    daemon.start()
    return daemon


def _chaos_logic(**chaos):
    """A fresh engine whose theory dispatch stalls as ``chaos`` says."""
    logic = Logic()
    logic.dispatch = ChaosDispatch(logic.dispatch, **chaos)
    return logic


class _CancelAtDispatch:
    """Cancels the running job's budget on entry, then delegates."""

    def __init__(self, inner, consults):
        self.inner = inner
        self.consults = consults

    def _cancel(self):
        with self.consults.get_lock():
            self.consults.value += 1
        current_budget().cancel("test")

    def decide_one(self, env, goal):
        self._cancel()
        return self.inner.decide_one(env, goal)


def _connect(daemon, **kwargs):
    return Client(socket_path=daemon.config.socket_path, **kwargs)


def _module_files(tmp_path, source, count):
    paths = []
    for index in range(count):
        path = tmp_path / f"m{index}.rkt"
        path.write_text(source)
        paths.append(str(path))
    return paths


class TestDeadlines:
    def test_deadline_exceeded_is_structured_and_prompt(self, tmp_path):
        daemon = _server(tmp_path, _chaos_logic(hang=True, max_faults=1))
        try:
            with _connect(daemon) as client:
                started = time.monotonic()
                with pytest.raises(ServerError) as info:
                    client.request(
                        "check_text", name="slow", text=THEORY_HEAVY,
                        deadline_ms=300,
                    )
                elapsed = time.monotonic() - started
                assert info.value.code == "deadline_exceeded"
                assert info.value.retryable is True
                assert elapsed < 5.0  # deadline + scheduling slack
                # the lane stays warm: the very next request succeeds
                assert client.check_text("after", THEORY_HEAVY)["ok"]
            assert daemon.robustness["deadline_exceeded"] == 1
        finally:
            daemon.stop()

    def test_pre_expired_deadline_never_reaches_engine(self, tmp_path):
        paths = []
        for name in ("a.rkt", "b.rkt"):
            path = tmp_path / name
            path.write_text(SIMPLE)
            paths.append(str(path))
        daemon = _server(tmp_path, default_deadline_ms=None)
        try:
            with _connect(daemon) as client:
                with pytest.raises(ServerError) as info:
                    client.request(
                        "check_text", name="tiny", text=SIMPLE,
                        deadline_ms=0.0001,
                    )
                assert info.value.code == "deadline_exceeded"
                assert client.check_text("ok", SIMPLE)["ok"]
                # a multi-file check expires while queued the same way
                with pytest.raises(ServerError) as info:
                    client.request("check", paths=paths, deadline_ms=0.0001)
                assert info.value.code == "deadline_exceeded"
        finally:
            daemon.stop()

    def test_multi_file_check_deadline_expires_mid_check(self, tmp_path):
        # every theory consultation stalls 0.1s, so the 250ms deadline
        # runs out part-way through the batch, on one lane of two
        paths = _module_files(tmp_path, THEORY_HEAVY, count=4)
        daemon = _server(
            tmp_path, _chaos_logic(delay_seconds=0.1, max_faults=3), lanes=2
        )
        try:
            with _connect(daemon) as client:
                started = time.monotonic()
                with pytest.raises(ServerError) as info:
                    client.request("check", paths=paths, deadline_ms=250)
                assert info.value.code == "deadline_exceeded"
                assert info.value.retryable is True
                assert time.monotonic() - started < 5.0
                # the lane stays warm: the same batch then checks in full
                response = client.try_check(paths)
                assert [v["ok"] for v in response["verdicts"]] == [True] * 4
            assert daemon.robustness["deadline_exceeded"] == 1
        finally:
            daemon.stop()

    def test_bad_default_deadline_is_refused_at_startup(self, tmp_path, capsys):
        from repro.__main__ import main

        for bad in (0, -5.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="default_deadline_ms"):
                CheckingServer(ServerConfig(default_deadline_ms=bad))
        socket_path = tmp_path / "never.sock"
        for bad in ("0", "-1", "nan", "inf"):
            status = main([
                "serve", "--socket", str(socket_path),
                "--default-deadline-ms", bad,
            ])
            assert status == 1
            assert "default_deadline_ms" in capsys.readouterr().err
            assert not socket_path.exists()  # refused before binding

    def test_server_default_deadline_applies(self, tmp_path):
        daemon = _server(
            tmp_path, _chaos_logic(hang=True, max_faults=1),
            default_deadline_ms=250.0,
        )
        try:
            with _connect(daemon) as client:
                with pytest.raises(ServerError) as info:
                    client.check_text("slow", THEORY_HEAVY)
                assert info.value.code == "deadline_exceeded"
        finally:
            daemon.stop()

    def test_dispatch_checks_the_budget_before_a_session(self, monkeypatch):
        # every lane runs a fork of one engine, so the dispatch boundary
        # is pinned on a bare engine
        logic = Logic()
        sessions = []
        monkeypatch.setattr(
            logic, "theory_session", lambda env: sessions.append(env)
        )
        budget = Budget()
        budget.cancel("test")
        with logic.budgeted(budget):
            with pytest.raises(JobCancelled):
                logic.dispatch.decide_one(Env(), lin_le(obj_int(0), Var("x")))
        assert sessions == []

    @pytest.mark.parametrize("lane_index", [0, -1])
    def test_lane_dispatch_checks_the_budget_before_a_session(
        self, tmp_path, monkeypatch, lane_index
    ):
        # the same boundary inside each forked lane: the job's budget is
        # cancelled as dispatch is entered, and no theory session may
        # open after that; the counters live in shared memory
        logic = Logic()
        consults = multiprocessing.Value("i", 0)
        late_sessions = multiprocessing.Value("i", 0)
        open_session = logic.theory_session

        def counting_session(env):
            budget = current_budget()
            if budget is not None and budget.cancelled:
                with late_sessions.get_lock():
                    late_sessions.value += 1
            return open_session(env)

        monkeypatch.setattr(logic, "theory_session", counting_session)
        logic.dispatch = _CancelAtDispatch(logic.dispatch, consults)
        daemon = _server(tmp_path, logic, lanes=2)
        try:
            lane = daemon.lanes[lane_index]
            affinity = next(
                key for key in (f"k{n}" for n in range(64))
                if CheckingServer.lane_index_for(key, 2) == lane.index
            )
            with _connect(daemon, affinity=affinity) as client:
                with pytest.raises(ServerError) as info:
                    client.check_text("heavy", THEORY_HEAVY)
                assert info.value.code == "cancelled"
            assert lane.requests_total == 1
            assert consults.value >= 1
            assert late_sessions.value == 0
        finally:
            daemon.stop()

    def test_bad_deadline_rejected_at_the_wire(self, tmp_path):
        daemon = _server(tmp_path)
        try:
            with _connect(daemon) as client:
                for bad in (0, -10, True, "soon"):
                    with pytest.raises(ServerError) as info:
                        client.request(
                            "check_text", name="m", text=SIMPLE,
                            deadline_ms=bad,
                        )
                    assert info.value.code == "bad-request"
                with pytest.raises(ServerError) as info:
                    client.request("stats", deadline_ms=100)
                assert info.value.code == "bad-request"
        finally:
            daemon.stop()


class TestBackpressure:
    def test_queue_overflow_sheds_with_retryable_error(self, tmp_path):
        daemon = _server(
            tmp_path, _chaos_logic(delay_seconds=0.4, max_faults=2),
            max_queue_depth=1,
        )
        try:
            outcomes = []
            lock = threading.Lock()

            def submit(worker):
                try:
                    with _connect(daemon) as client:
                        client.check_text(f"burst{worker}", THEORY_HEAVY)
                        outcome = ("ok", False)
                except ServerError as exc:
                    outcome = (exc.code, exc.retryable)
                with lock:
                    outcomes.append(outcome)

            threads = [
                threading.Thread(target=submit, args=(w,), daemon=True)
                for w in range(6)
            ]
            for thread in threads:
                thread.start()
                time.sleep(0.02)
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            shed = [o for o in outcomes if o[0] == "overloaded"]
            assert shed, f"queue cap never shed: {outcomes}"
            assert all(retryable for _, retryable in shed)
            assert any(code == "ok" for code, _ in outcomes)
            assert daemon.robustness["shed_overloaded"] >= len(shed)
        finally:
            daemon.stop()

    def test_shed_request_can_be_retried_to_success(self, tmp_path):
        daemon = _server(
            tmp_path, _chaos_logic(delay_seconds=0.3, max_faults=1),
            max_queue_depth=1,
        )
        try:
            def block():
                with _connect(daemon) as client:
                    client.check_text("bl", THEORY_HEAVY)

            blocker = threading.Thread(target=block, daemon=True)
            blocker.start()
            time.sleep(0.05)  # let the blocker occupy the lane
            with _connect(daemon, retries=8, backoff=0.05) as client:
                assert client.check_text("retried", SIMPLE)["ok"]
            blocker.join(timeout=30.0)
        finally:
            daemon.stop()


class TestWatchdog:
    def test_hung_request_is_cancelled(self, tmp_path):
        paths = _module_files(tmp_path, THEORY_HEAVY, count=3)
        daemon = _server(
            tmp_path, _chaos_logic(hang=True, max_faults=2), hang_seconds=0.5
        )
        try:
            with _connect(daemon) as client:
                with pytest.raises(ServerError) as info:
                    client.check_text("wedged", THEORY_HEAVY)
                assert info.value.code == "cancelled"
                assert info.value.retryable is True
                # a multi-file check hangs on its lane the same way
                with pytest.raises(ServerError) as info:
                    client.request("check", paths=paths)
                assert info.value.code == "cancelled"
                assert client.check_text("after", THEORY_HEAVY)["ok"]
                assert client.try_check(paths)["ok"]
            robustness = daemon.robustness
            assert robustness["watchdog_cancels"] == 2
            assert robustness["cancelled"] == robustness["watchdog_cancels"]
        finally:
            daemon.stop()

    def test_dead_lane_is_respawned(self, tmp_path):

        class LaneKiller:
            def __init__(self, inner):
                self.inner = inner
                # shared memory: the re-forked lane must see the kill
                self.killed = multiprocessing.Value("b", 0)

            def _fault(self):
                if not self.killed.value:
                    self.killed.value = 1
                    raise SystemExit("injected lane death")

            def decide_one(self, env, goal):
                self._fault()
                return self.inner.decide_one(env, goal)

        logic = Logic()
        logic.dispatch = LaneKiller(logic.dispatch)
        daemon = _server(tmp_path, logic)
        try:
            with _connect(daemon) as client:
                with pytest.raises(ServerError) as info:
                    client.check_text("killer", THEORY_HEAVY)
                assert "lane" in str(info.value)
                # the lane's driver re-forks it: service continues
                deadline = time.monotonic() + 5.0
                while not client.ping()["engine_alive"]:
                    assert time.monotonic() < deadline, "lane never respawned"
                    time.sleep(0.05)
                assert client.check_text("after", THEORY_HEAVY)["ok"]
            assert daemon.robustness["lane_restarts"] == 1
        finally:
            daemon.stop()


class TestStopWakesWaiters:
    def test_stop_releases_blocked_connections_immediately(self, tmp_path):
        daemon = _server(tmp_path, _chaos_logic(hang=True, max_faults=1))
        released = []

        def blocked():
            try:
                with _connect(daemon) as client:
                    client.check_text("wedge", THEORY_HEAVY)
            except (ServerError, OSError, Exception):
                pass
            released.append(time.monotonic())

        waiter = threading.Thread(target=blocked, daemon=True)
        waiter.start()
        time.sleep(0.3)  # the request is now wedged in the engine
        stopped_at = time.monotonic()
        daemon.stop()
        waiter.join(timeout=5.0)
        assert released, "blocked connection never released after stop()"
        assert released[0] - stopped_at < 3.0


class TestObservability:
    def test_ping_is_answered_off_lane(self, tmp_path):
        daemon = _server(tmp_path, _chaos_logic(hang=True, max_faults=1))
        try:
            def wedge():
                try:
                    with _connect(daemon, retries=0) as busy_client:
                        busy_client.request(
                            "check_text", name="w", text=THEORY_HEAVY,
                            deadline_ms=800,
                        )
                except ServerError:
                    pass  # deadline_exceeded: expected

            busy = threading.Thread(target=wedge, daemon=True)
            busy.start()
            time.sleep(0.2)  # the lane is wedged now
            with _connect(daemon) as client:
                started = time.monotonic()
                ping = client.ping()
                assert time.monotonic() - started < 0.5
                assert ping["ok"] and ping["engine_alive"]
            busy.join(timeout=30.0)
        finally:
            daemon.stop()

    def test_stats_expose_robustness_counters(self, tmp_path):
        daemon = _server(tmp_path)
        try:
            with _connect(daemon) as client:
                client.ping()
                stats = client.stats()["server"]
                assert stats["queue"]["max_depth"] == daemon.config.max_queue_depth
                robustness = stats["robustness"]
                for key in (
                    "deadline_exceeded", "cancelled", "shed_overloaded",
                    "watchdog_cancels", "lane_restarts", "pings",
                    "cache_shards_skipped",
                ):
                    assert key in robustness
                assert robustness["pings"] >= 1
        finally:
            daemon.stop()
