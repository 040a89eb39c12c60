"""End-to-end tests for the persistent checking service.

The acceptance properties of the daemon, pinned over real sockets:

* **Verdict equality** — a warm daemon answers repeated ``check``
  requests with verdicts identical to one-shot sequential checking
  over a pinned corpus slice (the same generator seed the batch
  benchmarks use).
* **Session isolation** — two concurrent connections cannot observe
  each other's definitions, and a session's cached module verdicts
  are scoped to that session.
* **Epoch discipline** — ``reset`` produces a genuinely cold re-check
  (no session-level replay), observable through the per-request stats
  deltas every response carries.
"""

import threading
import time

import pytest

from repro.batch import check_many
from repro.fuzz.gen import generate_program
from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig, ServerError

CORPUS_SEED = 2016
CORPUS_SLICE = 6

GOOD = """
(: max : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (max x y) (if (> x y) x y))
"""

BAD = """
(: f : Int -> Bool)
(define (f x) x)
"""


@pytest.fixture(scope="module")
def corpus_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("server-corpus")
    paths = []
    for index in range(CORPUS_SLICE):
        path = root / f"prog{index:03}.rkt"
        path.write_text(generate_program(CORPUS_SEED, index).source)
        paths.append(str(path))
    return paths


@pytest.fixture()
def server(tmp_path):
    daemon = CheckingServer(
        ServerConfig(socket_path=str(tmp_path / "repro.sock")),
        logic=Logic(),  # a private engine: tests stay order-independent
    )
    daemon.start()
    yield daemon
    daemon.stop()


@pytest.fixture()
def client(server):
    with Client(socket_path=server.config.socket_path) as connected:
        yield connected


def _connect(server):
    return Client(socket_path=server.config.socket_path)


class TestVerdictEquality:
    def test_warm_daemon_matches_one_shot_checking(self, server, client, corpus_paths):
        reference = check_many(corpus_paths, jobs=1, logic=Logic())
        expected = [(v.path, v.ok, v.error) for v in reference.verdicts]
        # repeated rounds: the engine only gets warmer, verdicts must not move
        for _round in range(2):
            response = client.try_check(corpus_paths)
            got = [(v["path"], v["ok"], v["error"]) for v in response["verdicts"]]
            assert got == expected

    def test_per_file_requests_match_batch_request(self, server, client, corpus_paths):
        batch = client.try_check(corpus_paths)["verdicts"]
        singles = [client.try_check([p])["verdicts"][0] for p in corpus_paths]
        assert [(v["path"], v["ok"], v["error"]) for v in batch] == [
            (v["path"], v["ok"], v["error"]) for v in singles
        ]


class TestSessions:
    def test_check_text_incremental_recheck(self, client):
        first = client.check_text("mod", GOOD)
        assert first["ok"] and not first["cached"]
        assert first["stats"]["prove_calls"] > 0
        again = client.check_text("mod", GOOD)
        assert again["ok"] and again["cached"]
        # the unchanged re-check never touched the engine
        assert again["stats"]["prove_calls"] == 0
        edited = client.check_text("mod", GOOD + "\n(max 1 2)\n")
        assert edited["ok"] and not edited["cached"]

    def test_ill_typed_module_reports_error(self, client):
        response = client.check_text("bad", BAD)
        assert not response["ok"]
        assert response["code"] == "check-error"
        assert "Type Checker error" in response["error"]

    def test_eval_accumulates_scope(self, client):
        assert client.eval("(define (dbl x) (* 2 x))") == []
        assert client.eval("(dbl 21)") == ["42"]

    def test_eval_errors_leave_scope_intact(self, client):
        client.eval("(define (dbl x) (* 2 x))")
        with pytest.raises(ServerError, match="check-error"):
            client.eval("(dbl #t)")
        assert client.eval("(dbl 3)") == ["6"]

    def test_sessions_cannot_see_each_other(self, server):
        with _connect(server) as alice, _connect(server) as bob:
            alice.eval("(define secret 7)")
            with pytest.raises(ServerError):
                bob.eval("secret")
            # and Bob's own scope still works
            bob.eval("(define secret 99)")
            assert bob.eval("secret") == ["99"]
            assert alice.eval("secret") == ["7"]

    def test_module_store_is_session_scoped(self, server):
        with _connect(server) as alice, _connect(server) as bob:
            assert not alice.check_text("m", GOOD)["cached"]
            # same name, same text, different session: not *session*-cached
            assert not bob.check_text("m", GOOD)["cached"]
            assert alice.check_text("m", GOOD)["cached"]

    def test_concurrent_sessions_interleaved(self, server, corpus_paths):
        outcomes = {}

        def hammer(tag):
            with _connect(server) as connected:
                connected.eval(f"(define mine{tag} {tag})")
                response = connected.try_check(corpus_paths)
                values = connected.eval(f"mine{tag}")
                outcomes[tag] = (
                    [(v["path"], v["ok"]) for v in response["verdicts"]],
                    values,
                )

        threads = [
            threading.Thread(target=hammer, args=(tag,)) for tag in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        verdicts = {tag: outcomes[tag][0] for tag in outcomes}
        assert len(outcomes) == 4
        assert all(verdicts[tag] == verdicts[0] for tag in verdicts)
        assert all(outcomes[tag][1] == [str(tag)] for tag in outcomes)


class TestEpochAndStats:
    def test_reset_forces_cold_recheck(self, client):
        client.check_text("mod", GOOD)
        cached = client.check_text("mod", GOOD)
        assert cached["cached"]
        reset = client.reset()
        assert reset["epoch"] >= 1
        cold = client.check_text("mod", GOOD)
        assert not cold["cached"]
        assert cold["ok"]
        assert cold["stats"]["prove_calls"] > 0  # really re-proved

    def test_daemon_never_replaces_the_engine_dispatch(self, tmp_path):
        engine = Logic()
        original = engine.dispatch
        daemon = CheckingServer(
            ServerConfig(socket_path=str(tmp_path / "rd.sock")), logic=engine
        )
        assert engine.dispatch is original
        daemon.start()
        try:
            with _connect(daemon) as connected:
                assert connected.check_text("m", GOOD)["ok"]
            assert engine.dispatch is original
        finally:
            daemon.stop()
        assert engine.dispatch is original

    def test_stats_reports_engine_and_server_state(self, client, corpus_paths):
        client.try_check(corpus_paths[:2])
        snapshot = client.stats()
        assert snapshot["protocol"] == 1
        assert snapshot["engine"]["prove_calls"] > 0
        assert snapshot["server"]["requests_total"] >= 1
        assert snapshot["session"]["requests"] >= 0

    def test_responses_carry_per_request_deltas(self, client):
        response = client.check_text("mod", GOOD)
        delta = response["stats"]
        assert delta["prove_calls"] > 0
        assert "theory_queries" in delta

    def test_warm_recheck_is_cheaper_than_cold(self, client, corpus_paths):
        path = corpus_paths[0]
        cold = client.try_check([path])["stats"]
        warm = client.try_check([path])["stats"]
        assert warm["prove_calls"] <= cold["prove_calls"]


class TestProtocolOverTheWire:
    def test_bad_request_answered_not_fatal(self, server, client):
        # hand-roll a bad request on the client's own stream
        client._stream.send({"op": "frobnicate"})
        response = client._stream.receive()
        assert not response["ok"]
        assert response["code"] == "bad-request"
        # the connection is still usable afterwards
        assert client.eval("(+ 1 1)") == ["2"]

    def test_shutdown_stops_the_server(self, server, client):
        response = client.shutdown()
        assert response["stopping"]
        server._stop.wait(timeout=5.0)
        assert server._stop.is_set()

    def test_tcp_transport(self, tmp_path, corpus_paths):
        daemon = CheckingServer(ServerConfig(port=0), logic=Logic())
        kind, (host, port) = daemon.start()
        assert kind == "tcp"
        try:
            with Client(host=host, port=port) as connected:
                response = connected.try_check(corpus_paths[:2])
                assert len(response["verdicts"]) == 2
        finally:
            daemon.stop()


class TestStopLatency:
    """RTR-006: stop() must not wait out a join timeout on the watcher.

    The shutdown-watcher thread blocks on ``_shutdown_requested``
    forever; before the fix, ``stop()`` never set that event, so every
    shutdown paid the full 5-second ``join`` timeout waiting on a
    thread that could not observe it (≈70s of pure teardown across
    this file alone).
    """

    def test_stop_completes_promptly(self, tmp_path):
        daemon = CheckingServer(
            ServerConfig(socket_path=str(tmp_path / "lat.sock")),
            logic=Logic(),
        )
        daemon.start()
        started = time.monotonic()
        daemon.stop()
        assert time.monotonic() - started < 2.0
