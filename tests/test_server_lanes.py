"""Differential lane-equivalence suite for the multi-lane daemon.

The multi-lane refactor is only allowed to buy concurrency, never to
change a single verdict: whatever lane a request lands on — and however
lanes interleave — the daemon must answer byte-for-byte what a fresh
in-process engine answers.  This file pins that contract over a slice
of the pinned seed-2016 fuzz corpus, three ways:

* sequentially, spread across every lane by per-program affinity keys,
  against both a ``lanes=1`` daemon and a fresh engine;
* under concurrent clients interleaving whole sessions on different
  lanes (each worker checks the corpus in its own shuffled order);
* across resets issued from a *different* lane than the one still
  serving (the epoch-convergence seam).

Run with ``REPRO_TEST_LANES=1`` to exercise the same suite over a
single-lane daemon (CI runs both).
"""

import hashlib
import json
import os
import random
import threading

import pytest

from repro.checker.check import Checker
from repro.checker.errors import CheckError
from repro.fuzz import generate_program
from repro.logic.prove import Logic
from repro.server import CheckingServer, Client, ServerConfig
from repro.sexp.reader import ReaderError
from repro.syntax.parser import ParseError, parse_program
from repro.tr.pretty import pretty_type

SEED = 2016
CORPUS = 16
LANES = max(1, int(os.environ.get("REPRO_TEST_LANES", "4")))


def _corpus():
    return [(f"m{i}", generate_program(SEED, i).source) for i in range(CORPUS)]


def _fresh_verdict(source):
    """What a brand-new engine says — the differential reference.

    Mirrors the daemon session's check path exactly: parse, check on a
    fresh engine, render types with the pretty-printer.
    """
    try:
        program = parse_program(source)
        types = Checker(logic=Logic()).check_program(program)
    except (ReaderError, ParseError, CheckError) as exc:
        return (False, str(exc), {})
    return (True, "", {n: pretty_type(t) for n, t in types.items()})


def _blob(name, ok, error, types):
    """The canonical byte encoding verdicts are compared under."""
    return json.dumps(
        {"name": name, "ok": ok, "error": error, "types": types},
        sort_keys=True,
    )


def _response_blob(name, response):
    return _blob(
        name,
        bool(response.get("ok")),
        response.get("error") or "",
        dict(response.get("types") or {}),
    )


def _start(tmp_path, tag, lanes, **overrides):
    daemon = CheckingServer(
        ServerConfig(
            socket_path=str(tmp_path / f"{tag}.sock"), lanes=lanes, **overrides
        ),
        logic=Logic(),
    )
    daemon.start()
    return daemon


def _keys_covering_all_lanes(lanes):
    """One affinity key per lane, derived from the daemon's own hash."""
    keys, attempt = {}, 0
    while len(keys) < lanes:
        key = f"lane-key-{attempt}"
        keys.setdefault(CheckingServer.lane_index_for(key, lanes), key)
        attempt += 1
    return keys


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def fresh(corpus):
    """``name → (ok, error, types)`` from a fresh engine per program."""
    return {name: _fresh_verdict(source) for name, source in corpus}


class TestDifferentialEquivalence:
    def test_multi_lane_equals_single_lane_equals_fresh_engine(
        self, tmp_path, corpus, fresh
    ):
        """The tentpole contract: verdicts are invariant in the lane count."""
        single = _start(tmp_path, "single", lanes=1)
        multi = _start(tmp_path, "multi", lanes=LANES)
        try:
            single_blobs, multi_blobs = {}, {}
            with Client(socket_path=single.config.socket_path) as client:
                for name, source in corpus:
                    single_blobs[name] = _response_blob(
                        name, client.check_text(name, source)
                    )
            lanes_hit = set()
            for index, (name, source) in enumerate(corpus):
                # one pinned connection per program: the corpus spreads
                # over every lane instead of warming just one
                with Client(
                    socket_path=multi.config.socket_path,
                    affinity=f"prog-{index}",
                ) as client:
                    response = client.check_text(name, source)
                    lanes_hit.add(response["lane"])
                    multi_blobs[name] = _response_blob(name, response)
        finally:
            multi.stop()
            single.stop()
        fresh_blobs = {name: _blob(name, *fresh[name]) for name, _ in corpus}
        assert single_blobs == fresh_blobs
        assert multi_blobs == fresh_blobs
        if LANES > 1:
            assert len(lanes_hit) > 1, "affinity spread never left one lane"

    def test_concurrent_clients_interleaving_sessions(
        self, tmp_path, corpus, fresh
    ):
        """Workers on different lanes, shuffled orders, identical verdicts."""
        daemon = _start(tmp_path, "concurrent", lanes=LANES)
        workers = max(4, LANES)
        failures = []

        def run(worker):
            rng = random.Random(f"{SEED}:{worker}")
            order = list(corpus)
            rng.shuffle(order)
            try:
                with Client(
                    socket_path=daemon.config.socket_path,
                    affinity=f"worker-{worker}",
                ) as client:
                    for name, source in order:
                        mod = f"{name}-w{worker}"
                        got = _response_blob(mod, client.check_text(mod, source))
                        want = _blob(mod, *fresh[name])
                        if got != want:
                            failures.append(
                                f"worker {worker}: {name} diverged:\n{got}\n{want}"
                            )
            except Exception as exc:  # surfaced below; never swallowed
                failures.append(f"worker {worker}: {type(exc).__name__}: {exc}")

        try:
            threads = [
                threading.Thread(target=run, args=(w,), daemon=True)
                for w in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=180.0)
            assert not any(t.is_alive() for t in threads), "a worker is stuck"
        finally:
            daemon.stop()
        assert not failures, failures[:3]


class TestRouting:
    def test_affinity_routes_to_the_hashed_lane_and_sticks(self, tmp_path, corpus):
        daemon = _start(tmp_path, "routing", lanes=LANES)
        name, source = corpus[0]
        try:
            keys = _keys_covering_all_lanes(LANES)
            assert sorted(keys) == list(range(LANES))
            for lane_index, key in keys.items():
                with Client(
                    socket_path=daemon.config.socket_path, affinity=key
                ) as client:
                    first = client.check_text(name, source)
                    again = client.check_text(name, source)
                    assert first["lane"] == lane_index
                    assert again["lane"] == lane_index
                    # same lane ⇒ same warm session store
                    assert again["cached"] is True
                # a reconnect with the same key lands on the same lane —
                # the hash is stable, not per-connection state
                with Client(
                    socket_path=daemon.config.socket_path, affinity=key
                ) as client:
                    assert client.check_text(name, source)["lane"] == lane_index
        finally:
            daemon.stop()

    def test_lane_index_for_is_stable(self):
        # pinned: the affinity hash must never drift (clients and
        # chaos scenarios both derive lane targets from it)
        expected = int(hashlib.sha256(b"alpha").hexdigest()[:8], 16) % 4
        assert CheckingServer.lane_index_for("alpha", 4) == expected

    def test_unpinned_connections_balance_over_lanes(self, tmp_path, corpus):
        if LANES == 1:
            pytest.skip("needs several lanes")
        daemon = _start(tmp_path, "balance", lanes=LANES)
        name, source = corpus[0]
        try:
            clients = [
                Client(socket_path=daemon.config.socket_path)
                for _ in range(LANES)
            ]
            try:
                lanes_hit = {
                    client.check_text(name, source)["lane"] for client in clients
                }
                # least-loaded routing: concurrent unpinned connections
                # spread instead of piling onto lane 0
                assert lanes_hit == set(range(LANES))
            finally:
                for client in clients:
                    client.close()
        finally:
            daemon.stop()


class TestResetConvergence:
    def test_reset_from_another_lane_reaches_every_lane(self, tmp_path, corpus):
        """The epoch seam: a reset on lane B must cold-start lane A too."""
        if LANES == 1:
            pytest.skip("needs several lanes")
        daemon = _start(tmp_path, "converge", lanes=LANES)
        name, source = corpus[0]
        keys = _keys_covering_all_lanes(LANES)
        try:
            with Client(
                socket_path=daemon.config.socket_path, affinity=keys[0]
            ) as warm, Client(
                socket_path=daemon.config.socket_path, affinity=keys[1]
            ) as resetter:
                first = warm.check_text(name, source)
                assert warm.check_text(name, source)["cached"] is True
                assert resetter.reset()["ok"] is True
                after = warm.check_text(name, source)
                # lane 0 synced lazily before serving: the session store
                # was dropped — a genuine cold re-check, same verdict
                assert after["cached"] is False
                assert _response_blob(name, after) == _response_blob(name, first)
        finally:
            daemon.stop()

    def test_reset_storm_across_lanes_never_yields_stale_verdicts(
        self, tmp_path, corpus, fresh
    ):
        daemon = _start(
            tmp_path, "storm", lanes=LANES, max_queue_depth=128
        )
        stop = threading.Event()
        errors = []

        def storm():
            try:
                with Client(
                    socket_path=daemon.config.socket_path, affinity="storm"
                ) as resetter:
                    while not stop.is_set():
                        resetter.reset()
            except Exception as exc:
                errors.append(f"storm: {type(exc).__name__}: {exc}")

        def check(worker):
            try:
                with Client(
                    socket_path=daemon.config.socket_path,
                    affinity=f"checker-{worker}",
                    retries=4,
                    jitter_seed=worker,
                ) as client:
                    for name, source in corpus[:8]:
                        got = _response_blob(name, client.check_text(name, source))
                        if got != _blob(name, *fresh[name]):
                            errors.append(f"worker {worker}: {name} went stale")
            except Exception as exc:
                errors.append(f"worker {worker}: {type(exc).__name__}: {exc}")

        storm_thread = threading.Thread(target=storm, daemon=True)
        checkers = [
            threading.Thread(target=check, args=(w,), daemon=True)
            for w in range(3)
        ]
        try:
            storm_thread.start()
            for thread in checkers:
                thread.start()
            for thread in checkers:
                thread.join(timeout=180.0)
            alive = any(t.is_alive() for t in checkers)
            stop.set()
            storm_thread.join(timeout=30.0)
            assert not alive, "a checker thread is stuck"
            assert not errors, errors[:3]
        finally:
            stop.set()
            daemon.stop()

    def test_epoch_is_monotone_across_daemon_restarts(self, tmp_path, corpus):
        """meta.json carries the epoch over one cache dir between daemons."""
        cache_dir = str(tmp_path / "epoch-cache")
        name, source = corpus[0]
        first = _start(tmp_path, "epoch-a", lanes=LANES, cache_dir=cache_dir)
        try:
            with Client(socket_path=first.config.socket_path) as client:
                client.check_text(name, source)
                epoch_a = client.reset()["epoch"]
                epoch_b = client.reset()["epoch"]
                assert epoch_b > epoch_a
        finally:
            first.stop()
        second = _start(tmp_path, "epoch-b", lanes=LANES, cache_dir=cache_dir)
        try:
            with Client(socket_path=second.config.socket_path) as client:
                client.check_text(name, source)
                assert client.reset()["epoch"] > epoch_b
        finally:
            second.stop()


class TestPerLaneStats:
    def test_stats_expose_per_lane_rows_and_merged_totals(self, tmp_path, corpus):
        daemon = _start(tmp_path, "stats", lanes=LANES)
        name, source = corpus[0]
        keys = _keys_covering_all_lanes(LANES)
        try:
            for key in keys.values():
                with Client(
                    socket_path=daemon.config.socket_path, affinity=key
                ) as client:
                    client.check_text(name, source)
            with Client(socket_path=daemon.config.socket_path) as client:
                client.ping()
                snapshot = client.stats()
        finally:
            daemon.stop()
        lanes = snapshot["server"]["lanes"]
        assert len(lanes) == LANES
        assert [row["index"] for row in lanes] == list(range(LANES))
        for row in lanes:
            assert row["engine_alive"] is True
            assert row["queue_depth"] == 0
            assert row["requests_total"] >= 1  # every lane was warmed
            assert 0.0 <= row["utilization"] <= 1.0
            assert row["epoch"] == snapshot["epoch"]
            assert set(row["robustness"]) == {
                "deadline_exceeded", "cancelled", "shed_overloaded",
                "watchdog_cancels", "lane_restarts",
            }
        merged = snapshot["server"]["robustness"]
        for key in ("deadline_exceeded", "cancelled", "shed_overloaded",
                    "watchdog_cancels", "lane_restarts"):
            assert merged[key] == sum(row["robustness"][key] for row in lanes)
        assert merged["pings"] >= 1
        assert snapshot["server"]["requests_total"] == sum(
            row["requests_total"] for row in lanes
        )
        assert snapshot["session"]["lane"] in range(LANES)

    def test_ping_reports_lane_counts(self, tmp_path):
        daemon = _start(tmp_path, "ping", lanes=LANES)
        try:
            with Client(socket_path=daemon.config.socket_path) as client:
                ping = client.ping()
        finally:
            daemon.stop()
        assert ping["lanes"] == LANES
        assert ping["lanes_alive"] == LANES
        assert ping["engine_alive"] is True
