"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.__main__ import main

GOOD = """
(: max : [x : Int] [y : Int]
   -> [z : Int #:where (and (>= z x) (>= z y))])
(define (max x y) (if (> x y) x y))
(max 3 7)
"""

BAD = """
(: f : Int -> Bool)
(define (f x) x)
"""


@pytest.fixture
def good_file(tmp_path):
    path = tmp_path / "good.rkt"
    path.write_text(GOOD)
    return str(path)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "bad.rkt"
    path.write_text(BAD)
    return str(path)


class TestCheck:
    def test_good_module(self, good_file, capsys):
        assert main(["check", good_file]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verbose_prints_types(self, good_file, capsys):
        assert main(["check", "-v", good_file]) == 0
        assert "max :" in capsys.readouterr().out

    def test_bad_module(self, bad_file, capsys):
        assert main(["check", bad_file]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_mixed_modules_fail_overall(self, good_file, bad_file):
        assert main(["check", good_file, bad_file]) == 1

    def test_stats_reports_engine_counters(self, good_file, capsys):
        assert main(["check", "--stats", good_file]) == 0
        out = capsys.readouterr().out
        assert "Incremental proof engine statistics" in out
        assert "proof cache" in out
        assert "theory sessions" in out
        assert "interned nodes" in out

    def test_stats_hit_rate_grows_on_recheck(self, good_file, capsys):
        # checking the same module twice in one invocation reuses the
        # engine: the second pass must produce cache hits
        assert main(["check", "--stats", good_file, good_file]) == 0
        out = capsys.readouterr().out
        hits_line = next(l for l in out.splitlines() if "proof cache" in l)
        hits = int(hits_line.split()[2])
        assert hits > 0


CRASHING = """
(: boom : (Vecof Int) -> Int)
(define (boom v) (vec-ref v 99))
(boom (vector 1 2))
"""


@pytest.fixture
def crashing_file(tmp_path):
    path = tmp_path / "crash.rkt"
    path.write_text(CRASHING)
    return str(path)


class TestRun:
    def test_runs_and_prints_results(self, good_file, capsys):
        assert main(["run", good_file]) == 0
        assert "7" in capsys.readouterr().out

    def test_refuses_ill_typed(self, bad_file):
        assert main(["run", bad_file]) == 1

    def test_unchecked_runs_anyway(self, bad_file, capsys):
        assert main(["run", "--unchecked", bad_file]) == 0

    def test_static_failure_names_the_file(self, bad_file, capsys):
        assert main(["run", bad_file]) == 1
        assert bad_file in capsys.readouterr().err

    def test_runtime_failure_is_exit_2_and_names_the_file(
        self, crashing_file, capsys
    ):
        assert main(["run", crashing_file]) == 2
        err = capsys.readouterr().err
        assert crashing_file in err
        assert "runtime error" in err

    def test_batch_mode_keeps_going_and_returns_worst_status(
        self, good_file, bad_file, crashing_file, capsys
    ):
        assert main(["run", good_file, bad_file, crashing_file]) == 2
        captured = capsys.readouterr()
        assert "7" in captured.out          # the good module still ran
        assert bad_file in captured.err
        assert crashing_file in captured.err

    def test_missing_file_is_reported_not_raised(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.rkt")
        assert main(["run", missing]) == 1
        assert missing in capsys.readouterr().err


class TestCheckMissingFile:
    def test_missing_file_is_reported_not_raised(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.rkt")
        assert main(["check", missing]) == 1
        assert missing in capsys.readouterr().err


class TestEval:
    def test_simple_expression(self, capsys):
        assert main(["eval", "(+ 1 2)"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_boolean_rendering(self, capsys):
        assert main(["eval", "(< 2 1)"]) == 0
        assert capsys.readouterr().out.strip() == "#f"

    def test_vector_rendering(self, capsys):
        assert main(["eval", "(vector 1 2)"]) == 0
        assert capsys.readouterr().out.strip() == "#(1 2)"

    def test_rejects_unsafe(self, capsys):
        assert main(["eval", "(safe-vec-ref (vector 1) 5)"]) == 1
        assert "error" in capsys.readouterr().err

    def test_runtime_error_reported(self, capsys):
        # exit 2: statically fine, dynamically failed (vec-ref is the
        # *checked* accessor — the checker imposes no bounds proof)
        assert main(["eval", "(vec-ref (vector 1) 5)"]) == 2


class TestFuzz:
    def test_clean_campaign_exits_zero(self, capsys):
        assert main(["fuzz", "--seed", "3", "--count", "8"]) == 0
        out = capsys.readouterr().out
        assert "Differential fuzzing campaign" in out
        assert "digest" in out

    def test_injected_bug_exits_nonzero_with_counterexample(self, capsys):
        status = main(
            ["fuzz", "--seed", "42", "--count", "12", "--inject-bug",
             "--max-shrinks", "1"]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert "violation" in captured.err
        assert "checker under test      blind" in captured.out


class TestStudy:
    def test_tiny_study(self, capsys):
        assert main(["study", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 9" in out
        assert "math" in out


class TestNumericOptions:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["fuzz", "--count", "-1"], "--count"),
            (["fuzz", "--shards", "0"], "--shards"),
            (["study", "--scale", "nan"], "--scale"),
            (["study", "--scale", "inf"], "--scale"),
            (["profile", "--count", "-1"], "--count"),
            (["chaos", "--workload", "0"], "--workload"),
            (["chaos", "--workload", "-1"], "--workload"),
        ],
    )
    def test_bad_value_is_a_usage_error_naming_the_option(
        self, argv, option, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err


class TestServeAndClient:
    """The daemon subcommands; the full service is tested in
    tests/test_server.py — here we pin the CLI contract."""

    def test_serve_requires_an_address(self, capsys):
        assert main(["serve"]) == 1
        assert "--socket" in capsys.readouterr().err

    def test_client_requires_an_address(self, capsys):
        assert main(["client", "stats"]) == 2
        assert "cannot connect" in capsys.readouterr().err

    def test_client_argument_arity_checked(self, capsys):
        assert main(["client", "--socket", "/nowhere.sock", "check-text"]) == 2

    def test_client_against_live_daemon(self, tmp_path, good_file, bad_file, capsys):
        from repro.logic.prove import Logic
        from repro.server import CheckingServer, ServerConfig

        daemon = CheckingServer(
            ServerConfig(socket_path=str(tmp_path / "cli.sock")), logic=Logic()
        )
        daemon.start()
        try:
            socket_args = ["client", "--socket", daemon.config.socket_path]
            assert main(socket_args + ["check", good_file]) == 0
            assert "OK" in capsys.readouterr().out
            assert main(socket_args + ["check", bad_file]) == 1
            assert "FAILED" in capsys.readouterr().err
            assert main(socket_args + ["eval", "(+ 40 2)"]) == 0
            assert capsys.readouterr().out.strip() == "42"
            assert main(socket_args + ["check-text", "demo", good_file]) == 0
            assert "demo: OK" in capsys.readouterr().out
            assert main(socket_args + ["stats"]) == 0
            assert '"protocol"' in capsys.readouterr().out
            assert main(socket_args + ["reset"]) == 0
            capsys.readouterr()
            assert main(socket_args + ["shutdown"]) == 0
        finally:
            daemon.stop()

    def test_client_affinity_pins_a_lane_of_a_multi_lane_daemon(
        self, tmp_path, good_file, capsys
    ):
        import json as json_mod

        from repro.logic.prove import Logic
        from repro.server import CheckingServer, ServerConfig

        daemon = CheckingServer(
            ServerConfig(socket_path=str(tmp_path / "lanes.sock"), lanes=3),
            logic=Logic(),
        )
        daemon.start()
        try:
            socket_args = ["client", "--socket", daemon.config.socket_path]
            expected_lane = CheckingServer.lane_index_for("editor-1", 3)
            assert main(
                socket_args
                + ["--affinity", "editor-1", "--json", "check", good_file]
            ) == 0
            response = json_mod.loads(capsys.readouterr().out)
            assert response["lane"] == expected_lane
            # stats exposes one row per lane, each with its own counters
            assert main(socket_args + ["stats"]) == 0
            snapshot = json_mod.loads(capsys.readouterr().out)
            lanes = snapshot["server"]["lanes"]
            assert [row["index"] for row in lanes] == [0, 1, 2]
            assert all("robustness" in row for row in lanes)
        finally:
            daemon.stop()
