"""Tests for the chaos harness (repro/chaos/).

The full six-scenario campaign is CI's ``chaos-smoke`` job; here a
fast subset pins the harness machinery itself — scenarios recover,
reports are reproducible, configuration is validated, and the CLI
plumbing returns the right exit codes.
"""

import json

import pytest

from repro.chaos import SCENARIOS, ChaosConfig, run_chaos

#: fast scenarios (no deliberate multi-second stalls) for harness tests
FAST = ["torn_cache_shard", "client_disconnect"]


class TestCampaign:
    def test_fast_scenarios_recover(self):
        report = run_chaos(
            ChaosConfig(seed=11, scenarios=FAST, workload_count=2)
        )
        assert report.ok
        assert [r.name for r in report.results] == FAST
        for result in report.results:
            assert result.details.get("engine_alive") is True
            assert result.details.get("connections_drained") is True
            assert result.details.get("workload_verified") == 2

    def test_report_digest_is_reproducible(self):
        config = ChaosConfig(
            seed=11, scenarios=["client_disconnect"], workload_count=2
        )
        first, second = run_chaos(config), run_chaos(config)
        assert first.digest() == second.digest()
        assert first.ok and second.ok

    def test_report_as_dict_shape(self):
        report = run_chaos(
            ChaosConfig(seed=11, scenarios=["client_disconnect"],
                        workload_count=2)
        )
        summary = report.as_dict()
        json.dumps(summary)  # must be serialisable as the CI artifact
        assert summary["ok"] is True
        assert summary["passed"] == 1 and summary["failed"] == 0
        assert summary["scenarios"][0]["name"] == "client_disconnect"
        assert "digest" in summary

    def test_lane_kill_respawns_and_survivors_serve(self):
        report = run_chaos(
            ChaosConfig(seed=11, scenarios=["lane_kill"], workload_count=2)
        )
        assert report.ok, report.results[0].error
        details = report.results[0].details
        assert details["survivors_served"] == 2
        assert details["lane_restarts"] >= 1
        assert details["respawned_lane_serves"] is True
        # the three affinity keys cover the three lanes
        assert sorted(details["affinity_keys"]) == ["0", "1", "2"]

    def test_torn_cache_shard_counts_and_repairs(self):
        report = run_chaos(
            ChaosConfig(seed=11, scenarios=["torn_cache_shard"],
                        workload_count=2)
        )
        assert report.ok
        details = report.results[0].details
        assert details["cache_shards_skipped"] >= 1
        assert details["repaired"] is True


class TestConfig:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos scenarios"):
            ChaosConfig(scenarios=["no_such_fault"]).scenario_names()

    def test_default_runs_all_in_order(self):
        assert ChaosConfig().scenario_names() == list(SCENARIOS)

    def test_scenario_registry_is_complete(self):
        assert set(SCENARIOS) == {
            "torn_cache_shard", "hung_goal",
            "client_disconnect", "reset_storm", "overload_shed",
            "lane_kill",
        }


class TestCli:
    def test_chaos_command_smoke(self, capsys):
        from repro.__main__ import main

        status = main([
            "chaos", "--seed", "11", "--scenario", "client_disconnect",
            "--workload", "2", "--json", "-",
        ])
        out = capsys.readouterr().out
        assert status == 0
        assert "chaos[client_disconnect] PASS" in out

    def test_chaos_list(self, capsys):
        from repro.__main__ import main

        assert main(["chaos", "--list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out

    def test_chaos_unknown_scenario_is_a_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["chaos", "--scenario", "nope"]) == 1
