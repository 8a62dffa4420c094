"""Crash campaign: crash → scavenge → re-validate, deterministically.

The acceptance bar for the recovery subsystem: for every seeded crash
schedule, post-recovery CEW validation passes on the transactional
bindings (total cash preserved, gamma == 0, zero residual locks), and the
same seed replays to a byte-identical report.
"""

import json

import pytest

from repro.campaign import (
    CRASH,
    CRASH_SCHEDULES,
    CampaignRun,
    seeded_schedule,
    write_trace,
)


def _run(binding="txn", seed=0, schedule="multi", **kwargs) -> CampaignRun:
    kwargs.setdefault("trace", False)
    return CRASH.run(binding=binding, seed=seed, schedule=schedule, **kwargs)


class TestRecoveryVerdict:
    @pytest.mark.parametrize("schedule", sorted(CRASH_SCHEDULES))
    def test_txn_recovers_from_every_schedule(self, schedule):
        result = _run(binding="txn", seed=1, schedule=schedule)
        assert result.details["crashpoints_fired"], "the schedule never crashed anyone"
        assert result.details["crashes"] >= 1
        assert result.passed
        assert result.gamma == 0.0
        assert result.details["post_recovery"]["residual_locks"] == 0
        assert not result.violation

    def test_percolator_recovers(self):
        result = _run(binding="pct", seed=1, schedule="primary-commit")
        assert result.details["crashpoints_fired"]
        assert not result.violation

    def test_seeded_schedule_runs(self):
        result = _run(binding="txn", seed=5, schedule="seeded")
        assert result.details["schedule"] == "seeded"
        assert not result.violation

    def test_raw_binding_can_leak_money(self):
        """The baseline: no transactions, so a mid-transfer death leaks.

        Not every crash lands between a transfer's debit and credit, so
        scan a few seeds; at least one must show the leak the
        transactional bindings are immune to.
        """
        results = [
            _run(binding="raw", seed=seed, schedule="worker-kill")
            for seed in range(3)
        ]
        assert any(r.details["crashes"] for r in results)
        assert any(r.violation for r in results)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = _run(binding="txn", seed=11, schedule="multi")
        second = _run(binding="txn", seed=11, schedule="multi")
        assert first.details["crashpoints_fired"] == second.details["crashpoints_fired"]
        assert first.report_jsonl == second.report_jsonl
        assert first.counters == second.counters

    def test_seeded_schedule_is_pure(self):
        assert seeded_schedule(42) == seeded_schedule(42)
        schedule = seeded_schedule(7)
        assert schedule, "a seeded schedule must name at least one point"
        for hits in schedule.values():
            assert all(hit >= 1 for hit in hits)


class TestScavengerEvidence:
    def test_scavenger_counters_reach_the_report(self):
        result = _run(binding="txn", seed=1, schedule="multi")
        assert result.counters.get("CRASHPOINTS-FIRED") == len(
            result.details["crashpoints_fired"]
        )
        assert "SCAVENGER-PASSES" in result.counters


class TestCampaign:
    def test_campaign_sweeps_and_writes_artifacts(self, tmp_path):
        campaign = CRASH.sweep(
            seeds=range(2),
            bindings=("raw", "txn"),
            schedules=("worker-kill",),
            out_dir=tmp_path,
            trace=False,
        )
        assert len(campaign.runs) == 4
        # Transactional recovery held; any violations are raw-binding ones.
        assert campaign.gated_violations == []
        for run in campaign.violations:
            assert run.details["binding"] == "raw"
        assert len(campaign.artifacts) == len(campaign.violations)
        summary = campaign.summary()
        assert "txn:" in summary and "raw:" in summary

    def test_violation_trace_is_replayable_json(self, tmp_path):
        result = _run(binding="raw", seed=0, schedule="worker-kill")
        path = write_trace(result, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "ycsbt-crash-violation"
        assert payload["seed"] == 0
        assert "ycsbt crash" in payload["replay"]["command"]
        assert payload["crash_schedule"] == result.details["crash_schedule"]


class TestCli:
    def test_crash_command_exit_zero_on_clean_txn_sweep(self, capsys):
        from repro.core.cli import main

        code = main(
            [
                "crash",
                "--seeds",
                "1",
                "--db",
                "txn",
                "--schedule",
                "prewrite",
                "--no-trace",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "txn:" in out
        assert "0 post-recovery violations" in out

    def test_crash_command_rejects_bad_seed_count(self):
        from repro.core.cli import main

        with pytest.raises(SystemExit):
            main(["crash", "--seeds", "0"])
