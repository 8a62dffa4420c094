"""The campaign table's contract: artifact kind and name, replay, exit rule.

Every scenario in :data:`repro.campaign.SCENARIOS` writes its violation
traces under the same ``kind`` and file name as the per-campaign modules
it replaced, replays with the same command line, and fails a campaign
(exit 1) only on a violation its gating rule covers.
"""

import json
import shlex

import pytest

from repro.campaign import SCENARIOS, CampaignResult, CampaignRun, write_trace
from repro.core.cli import main


def _replication(level, lost_records=0, converged=True):
    return {
        "level": level,
        "follower_count": 2,
        "failover": {"lost_records": lost_records},
        "post_failover": {"logs_converged": converged},
    }


_REPLICATED = {"shard_count": 2, "follower_count": 2, "level": "strong"}

#: (scenario, details placing the run, artifact file name at seed 3,
#: replay command without overrides, gated).
CASES = [
    (
        "sim",
        {"binding": "txn", "schedule": "baseline"},
        "violation-txn-baseline-seed3.json",
        "ycsbt sim --db txn --schedule baseline --seeds 1 --start-seed 3",
        True,
    ),
    (
        "sim",
        {"binding": "raw", "schedule": "storm"},
        "violation-raw-storm-seed3.json",
        "ycsbt sim --db raw --schedule storm --seeds 1 --start-seed 3",
        False,
    ),
    (
        "crash",
        {"binding": "txn", "schedule": "prewrite"},
        "crash-violation-txn-prewrite-seed3.json",
        "ycsbt crash --db txn --schedule prewrite --seeds 1 --start-seed 3",
        True,
    ),
    (
        "crash",
        {"binding": "pct", "schedule": "multi"},
        "crash-violation-pct-multi-seed3.json",
        "ycsbt crash --db pct --schedule multi --seeds 1 --start-seed 3",
        True,
    ),
    (
        "crash",
        {"binding": "raw", "schedule": "worker-kill"},
        "crash-violation-raw-worker-kill-seed3.json",
        "ycsbt crash --db raw --schedule worker-kill --seeds 1 --start-seed 3",
        False,
    ),
    (
        "cluster",
        {"binding": "txn", "shard_count": 4},
        "cluster-violation-txn-shards4-seed3.json",
        "ycsbt cluster --db txn --shards 4 --seeds 1 --start-seed 3",
        True,
    ),
    (
        "cluster",
        {"binding": "raw", "shard_count": 4},
        "cluster-violation-raw-shards4-seed3.json",
        "ycsbt cluster --db raw --shards 4 --seeds 1 --start-seed 3",
        False,
    ),
    (
        "replicated-cluster",
        {"binding": "txn", **_REPLICATED},
        "replicated-violation-txn-shards2-seed3.json",
        "ycsbt replicated-cluster --db txn --shards 2 --followers 2 "
        "--seeds 1 --start-seed 3",
        True,
    ),
    (
        "replicated-cluster",
        {"binding": "raw", **_REPLICATED},
        "replicated-violation-raw-shards2-seed3.json",
        "ycsbt replicated-cluster --db raw --shards 2 --followers 2 "
        "--seeds 1 --start-seed 3",
        False,
    ),
    (
        "replication",
        _replication("strong"),
        "replication-violation-strong-seed3.json",
        "ycsbt replication --level strong --followers 2 --seeds 1 --start-seed 3",
        True,
    ),
    (
        "replication",
        _replication("read_your_writes"),
        "replication-violation-read_your_writes-seed3.json",
        "ycsbt replication --level read_your_writes --followers 2 "
        "--seeds 1 --start-seed 3",
        True,
    ),
    (
        "replication",
        _replication("bounded_staleness"),
        "replication-violation-bounded_staleness-seed3.json",
        "ycsbt replication --level bounded_staleness --followers 2 "
        "--seeds 1 --start-seed 3",
        False,
    ),
    (
        "replication",
        _replication("bounded_staleness", lost_records=1),
        "replication-violation-bounded_staleness-seed3.json",
        "ycsbt replication --level bounded_staleness --followers 2 "
        "--seeds 1 --start-seed 3",
        True,
    ),
    (
        "replication",
        _replication("bounded_staleness", converged=False),
        "replication-violation-bounded_staleness-seed3.json",
        "ycsbt replication --level bounded_staleness --followers 2 "
        "--seeds 1 --start-seed 3",
        True,
    ),
    (
        "synth",
        {"scenario": "steady", "binding": "raw"},
        "synth-violation-steady-raw-seed3.json",
        "ycsbt synth --scenario steady --db raw --seeds 1 --start-seed 3",
        True,
    ),
]

#: The artifact ``kind`` each campaign has always written.
KINDS = {
    "sim": "ycsbt-sim-violation",
    "crash": "ycsbt-crash-violation",
    "cluster": "ycsbt-cluster-violation",
    "replication": "ycsbt-replication-violation",
    "replicated-cluster": "ycsbt-replicated-cluster-violation",
    "synth": "ycsbt-synth-violation",
}


def _run(name, details, violation=True):
    return CampaignRun(SCENARIOS[name], seed=3, details=details, violation=violation)


def test_the_table_holds_the_six_campaign_verbs():
    assert set(SCENARIOS) == set(KINDS) == {case[0] for case in CASES}


@pytest.mark.parametrize("name,details,filename,command,gated", CASES)
def test_artifact_kind_name_and_replay_command(
    tmp_path, name, details, filename, command, gated
):
    path = write_trace(_run(name, details), tmp_path)
    payload = json.loads(path.read_text())
    assert path.name == filename
    assert payload["kind"] == KINDS[name]
    assert payload["replay"]["command"] == command


@pytest.mark.parametrize("name,details,filename,command,gated", CASES)
def test_exit_rule(name, details, filename, command, gated):
    scenario = SCENARIOS[name]
    violating = _run(name, details)
    assert violating.gated is gated
    assert CampaignResult(scenario, [violating]).exit_code == (1 if gated else 0)
    clean = _run(name, details, violation=False)
    assert CampaignResult(scenario, [clean]).exit_code == 0


def test_replay_carries_overrides_and_non_default_flags():
    run = CampaignRun(
        SCENARIOS["replicated-cluster"],
        seed=3,
        details={"binding": "raw", **_REPLICATED, "level": "quorum"},
        violation=True,
        options={"kill": False},
        overrides={"threadcount": "2", "recordcount": "20"},
    )
    assert run.replay_command() == (
        "ycsbt replicated-cluster --db raw --shards 2 --followers 2 "
        "--level quorum --seeds 1 --start-seed 3 --no-kill "
        "-p recordcount=20 -p threadcount=2"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sim", "--db", "raw", "--start-seed", "1", "-p", "operationcount=200"],
        [
            "crash", "--db", "raw", "--schedule", "worker-kill",
            "-p", "operationcount=300",
        ],
    ],
    ids=["sim", "crash"],
)
def test_replay_command_regenerates_the_artifact(tmp_path, capsys, argv):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([*argv, "--seeds", "2", "--out", str(first)]) == 0
    artifacts = sorted(first.iterdir())
    assert artifacts, capsys.readouterr().err
    for artifact in artifacts:
        command = json.loads(artifact.read_text())["replay"]["command"]
        assert "-p operationcount=" in command
        words = shlex.split(command)
        assert words[0] == "ycsbt"
        assert main([*words[1:], "--out", str(second)]) == 0
        assert (second / artifact.name).read_bytes() == artifact.read_bytes()
