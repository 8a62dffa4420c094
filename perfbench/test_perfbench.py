"""Self-test of the benchmark on a small economy.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from cew import READ, STACKS, TRANSFER, CheckFailed, timed_setup  # noqa: E402
from layers import layer_metrics, proxy_crosscheck  # noqa: E402
from run import CpuRotation  # noqa: E402
from tracing import Tracer  # noqa: E402

ACCOUNTS = 300


@pytest.fixture(params=sorted(STACKS))
def stack_class(request):
    return STACKS[request.param]


def test_per_type_counts_sum_to_attempted(stack_class, tmp_path):
    stack, took = timed_setup(stack_class, tmp_path / "run", None, 5, ACCOUNTS)
    try:
        phase = stack.run_phase(7, seconds=0.5)
        stack.check_residue()
    finally:
        stack.close()
    log = phase.log
    assert took > 0
    assert set(log.attempted) <= {READ, TRANSFER}
    assert log.ops == sum(len(samples) for samples in log.latencies_ns.values()) > 0
    assert sum(log.committed.values()) == log.ops  # one client: nothing conflicts


def test_traced_phase_reports_every_layer_and_cross_checks(stack_class, tmp_path):
    tracer = Tracer()
    stack, _ = timed_setup(stack_class, tmp_path / "run", tracer, 5, ACCOUNTS)
    try:
        phase = stack.run_phase(7, seconds=0.5, traced=True)
        proxy_crosscheck(stack, phase)
        metrics = layer_metrics(stack, phase, tracer.round_trips_ns)
        stack.check_residue()
    finally:
        tracer.disable()
        stack.close()
    assert not tracer.enabled
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) | {"trace.overhead_ratio"} == {metric["name"] for metric in declared}
    assert metrics["txn.store_calls_per_read"] == 1
    assert metrics["engine.calls_per_op"] > 0
    assert metrics["codec.decodes_per_op"] > 0
    if stack_class.name != "cew-inproc":
        assert metrics["server.requests_per_op"] == metrics["http.round_trips_per_op"] > 0
    if stack_class.name == "cew-2pc-lsm":
        assert metrics["wal.appends_per_write_txn"] == 3


def test_codec_patch_is_removed_when_tracing_stops():
    from repro.txn.record import TxRecord

    encode, decode = TxRecord.__dict__["encode"], TxRecord.__dict__["decode"]
    tracer = Tracer()
    tracer.enable()
    assert TxRecord.__dict__["encode"] is not encode
    assert TxRecord.decode(TxRecord().encode()).versions == []
    tracer.disable()
    assert TxRecord.__dict__["encode"] is encode
    assert TxRecord.__dict__["decode"] is decode
    assert sum(calls for calls, _, _ in tracer.take().values()) == 2


def test_leftover_status_record_fails_the_gate(tmp_path):
    stack, _ = timed_setup(STACKS["cew-inproc"], tmp_path / "run", None, 5, ACCOUNTS)
    try:
        stack.engines["memory"].put("~tsr:orphan", {"state": "committed", "commit_ts": "1"})
        with pytest.raises(CheckFailed, match="status record"):
            stack.check_residue()
    finally:
        stack.close()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
def test_cpu_rotation_keeps_one_cpu_and_stops():
    allowed = os.sched_getaffinity(0)
    try:
        with CpuRotation(period=0.01) as rotation:
            time.sleep(0.05)
            assert len(os.sched_getaffinity(0)) == 1
            assert os.sched_getaffinity(0) <= set(rotation.cpus) == allowed
        assert rotation._thread is None or not rotation._thread.is_alive()
    finally:
        os.sched_setaffinity(0, allowed)
