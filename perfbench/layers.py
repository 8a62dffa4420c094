"""Per-layer metrics of a traced phase, and the proxy completeness check.

Span totals arrive per operation type as ``(parent, layer, method) ->
[calls, ns, self_ns]`` (see :mod:`tracing`).  Layer names:

``binding`` ``TxnDB``; ``txn`` the transaction manager and its
transactions; ``codec`` ``TxRecord.encode``/``decode``; ``http`` every
``HttpKVStore`` call (one round trip each); ``twopc`` the coordinator's
``ParticipantClient`` RPCs; ``wal`` ``CoordinatorWAL`` appends;
``participant`` server-side ``TwoPCParticipant`` verbs; ``engine`` the
storage engine behind the servers (or under the manager, in process).
"""

from __future__ import annotations

import math

from cew import READ, TRANSFER, CheckFailed, Phase, Stack, TwoPCLsmStack

_ANY = object()
STORE_LAYERS = ("engine", "http")


def _totals(phase: Phase, layer: str, methods=None, parent=_ANY, ops=None) -> tuple[int, int, int]:
    """Summed (calls, ns, self_ns) of matching spans."""
    calls = total = own = 0
    for operation, spans in phase.log.spans.items():
        if ops is not None and operation not in ops:
            continue
        for (span_parent, span_layer, method), (n, ns, self_ns) in spans.items():
            if span_layer != layer or (methods is not None and method not in methods):
                continue
            if parent is not _ANY and span_parent not in parent:
                continue
            calls += n
            total += ns
            own += self_ns
    return calls, total, own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean_us(phase: Phase, layer: str, methods, ops=None) -> float:
    calls, total, _ = _totals(phase, layer, methods, ops=ops)
    return _ratio(total, calls) / 1e3


def proxy_crosscheck(stack: Stack, phase: Phase) -> None:
    """Every HTTP request a server handled was timed on the client side,
    and on ``cew-http`` every request reached the engine exactly once."""
    if not stack.servers:
        return
    http_calls = _totals(phase, "http")[0]
    if http_calls != phase.server_requests:
        raise CheckFailed(
            f"{stack.name}: {http_calls} timed HTTP calls but the servers "
            f"handled {phase.server_requests} requests"
        )
    if stack.name == "cew-http":
        engine_calls = _totals(phase, "engine")[0]
        if engine_calls != http_calls:
            raise CheckFailed(
                f"{stack.name}: {http_calls} HTTP calls but {engine_calls} engine calls"
            )


def layer_metrics(stack: Stack, phase: Phase, round_trips_ns: list[int]) -> dict[str, float]:
    """Every per-layer metric; 0 where the layer is not in the stack."""
    log = phase.log
    ops = log.ops
    op_ns = sum(sum(values) for values in log.latencies_ns.values())
    reads = log.attempted[READ]
    transfers = log.attempted[TRANSFER]
    write_txns = _totals(phase, "txn", ("commit",), ops=(TRANSFER,))[0]
    stats = phase.stats_delta

    binding_ns = _totals(phase, "binding", parent=(None,))[1]
    http_calls, http_ns, _ = _totals(phase, "http")
    server_ns = _totals(phase, "engine", parent=(None,))[1]
    server_ns += _totals(phase, "participant", parent=(None,))[1]
    codec_ns = _totals(phase, "codec")[1]
    wal_calls, wal_ns, _ = _totals(phase, "wal")
    engine_calls, engine_ns, _ = _totals(phase, "engine")
    median_rtt_us = 0.0
    if round_trips_ns:
        ordered = sorted(round_trips_ns)
        median_rtt_us = ordered[max(1, math.ceil(len(ordered) / 2)) - 1] / 1e3
    segments, amplification = 0, 0.0
    if isinstance(stack, TwoPCLsmStack):
        segments, amplification = stack.lsm_shape()

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    metrics = {
        # core.client / core.db: whole-op time outside the binding
        "client.self_us_per_op": per_op(op_ns - binding_ns) / 1e3,
        # bindings.txn
        "binding.self_us_per_op": per_op(_totals(phase, "binding")[2]) / 1e3,
        # txn.manager
        "txn.read_us": _mean_us(phase, "txn", ("read",)),
        "txn.commit_us": _mean_us(phase, "txn", ("commit",), ops=(TRANSFER,)),
        "txn.self_us_per_op": per_op(_totals(phase, "txn")[2]) / 1e3,
        "txn.store_calls_per_read": _ratio(
            sum(_totals(phase, layer, parent=("txn",), ops=(READ,))[0] for layer in STORE_LAYERS),
            reads,
        ),
        "txn.store_calls_per_transfer": _ratio(
            sum(
                _totals(phase, layer, parent=("txn",), ops=(TRANSFER,))[0]
                for layer in STORE_LAYERS
            ),
            transfers,
        ),
        "txn.conflict_ratio": _ratio(stats.get("conflicts", 0), stats.get("begun", 0)),
        "txn.lock_waits_per_op": per_op(stats.get("read_waits", 0)),
        # txn.record
        "codec.decodes_per_op": per_op(_totals(phase, "codec", ("decode",))[0]),
        "codec.decode_us": _mean_us(phase, "codec", ("decode",)),
        "codec.share": _ratio(codec_ns, op_ns),
        "codec.encodes_per_op": per_op(_totals(phase, "codec", ("encode",))[0]),
        "codec.encode_us": _mean_us(phase, "codec", ("encode",)),
        # http.client
        "http.round_trips_per_op": per_op(http_calls),
        "http.round_trips_per_transfer": _ratio(
            _totals(phase, "http", ops=(TRANSFER,))[0], transfers
        ),
        "http.round_trip_us": median_rtt_us,
        "http.share": _ratio(_totals(phase, "http", parent=(None, "txn", "twopc"))[1], op_ns),
        # http.server
        "server.requests_per_op": per_op(phase.server_requests),
        "server.overhead_us_per_round_trip": _ratio(http_ns - server_ns, http_calls) / 1e3,
        # cluster.twopc
        "twopc.prepare_us": _mean_us(phase, "twopc", ("prepare",)),
        "twopc.commit_rpc_us": _mean_us(phase, "twopc", ("commit",)),
        "twopc.rpcs_per_write_txn": _ratio(_totals(phase, "twopc")[0], write_txns),
        "twopc.no_vote_ratio": _ratio(stats.get("no_votes", 0), stats.get("prepares", 0)),
        # cluster.wal
        "wal.appends_per_write_txn": _ratio(wal_calls, write_txns),
        "wal.append_us": _ratio(wal_ns, wal_calls) / 1e3,
        "wal.share": _ratio(wal_ns, op_ns),
        # cluster.participant
        "participant.prepare_us": _mean_us(phase, "participant", ("prepare",)),
        "participant.commit_us": _mean_us(phase, "participant", ("commit",)),
        # kvstore engines
        "engine.calls_per_op": per_op(engine_calls),
        "engine.get_us": _mean_us(phase, "engine", ("get_with_meta", "get")),
        "engine.cas_us": _mean_us(phase, "engine", ("put_if_version", "delete_if_version")),
        "engine.share": _ratio(engine_ns, op_ns),
        # kvstore.lsm
        "lsm.segments_end": segments,
        "lsm.disk_bytes_per_live_byte": amplification,
    }
    return metrics
