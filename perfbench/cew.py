"""Closed-loop CEW load generator and the benchmark stacks.

Every workload runs the paper's Closed Economy Workload through the
repository's own :class:`~repro.core.client.Client` with one client
thread.  The benchmark times each whole operation itself, from the
binding's ``start()`` to the return of its ``commit()``/``abort()``
(:class:`WholeOpDB`), and never reads the client's ``TX-*`` series.
"""

from __future__ import annotations

import shutil
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from repro.bindings.txn import TxnDB
from repro.cluster.cluster import ShardCluster
from repro.cluster.participant import TwoPCParticipant
from repro.cluster.router import ShardRoutedStore
from repro.cluster.twopc import ParticipantClient, TwoPCManager
from repro.cluster.wal import CoordinatorWAL
from repro.core.client import Client
from repro.core.closed_economy import ClosedEconomyWorkload
from repro.core.db import DB
from repro.core.properties import Properties
from repro.http.client import HttpKVStore
from repro.http.server import KVStoreHTTPServer
from repro.kvstore.lsm import LSMKVStore
from repro.kvstore.memory import InMemoryKVStore
from repro.txn.manager import TSR_PREFIX, ClientTransactionManager
from repro.txn.record import TxRecord

from tracing import Tracer, traced

ACCOUNTS = 10_000
CASH_PER_ACCOUNT = 1000
#: accounts per load transaction.
LOAD_BATCH = 200
WARMUP_OPS = 200
#: the timed phase is cut into windows of this length for its medians.
WINDOW_NS = 2_000_000_000
READ = "READ"
TRANSFER = "READMODIFYWRITE"
#: LSM engines of ``cew-2pc-lsm``: WAL not fsynced, 1 MiB memtable.
LSM_MEMTABLE_BYTES = 1 << 20
LSM_SYNC_WRITES = False
FLUSH_POLICY = (
    f"lsm: sync_writes={str(LSM_SYNC_WRITES).lower()}, "
    f"memtable={LSM_MEMTABLE_BYTES} B; coordinator WAL: fsync per append"
)


# -- the workload -------------------------------------------------------------------


class _LastChoice:
    """Operation chooser that remembers its last pick, so an operation that
    fails still has a type."""

    def __init__(self, chooser):
        self._chooser = chooser
        self.last: str | None = None

    def next_value(self):
        self.last = self._chooser.next_value()
        return self.last


class TimedEconomy(ClosedEconomyWorkload):
    """CEW that reports each settled operation to an :class:`OpLog`."""

    log: "OpLog | None" = None

    def init(self, properties: Properties, measurements=None) -> None:
        super().init(properties, measurements)
        self.operation_chooser = _LastChoice(self.operation_chooser)

    def finish_transaction(self, db, thread_state, operation, committed) -> None:
        super().finish_transaction(db, thread_state, operation, committed)
        if self.log is not None:
            self.log.op_finished(self.operation_chooser.last, committed)


def cew_properties(accounts: int, read: float, transfer: float, seed: int) -> Properties:
    return Properties(
        {
            "recordcount": str(accounts),
            "totalcash": str(accounts * CASH_PER_ACCOUNT),
            "requestdistribution": "zipfian",
            "readproportion": str(read),
            "readmodifywriteproportion": str(transfer),
            "updateproportion": "0",
            "insertproportion": "0",
            "scanproportion": "0",
            "deleteproportion": "0",
            "threadcount": "1",
            "batchsize": str(LOAD_BATCH),
            "seed": str(seed),
        }
    )


# -- whole-operation timing ----------------------------------------------------------


@dataclass
class OpLog:
    """Per-operation record of one phase, filled by the running client.

    A phase given ``seconds`` ends with the operation that crosses the
    deadline; otherwise the client's operation budget ends it.  With ``traced`` the tracer runs from the
    first operation's ``start()`` to the last one's settlement, and span
    totals are folded per operation type.
    """

    workload: TimedEconomy
    tracer: Tracer | None
    traced: bool
    seconds: float | None
    #: called right after the tracer stops, before validation traffic.
    on_stop: object = None
    latencies_ns: dict[str, list[int]] = field(default_factory=lambda: defaultdict(list))
    attempted: Counter = field(default_factory=Counter)
    committed: Counter = field(default_factory=Counter)
    spans: dict[str, dict] = field(default_factory=dict)
    #: per-window operation latencies and commit counts (see :meth:`windows`).
    _windows: list = field(default_factory=list)
    first_start_ns: int = 0
    last_end_ns: int = 0
    _deadline_ns: int = 0
    _started_ns: int = 0
    _elapsed_ns: int = 0

    def op_started(self) -> None:
        now = perf_counter_ns()
        if not self.first_start_ns:
            self.first_start_ns = now
            if self.seconds is not None:
                self._deadline_ns = now + int(self.seconds * 1e9)
            if self.traced:
                self.tracer.take()
                self.tracer.round_trips_ns.clear()
                self.tracer.enable()
        self._started_ns = perf_counter_ns()

    def op_ended(self) -> None:
        self.last_end_ns = perf_counter_ns()
        self._elapsed_ns = self.last_end_ns - self._started_ns

    def op_finished(self, operation: str, committed: bool) -> None:
        self.latencies_ns[operation].append(self._elapsed_ns)
        self.attempted[operation] += 1
        index = (self.last_end_ns - self.first_start_ns) // WINDOW_NS
        while len(self._windows) <= index:
            self._windows.append((defaultdict(list), [0]))
        latencies, window_committed = self._windows[index]
        latencies[operation].append(self._elapsed_ns)
        if committed:
            self.committed[operation] += 1
            window_committed[0] += 1
        if self.traced:
            bucket = self.spans.setdefault(operation, {})
            for key, (calls, total, own) in self.tracer.take().items():
                totals = bucket.get(key)
                if totals is None:
                    bucket[key] = [calls, total, own]
                else:
                    totals[0] += calls
                    totals[1] += total
                    totals[2] += own
        if self._deadline_ns and self.last_end_ns >= self._deadline_ns:
            if self.traced:
                self.tracer.disable()
            if self.on_stop is not None:
                self.on_stop()
            self.workload.request_stop()

    def windows(self) -> list[tuple[float, dict[str, list[int]], int]]:
        """(seconds, latencies by type, committed ops) per window.

        The phase is cut into ``WINDOW_NS`` slices by operation end time;
        a trailing slice shorter than half a window is dropped.
        """
        result = []
        for index, (latencies, committed) in enumerate(self._windows):
            start = self.first_start_ns + index * WINDOW_NS
            seconds = (min(start + WINDOW_NS, self.last_end_ns) - start) / 1e9
            if seconds * 1e9 >= WINDOW_NS / 2:
                result.append((seconds, latencies, committed[0]))
        return result

    @property
    def wall_ns(self) -> int:
        return self.last_end_ns - self.first_start_ns

    @property
    def ops(self) -> int:
        return sum(self.attempted.values())


class WholeOpDB(DB):
    """Delegating binding that times every whole operation.

    An operation runs from ``start()`` to the return of ``commit()`` or
    ``abort()`` — the span the closed-loop client waits for.
    """

    def __init__(self, inner: DB, log: OpLog):
        super().__init__(inner.properties)
        self._inner = inner
        self._log = log

    def init(self) -> None:
        self._inner.init()

    def cleanup(self) -> None:
        self._inner.cleanup()

    def counters(self) -> dict[str, int]:
        return self._inner.counters()

    def start(self):
        self._log.op_started()
        return self._inner.start()

    def commit(self):
        try:
            return self._inner.commit()
        finally:
            self._log.op_ended()

    def abort(self):
        try:
            return self._inner.abort()
        finally:
            self._log.op_ended()

    def read(self, table, key, fields=None):
        return self._inner.read(table, key, fields)

    def scan(self, table, start_key, record_count, fields=None):
        return self._inner.scan(table, start_key, record_count, fields)

    def update(self, table, key, values):
        return self._inner.update(table, key, values)

    def insert(self, table, key, values):
        return self._inner.insert(table, key, values)

    def delete(self, table, key):
        return self._inner.delete(table, key)

    def batch_insert(self, table, records):
        return self._inner.batch_insert(table, records)


class CheckFailed(Exception):
    """A correctness check failed; the run's result is not valid."""


@dataclass
class Phase:
    """What one timed phase produced."""

    log: OpLog
    #: server requests handled while the tracer ran (traced phases only).
    server_requests: int = 0
    #: manager counters over the traced window: stats and 2PC counters.
    stats_delta: dict[str, int] = field(default_factory=dict)


# -- stacks --------------------------------------------------------------------------


class Stack:
    """One benchmark deployment: engines, servers, the client-side stack.

    With a tracer every layer is built behind a :func:`~tracing.traced` proxy,
    dormant until the tracer is enabled.
    """

    name = ""
    read = 0.9
    transfer = 0.1

    def __init__(self, workdir: Path, tracer: Tracer | None, accounts: int = ACCOUNTS):
        self.workdir = workdir
        self.tracer = tracer
        self.accounts = accounts
        self.manager: ClientTransactionManager | None = None
        self.servers: list[KVStoreHTTPServer] = []
        #: engine name -> the raw engine (never a proxy).
        self.engines: dict[str, object] = {}
        self._clients: list[HttpKVStore] = []
        self._binding_manager = None

    def _traced(self, inner, layer: str, results: dict[str, str] | None = None):
        if self.tracer is None:
            return inner
        return traced(inner, layer, self.tracer, results)

    def _http_client(self, address) -> HttpKVStore:
        client = HttpKVStore(address)
        self._clients.append(client)
        return client

    # -- lifecycle, per stack --------------------------------------------------

    def _build_and_serve(self, load) -> ClientTransactionManager:
        """Create engines, call ``load(store)`` on them, serve them, and
        return the benchmark's transaction manager."""
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        """Build, load ``accounts`` accounts, serve, warm up."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.manager = self._build_and_serve(lambda store: self._load(store, seed))
        self._binding_manager = self._traced(self.manager, "txn", {"begin": "txn"})
        self.run_phase(seed * 1000 + 999, ops=WARMUP_OPS)

    def _load(self, store, seed: int) -> None:
        manager = ClientTransactionManager({"default": store})
        workload = ClosedEconomyWorkload()
        properties = cew_properties(self.accounts, self.read, self.transfer, seed)
        workload.init(properties)
        db = TxnDB(manager=manager)
        result = Client(workload, lambda: db, properties).load(self.accounts)
        _check_phase_result(result, f"{self.name} load")
        if result.operations != self.accounts or result.failed_operations:
            raise CheckFailed(
                f"{self.name} load: {result.failed_operations} of "
                f"{result.operations} inserts failed"
            )

    def close(self) -> None:
        for server in self.servers:
            server.stop()
        for client in self._clients:
            client.close()
        self.servers.clear()
        self._clients.clear()
        for engine in self.engines.values():
            engine.close()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- running ---------------------------------------------------------------

    def binding(self, log: OpLog) -> DB:
        return WholeOpDB(self._traced(TxnDB(manager=self._binding_manager), "binding"), log)

    def server_requests(self) -> int:
        return sum(server.request_count for server in self.servers)

    def manager_counters(self) -> dict[str, int]:
        stats = self.manager.stats
        counters = {
            "begun": stats.begun,
            "conflicts": stats.conflicts,
            "read_waits": stats.read_waits,
        }
        counters.update(getattr(self.manager, "twopc_counters", {}))
        return counters

    def run_phase(
        self,
        seed: int,
        seconds: float | None = None,
        ops: int | None = None,
        traced: bool = False,
    ) -> Phase:
        """One closed-loop phase: ``ops`` operations, or as many as fit in
        ``seconds``; then the client's CEW validation stage."""
        properties = cew_properties(self.accounts, self.read, self.transfer, seed)
        workload = TimedEconomy()
        workload.init(properties)
        phase = Phase(OpLog(workload, self.tracer, traced, seconds))
        if traced:
            before = {"requests": self.server_requests(), **self.manager_counters()}

            def on_stop() -> None:
                now = {"requests": self.server_requests(), **self.manager_counters()}
                delta = {name: now[name] - before[name] for name in now}
                phase.server_requests = delta.pop("requests")
                phase.stats_delta = delta

            phase.log.on_stop = on_stop
        workload.log = phase.log
        client = Client(workload, lambda: self.binding(phase.log), properties)
        result = client.run(ops if ops is not None else 10**12)
        _check_phase_result(result, f"{self.name} run")
        log = phase.log
        failed = log.ops - sum(log.committed.values())
        if (result.operations, result.failed_operations) != (log.ops, failed):
            raise CheckFailed(
                f"{self.name}: per-type operation counts sum to {log.ops} attempted / "
                f"{failed} failed, the client counted {result.operations} / "
                f"{result.failed_operations}"
            )
        if traced and self.tracer.enabled:
            raise CheckFailed(f"{self.name}: traced phase ended before its deadline")
        return phase

    # -- correctness gate ------------------------------------------------------

    def check_residue(self) -> None:
        """No transaction-status records and no locked records remain, and
        every account is present."""
        records = 0
        for name, engine in self.engines.items():
            cursor = ""
            while True:
                page = engine.scan(cursor, 1000)
                for key, value in page:
                    if key.startswith(TSR_PREFIX):
                        raise CheckFailed(f"{self.name}: {name} holds status record {key!r}")
                    if TxRecord.decode(value).lock is not None:
                        raise CheckFailed(f"{self.name}: {name} record {key!r} is locked")
                    records += 1
                if len(page) < 1000:
                    break
                cursor = page[-1][0] + "\x00"
        if records != self.accounts:
            raise CheckFailed(f"{self.name}: {records} records, expected {self.accounts}")


def _check_phase_result(result, label: str) -> None:
    if result.errors:
        raise CheckFailed(f"{label}: client errors: {result.errors}")
    validation = result.validation
    if validation is None or not validation.passed or validation.anomaly_score != 0:
        raise CheckFailed(f"{label}: CEW validation failed: {validation}")


class InprocStack(Stack):
    """``TxnDB`` → ``ClientTransactionManager`` → ``InMemoryKVStore``."""

    name = "cew-inproc"

    def _build_and_serve(self, load) -> ClientTransactionManager:
        engine = self.engines["memory"] = InMemoryKVStore()
        load(engine)
        return ClientTransactionManager({"default": self._traced(engine, "engine")})


class HttpStack(Stack):
    """``ClientTransactionManager`` → ``HttpKVStore`` → loopback
    ``KVStoreHTTPServer`` → ``InMemoryKVStore`` (the ``txn_http`` stack)."""

    name = "cew-http"

    def _build_and_serve(self, load) -> ClientTransactionManager:
        engine = self.engines["memory"] = InMemoryKVStore()
        load(engine)
        server = KVStoreHTTPServer(self._traced(engine, "engine")).start()
        self.servers.append(server)
        store = self._traced(self._http_client(server.address), "http")
        return ClientTransactionManager({"default": store})


class TwoPCLsmStack(Stack):
    """``TwoPCManager`` (fsynced ``CoordinatorWAL``) → 2-shard
    ``ShardCluster`` of ``LSMKVStore`` engines."""

    name = "cew-2pc-lsm"
    read = 0.5
    transfer = 0.5
    SHARDS = 2
    cluster: ShardCluster | None = None
    wal: CoordinatorWAL | None = None

    def _build_and_serve(self, load) -> ClientTransactionManager:
        def lsm_factory(shard: str):
            engine = self.engines[shard] = LSMKVStore(
                self.workdir / shard,
                memtable_bytes=LSM_MEMTABLE_BYTES,
                sync_writes=LSM_SYNC_WRITES,
            )
            return self._traced(engine, "engine")

        self.cluster = ShardCluster(
            self.SHARDS, store_factory=lsm_factory, wal_dir=self.workdir / "cluster-wal"
        )
        load(ShardRoutedStore(self.cluster.stores, ring=self.cluster.ring()))
        self.cluster.start()
        self.servers.extend(self.cluster.servers[name] for name in self.cluster.shard_names)
        addresses = self.cluster.addresses()
        if self.tracer is not None:
            # Server-side participants behind proxies, with traced peer clients.
            for name in self.cluster.shard_names:
                participant = TwoPCParticipant(
                    name,
                    self.cluster.stores[name],
                    peers={
                        peer: self._traced(self._http_client(addresses[peer]), "http")
                        for peer in self.cluster.shard_names
                        if peer != name
                    },
                    lock_lease_ms=self.cluster.lock_lease_ms,
                )
                self.cluster.servers[name].revive(
                    participant=self._traced(participant, "participant")
                )
        shards = {
            name: self._traced(self._http_client(addresses[name]), "http")
            for name in self.cluster.shard_names
        }
        participants = {
            name: self._traced(ParticipantClient(shards[name]), "twopc") for name in shards
        }
        self.wal = CoordinatorWAL(self.workdir / "coordinator.jsonl")
        return TwoPCManager(
            shards, participants, self._traced(self.wal, "wal"), ring=self.cluster.ring()
        )

    def check_residue(self) -> None:
        super().check_residue()
        in_doubt = self.wal.in_doubt()
        if in_doubt:
            raise CheckFailed(f"{self.name}: {len(in_doubt)} WAL transactions in doubt")
        for server in self.servers:
            prepared = server.participant.prepared_count()
            if prepared:
                raise CheckFailed(f"{self.name}: a participant holds {prepared} prepared txns")

    def close(self) -> None:
        if self.cluster is not None:
            self.cluster.stop()
        if self.wal is not None:
            self.wal.close()
        super().close()

    def lsm_shape(self) -> tuple[int, float]:
        """(segments across shards, disk bytes per live record byte)."""
        segments = sum(engine.segment_count for engine in self.engines.values())
        disk = sum(
            path.stat().st_size
            for shard in self.engines
            for path in (self.workdir / shard).rglob("*")
            if path.is_file()
        )
        live = 0
        for engine in self.engines.values():
            for key in engine.keys():
                value = engine.get(key)
                live += len(key) + sum(len(k) + len(v) for k, v in value.items())
        return segments, disk / live


STACKS: dict[str, type[Stack]] = {
    stack.name: stack for stack in (InprocStack, HttpStack, TwoPCLsmStack)
}


def timed_setup(
    stack_class: type[Stack], workdir: Path, tracer, seed: int, accounts: int = ACCOUNTS
):
    """Build and set up one stack; (stack, seconds it took)."""
    started = perf_counter()
    stack = stack_class(workdir, tracer, accounts)
    try:
        stack.setup(seed)
    except BaseException:
        stack.close()
        raise
    return stack, perf_counter() - started
