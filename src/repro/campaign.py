"""One campaign driver: seed sweeps that end in the CEW validation verdict.

Every campaign sweeps seeds over a grid of coordinates (bindings, fault
or crash schedules, shard counts, consistency levels, synthesis
scenarios).  Each run loads the Closed Economy Workload, injects a
fault, recovers, and ends in the paper's Tier-6 validation stage, which
scores the economy with the anomaly score gamma.  A run that broke an
invariant is a *violation* and writes a replayable JSON trace.  The
campaign fails (exit 1) only when a violating run is also *gated*: it
ran on a path that promised to stay consistent.  The raw binding, with
no transactions to protect it, is the ungated control everywhere.

A :class:`Scenario` is one campaign, one ``ycsbt`` verb.  Its
:meth:`~Scenario.run` walks a run through four explicit phases over
one :class:`Trial` state: ``build`` (stack up, economy loaded
fault-free), ``inject`` (the measured phase with the fault on),
``recover`` (restore and repair) and ``validate`` (re-validate, fold
into a :class:`CampaignRun`).  :data:`SCENARIOS` holds the six
campaigns; each differs only in its defaults, its sweep axes, how it
kills and restores, and the ``details`` its artifact carries.  See
docs/SIMULATION.md.
"""

from __future__ import annotations

import itertools
import json
import random
import shlex
import tempfile
import time
from collections.abc import Callable, Mapping, Sequence
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .bindings.kv import KVStoreDB
from .bindings.txn import TxnDB
from .cluster.cluster import ShardCluster
from .cluster.replicated import ReplicatedShardHttpCluster
from .cluster.twopc import recover_coordinator
from .core.client import BenchmarkResult, Client
from .core.closed_economy import ClosedEconomyWorkload
from .core.properties import Properties
from .core.retry import RetryPolicy
from .core.workload import ValidationResult, WorkloadError
from .kvstore.base import StoreError
from .kvstore.faults import FaultInjectingStore, FaultProfile
from .kvstore.memory import InMemoryKVStore
from .measurements.exporters import JsonLinesExporter
from .measurements.registry import Measurements
from .recovery.crashpoints import CrashInjector, use_crash_injector
from .recovery.scavenger import TxnScavenger
from .recovery.store import CrashpointStore
from .replication.cluster import ReplicationCluster
from .replication.routed import ConsistencyLevel
from .sim.clock import use_clock
from .sim.scheduler import SimClock
from .sim.trace import SimTrace, TracingDB
from .synth.engine import SynthRunResult, run_synth
from .synth.spec import SCENARIOS as SYNTH_SPECS
from .synth.spec import SynthSpec, load_synth_spec
from .txn.manager import ClientTransactionManager
from .txn.percolator import PercolatorLikeManager

__all__ = [
    "CampaignResult",
    "CampaignRun",
    "Scenario",
    "Trial",
    "SCENARIOS",
    "SIM",
    "CRASH",
    "CLUSTER",
    "REPLICATION",
    "REPLICATED_CLUSTER",
    "SYNTH",
    "DEFAULT_SIM_PROPERTIES",
    "DEFAULT_CRASH_PROPERTIES",
    "DEFAULT_CLUSTER_PROPERTIES",
    "DEFAULT_REPLICATION_PROPERTIES",
    "FAULT_SCHEDULES",
    "CRASH_SCHEDULES",
    "SIM_BINDINGS",
    "CRASH_BINDINGS",
    "CLUSTER_BINDINGS",
    "REPLICATION_LEVELS",
    "GATED_LEVELS",
    "campaign_properties",
    "cew_stack",
    "seeded_schedule",
    "synth_run",
    "write_trace",
]

# ---------------------------------------------------------------------------
# Defaults, schedules and levels
# ---------------------------------------------------------------------------

#: Baseline campaign workload: a small Closed Economy with every CEW
#: operation type in the mix, mid-size zipfian contention, lognormal
#: store latency (interleavings happen *inside* operations) and a retry
#: budget that absorbs transient noise without hiding torn writes.
DEFAULT_SIM_PROPERTIES: dict[str, str] = {
    "table": "usertable",
    "recordcount": "40",
    "operationcount": "400",
    "totalcash": "40000",
    "readproportion": "0.35",
    "updateproportion": "0.20",
    "insertproportion": "0.05",
    "deleteproportion": "0.05",
    "readmodifywriteproportion": "0.35",
    "requestdistribution": "zipfian",
    "fieldcount": "1",
    "threadcount": "6",
    "measurementtype": "hdrhistogram",
    "latency.read_ms": "2",
    "latency.write_ms": "3",
    "latency.model": "lognormal",
    "latency.sigma": "0.4",
    "retry.max_attempts": "8",
    "retry.base_delay_ms": "1",
    "retry.max_delay_ms": "20",
    "txn.isolation": "serializable",
    "txn.lock_lease_ms": "1000",
}

#: Named fault schedules a sim campaign sweeps (``fault.*`` property
#: sets; faults are enabled for the measured run phase only).
FAULT_SCHEDULES: dict[str, dict[str, str]] = {
    "baseline": {
        "fault.error_rate": "0.04",
        "fault.latency_spike_rate": "0.03",
        "fault.latency_spike_ms": "30",
        "fault.torn_write_rate": "0.03",
    },
    "torn-heavy": {
        "fault.error_rate": "0.02",
        "fault.torn_write_rate": "0.10",
    },
    "storm": {
        "fault.error_rate": "0.12",
        "fault.latency_spike_rate": "0.10",
        "fault.latency_spike_ms": "80",
        "fault.throttle_burst_rate": "0.02",
        "fault.torn_write_rate": "0.05",
    },
}

SIM_BINDINGS = ("raw", "txn")

#: The sim campaign's CEW minus deletes and minus injected store faults.
#: The crash *is* the fault under study, and an uncluttered run keeps each
#: violation trace attributable to it.  Deletes are off because a
#: delete's captured balance lives in the *workload's* in-memory escrow
#: until commit: a client that dies mid-delete takes that bookkeeping
#: with it — money lost to a crashed *benchmark process*, not to the
#: database (see docs/RECOVERY.md).
DEFAULT_CRASH_PROPERTIES: dict[str, str] = {
    **{
        key: value
        for key, value in DEFAULT_SIM_PROPERTIES.items()
        if not key.startswith("fault.")
    },
    "deleteproportion": "0",
    "readmodifywriteproportion": "0.40",
}

#: Named crash schedules: crashpoint -> 1-based hit numbers that kill the
#: client passing through.  Hits are global across the run's clients, and
#: under the sim scheduler the hit order is deterministic per seed.
CRASH_SCHEDULES: dict[str, dict[str, list[int]]] = {
    # Die with every lock installed but the commit undecided: recovery
    # must roll the transaction back.
    "prewrite": {"txn.after_prewrite": [3, 17]},
    # Die just past the commit point (TSR created / primary committed)
    # with no intent applied: recovery must roll forward.
    "primary-commit": {"txn.after_primary_commit": [2, 11]},
    # Die with the apply phase half done: recovery must finish it.
    "mid-secondary": {"txn.mid_secondary_commit": [2, 9]},
    # Die inside arbitrary store writes — mid read-modify-write on the
    # raw binding, mid lock-install on the transactional ones.
    "worker-kill": {"worker.mid_run": [40, 180, 400]},
    # All of the above in one run: several clients die at different
    # protocol stages.
    "multi": {
        "txn.after_prewrite": [2],
        "txn.after_primary_commit": [6],
        "txn.mid_secondary_commit": [10],
        "worker.mid_run": [300],
    },
}

CRASH_BINDINGS = ("raw", "txn", "pct")

#: Crashpoints a seeded schedule may draw (store-engine points are
#: exercised by the WAL/LSM property tests, not the CEW campaign).
_SEEDED_POINTS = (
    "txn.after_prewrite",
    "txn.after_primary_commit",
    "txn.mid_secondary_commit",
    "worker.mid_run",
)

#: The crash campaign's CEW over the wire: latency injection dropped (a
#: wall-clock run has real network latency; simulated sleeps on top would
#: only slow it down).
DEFAULT_CLUSTER_PROPERTIES: dict[str, str] = {
    **{
        key: value
        for key, value in DEFAULT_CRASH_PROPERTIES.items()
        if not key.startswith("latency.")
    },
    "threadcount": "4",
}

CLUSTER_BINDINGS = ("raw", "txn")

#: The cluster campaign's CEW, single-threaded: one client session means
#: read-your-writes covers every read-modify-write the session issues, so
#: the economy must balance at both gated levels; bounded staleness still
#: bases RMWs on legally stale reads and leaks as the reported baseline.
DEFAULT_REPLICATION_PROPERTIES: dict[str, str] = {
    **DEFAULT_CLUSTER_PROPERTIES,
    "threadcount": "1",
}

REPLICATION_LEVELS = ("strong", "read_your_writes", "bounded_staleness")

#: Levels whose post-failover economy must balance.
GATED_LEVELS = ("strong", "read_your_writes")

#: Seed-derived RNG seed properties, one distinct stream per stack layer.
_LAYER_SEED_OFFSETS = {"seed": 0, "fault.seed": 1, "retry.seed": 2, "latency.seed": 3}


def seeded_schedule(seed: int) -> dict[str, list[int]]:
    """A pseudo-random crash schedule, a pure function of ``seed``.

    Draws 1-3 crashpoints and a small hit index for each, so a seed sweep
    covers protocol stages no hand-written schedule thought of.
    """
    rng = random.Random(seed * 2654435761 % (2**31))
    points = rng.sample(_SEEDED_POINTS, rng.randint(1, 3))
    schedule: dict[str, list[int]] = {}
    for point in points:
        ceiling = 500 if point == "worker.mid_run" else 25
        count = rng.randint(1, 2)
        schedule[point] = sorted({rng.randint(1, ceiling) for _ in range(count)})
    return schedule


# ---------------------------------------------------------------------------
# Pieces every campaign shares
# ---------------------------------------------------------------------------


def campaign_properties(
    defaults: Mapping[str, str],
    overrides: Mapping[str, object] | None,
    seed: int,
    layers: Sequence[str] = tuple(_LAYER_SEED_OFFSETS),
) -> Properties:
    """Scenario defaults, then the caller's overrides, then the RNG seeds.

    Every RNG in the stack keys off the run's seed, one distinct stream
    per named layer (see ``_LAYER_SEED_OFFSETS``).
    """
    values = dict(defaults)
    values.update({key: str(value) for key, value in (overrides or {}).items()})
    for key in layers:
        values[key] = str(seed + _LAYER_SEED_OFFSETS[key])
    return Properties(values)


def _find_fault_layer(store) -> FaultInjectingStore | None:
    while store is not None:
        if isinstance(store, FaultInjectingStore):
            return store
        store = getattr(store, "inner", None)
    return None


def cew_stack(
    binding: str, props: Properties, client_id: str, crashpoints: bool = False
) -> tuple[Callable[[], Any], Any, FaultInjectingStore | None]:
    """The in-memory CEW stack: returns ``(db_factory, manager, fault_layer)``.

    Built directly (not through the shared binding registry) so every run
    starts from an empty store and can pause the fault layer around the
    load phase.  ``manager`` is None on the raw binding.  With
    ``crashpoints`` every store write passes a :class:`CrashpointStore`,
    so the ``worker.mid_run`` crashpoint can kill a client inside any
    operation sequence.
    """
    from .bindings.stores import wrap_store

    if binding not in CRASH_BINDINGS:
        raise ValueError(f"unknown binding {binding!r}; use one of {CRASH_BINDINGS}")
    # The managers do their own retries and must see raw torn-write
    # errors at the commit point, so their store keeps latency + faults
    # but no retry layer (mirrors bindings.txn._default_manager).
    if binding != "raw":
        props_for_store = props.merged({"retry.max_attempts": "1"})
    else:
        props_for_store = props
    store = wrap_store(InMemoryKVStore(), props_for_store)
    fault_layer = _find_fault_layer(store)
    if crashpoints:
        store = CrashpointStore(store)
    if binding == "raw":
        return (lambda: KVStoreDB(store, props)), None, fault_layer
    lease_ms = props.get_float("txn.lock_lease_ms", 1000.0)
    wait_retries = props.get_int("txn.lock_wait_retries", 500)
    if binding == "txn":
        manager = ClientTransactionManager(
            store,
            isolation=props.get_str("txn.isolation", "serializable"),
            lock_lease_ms=lease_ms,
            lock_wait_retries=wait_retries,
            retry_policy=RetryPolicy.from_properties(props),
            client_id=client_id,
        )
    else:
        manager = PercolatorLikeManager(
            store, lock_lease_ms=lease_ms, lock_wait_retries=wait_retries
        )
    return (lambda: TxnDB(props, manager=manager)), manager, fault_layer


class _NoValidation:
    """A workload view whose validation stage is a no-op.

    The client validates at the end of every phase, and validation scans
    the whole store — which cannot work while a shard or leader is
    deliberately dead.  The degraded half of a run executes through this
    delegating wrapper; shared workload state (key chooser, operation
    mix, escrow) lives in the wrapped instance, so the two halves are
    one workload.
    """

    def __init__(self, workload: ClosedEconomyWorkload):
        self._workload = workload

    def __getattr__(self, name: str):
        return getattr(self._workload, name)

    def validate(self, db) -> None:
        return None


@dataclass
class Trial:
    """The explicit state one run carries from phase to phase.

    ``build`` fills the stack fields and loads, ``inject`` accumulates the
    measured operations, ``recover`` the repair counters, and ``validate``
    reads it all.  ``stack`` owns every resource the run must tear down
    (live clusters, the ambient clock, temporary directories).  What a
    scenario observes on the way (who was killed, which crashpoints
    fired) goes in ``state``.
    """

    seed: int
    props: Properties
    options: dict[str, Any]
    stack: ExitStack
    clock: SimClock | None = None
    trace: SimTrace | None = None
    topology: Any = None
    manager: Any = None
    db_factory: Callable[[], Any] | None = None
    workload: ClosedEconomyWorkload | None = None
    measurements: Measurements | None = None
    client: Client | None = None
    load: BenchmarkResult | None = None
    #: the measured run phase (the healthy half, when a kill splits it).
    measured: BenchmarkResult | None = None
    operations: int = 0
    failed_operations: int = 0
    degraded_operations: int = 0
    errors: list[str] = field(default_factory=list)
    state: dict[str, Any] = field(default_factory=dict)
    #: coordinator-WAL replay outcome (redone / undone transactions).
    recovery: dict[str, int] = field(default_factory=dict)
    scavenger: dict[str, int] = field(default_factory=dict)
    #: locks still unresolved after recovery (must be 0).
    residual_locks: int = 0
    #: the post-recovery validation; None when the store could not be scanned.
    verdict: ValidationResult | None = None

    def start(self, db_factory) -> None:
        """Initialise the CEW and its client over ``db_factory``, then load.

        With a trace, the client's DB calls are recorded; validation and
        recovery go through ``db_factory`` itself, off the trace.
        """
        self.db_factory = db_factory
        client_factory, trace = db_factory, self.trace
        if trace is not None:
            client_factory = lambda: TracingDB(db_factory(), trace)  # noqa: E731
        self.workload = ClosedEconomyWorkload()
        self.measurements = Measurements.from_properties(self.props)
        self.workload.init(self.props, self.measurements)
        self.client = Client(
            self.workload, client_factory, self.props, self.measurements
        )
        if trace is not None:
            trace.phase = "load"
        self.load = self.client.load()
        self.errors.extend(self.load.errors)
        if trace is not None:
            trace.phase = "run"

    def absorb(self, result: BenchmarkResult) -> BenchmarkResult:
        """Count one measured phase into the run's totals."""
        self.operations += result.operations
        self.failed_operations += result.failed_operations
        self.errors.extend(result.errors)
        return result

    def scavenge(self) -> None:
        """Roll every stranded transaction forward or back, then verify.

        The second pass keeps orphan TSRs so its ``locks_seen`` counts
        exactly the locks recovery failed to resolve.
        """
        scavenger = TxnScavenger(self.manager)
        scavenger.scavenge_once()
        verify = scavenger.scavenge_once(remove_orphan_tsrs=False)
        self.residual_locks = verify.locks_seen
        self.scavenger = {
            name: value for name, value in scavenger.counters().items() if value
        }
        for name, value in self.scavenger.items():
            self.measurements.set_counter(name, value)

    def post_validate(self, db=None) -> None:
        """Re-validate the economy: the verdict.

        A store that cannot be scanned becomes a recorded error and a
        failed verdict, not a crashed campaign.
        """
        db = db if db is not None else self.db_factory()
        db.init()
        try:
            self.verdict = self.workload.validate(db)
        except (WorkloadError, StoreError) as exc:
            self.errors.append(f"post-validation: {type(exc).__name__}: {exc}")
        finally:
            db.cleanup()
        self.workload.cleanup()

    def pre(self) -> dict[str, object]:
        """The measured phase's own validation (gamma 0 when it ran none)."""
        validation = self.measured.validation
        gamma = validation.anomaly_score if validation else None
        return {
            "gamma": gamma if gamma is not None else 0.0,
            "passed": validation.passed if validation else False,
        }

    def post(self) -> dict[str, object]:
        """The post-recovery verdict (gamma 1 when unscannable)."""
        if self.verdict is None:
            return {"gamma": 1.0, "passed": False, "validation": []}
        return {
            "gamma": self.verdict.anomaly_score,
            "passed": self.verdict.passed,
            "validation": [[str(k), str(v)] for k, v in self.verdict.fields],
        }

    def counters(self) -> dict[str, int]:
        counters = self.measurements.counters()
        return {name: int(value) for name, value in counters.items()}


def _economy_broken(verdict: Mapping[str, Any]) -> bool:
    return not verdict["passed"] or verdict["gamma"] > 0.0


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class CampaignRun:
    """Everything one run of one scenario produced.

    The shared fields serve every campaign; ``details`` is the scenario's
    own artifact body, serialised verbatim by :func:`write_trace`.
    ``violation`` means some invariant broke; whether that fails the
    campaign is the scenario's gating rule (:attr:`gated`).
    """

    scenario: Scenario
    seed: int
    details: dict[str, Any]
    violation: bool
    #: the verdict: anomaly score and validation outcome after recovery.
    gamma: float = 0.0
    passed: bool = True
    #: the run's keyword options (binding, schedule, kill, ...).
    options: dict[str, Any] = field(default_factory=dict)
    #: the caller's ``-p`` overrides, replayed by the trace's command.
    overrides: dict[str, str] = field(default_factory=dict)
    #: the scenario-specific part of :meth:`summary_line`.
    headline: str = ""
    operations: int = 0
    failed_operations: int = 0
    load_operations: int = 0
    wall_time_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    properties: dict[str, str] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    report_jsonl: str = ""
    trace: SimTrace | None = None

    @property
    def gated(self) -> bool:
        """True when a violation here fails the campaign."""
        return self.scenario.gates(self)

    @property
    def coords(self) -> tuple[str, ...]:
        """Sweep coordinates: artifact file name, summary group, labels."""
        coordinates = self.scenario.coordinates
        return tuple(coordinate.format(**self.details) for coordinate in coordinates)

    @property
    def label(self) -> str:
        return "/".join((*self.coords, str(self.seed)))

    def summary_line(self) -> str:
        flag = "VIOLATION" if self.violation else "ok"
        return f"{self.headline} wall={self.wall_time_s:.2f}s {flag}"

    def replay_command(self) -> str:
        """The CLI line that re-runs exactly this run.

        It carries the run's coordinates, every non-default flag and the
        run's ``-p`` overrides (sorted), so replaying regenerates the run.
        """
        words = ["ycsbt", self.scenario.name, *self.scenario.replay_args(self)]
        words += ["--seeds", "1", "--start-seed", str(self.seed)]
        if self.options.get("kill") is False:
            words.append("--no-kill")
        for key, value in sorted(self.overrides.items()):
            words += ["-p", f"{key}={value}"]
        return shlex.join(words)


def write_trace(run: CampaignRun, directory: str | Path) -> Path:
    """Write the replayable artifact for a violating run.

    It carries everything needed to replay and to read the failure: the
    seed, the full property set, the scenario's details (verdict
    included), the replay command, and for virtual-time runs the
    operation interleaving.  Virtual-time artifacts carry no wall-clock
    time, so the same run always writes the same bytes.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scenario = run.scenario
    payload: dict[str, object] = {
        "kind": f"ycsbt-{scenario.name}-violation",
        "seed": run.seed,
        "operations": run.operations,
        "failed_operations": run.failed_operations,
        "counters": run.counters,
        "properties": run.properties,
        "errors": run.errors,
        **run.details,
        "replay": {"command": run.replay_command()},
    }
    if scenario.wall_clock:
        payload["wall_time_s"] = run.wall_time_s
    if run.trace is not None:
        payload["trace"] = run.trace.to_payload()
    coords = "-".join(run.coords)
    path = directory / f"{scenario.prefix}violation-{coords}-seed{run.seed}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


@dataclass
class CampaignResult:
    """All runs of one campaign plus the trace artifacts it wrote."""

    scenario: Scenario
    runs: list[CampaignRun]
    artifacts: list[Path] = field(default_factory=list)

    @property
    def violations(self) -> list[CampaignRun]:
        return [run for run in self.runs if run.violation]

    @property
    def gated_violations(self) -> list[CampaignRun]:
        """The violations that fail the campaign (and its CI job)."""
        return [run for run in self.runs if run.violation and run.gated]

    @property
    def exit_code(self) -> int:
        """1 iff some run is both a violation and gated."""
        return 1 if self.gated_violations else 0

    def group(self, key: str) -> list[CampaignRun]:
        """The runs whose first coordinate (binding, level, scenario) is ``key``."""
        return [run for run in self.runs if run.coords[0] == key]

    def summary(self) -> str:
        lines = []
        for key in sorted({run.coords[0] for run in self.runs}):
            runs = self.group(key)
            lines.append(f"{key}: {len(runs)} runs, {self.scenario.tally(runs)}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The scenario protocol
# ---------------------------------------------------------------------------

#: Sweep axes, named as ``sweep`` and the CLI take them -> the run option
#: each axis sets.
_AXES = {
    "schedules": "schedule",
    "bindings": "binding",
    "shard_counts": "shard_count",
    "levels": "level",
    "scenarios": "scenario",
}


class Scenario:
    """One campaign: its knobs, its sweep grid, and the phases of a run.

    A subclass declares its verb (``name``), its artifact file-name
    ``prefix``, its ``coordinates`` and ``replay`` flags (format strings
    over a run's details), its workload property ``defaults``, its run
    ``options`` with their defaults (in positional order), and its sweep
    ``grid``: the default values of each axis, outermost first.  It
    implements the four phases and ``tally(runs)``, its part of the
    campaign summary.
    """

    name: str
    prefix: str
    coordinates: tuple[str, ...]
    replay: str
    defaults: Mapping[str, str] = {}
    options: dict[str, Any]
    grid: dict[str, tuple]
    #: wall-clock runs over real sockets: not bit-reproducible, and their
    #: artifacts record the wall time.
    wall_clock = False
    #: the seed-derived RNG seed properties (see :func:`campaign_properties`).
    layer_seeds: tuple[str, ...] = ("seed", "retry.seed")

    def run(
        self,
        *args: Any,
        seed: int = 0,
        properties: Mapping[str, object] | None = None,
        **options: Any,
    ) -> CampaignRun:
        """One run: build → inject → recover → validate, then teardown.

        Positional arguments fill the options in declared order;
        ``properties`` are the caller's ``-p`` overrides.
        """
        unknown = options.keys() - self.options.keys()
        if unknown:
            raise TypeError(f"{self.name} runs take no option {sorted(unknown)}")
        options = {**self.options, **dict(zip(self.options, args)), **options}
        defaults = self.prepare(options, seed)
        props = campaign_properties(defaults, properties, seed, self.layer_seeds)
        wall_started = time.perf_counter()
        with ExitStack() as stack:
            trial = Trial(seed=seed, props=props, options=options, stack=stack)
            self.build(trial)
            self.inject(trial)
            self.recover(trial)
            run = self.validate(trial)
        run.wall_time_s = time.perf_counter() - wall_started
        run.options = options
        run.overrides = {key: str(value) for key, value in (properties or {}).items()}
        return run

    def sweep(
        self,
        seeds: Sequence[int],
        out_dir: str | Path | None = None,
        on_result: Callable[[CampaignRun], None] | None = None,
        **options: Any,
    ) -> CampaignResult:
        """Run every cell of the grid at every seed; trace every violation.

        An axis in ``options`` (``bindings``, ``schedules``, ...) replaces
        that axis's default values; every other option goes to each run.
        ``on_result`` receives each run as it completes — the CLI uses it
        for progressive output.
        """
        grid = {axis: options.pop(axis, values) for axis, values in self.grid.items()}
        result = CampaignResult(self, runs=[])
        for cell in itertools.product(*grid.values()):
            cell_options = {_AXES[axis]: value for axis, value in zip(grid, cell)}
            for seed in seeds:
                run = self.run(seed=seed, **options, **cell_options)
                result.runs.append(run)
                if run.violation and out_dir is not None:
                    result.artifacts.append(write_trace(run, out_dir))
                if on_result is not None:
                    on_result(run)
        return result

    def _result(self, trial: Trial, **fields: Any) -> CampaignRun:
        """A run record with the shared fields filled in from ``trial``."""
        fields.setdefault("counters", trial.counters())
        return CampaignRun(
            scenario=self,
            seed=trial.seed,
            operations=trial.operations,
            failed_operations=trial.failed_operations,
            load_operations=trial.load.operations,
            properties=trial.props.as_dict(),
            errors=trial.errors,
            trace=trial.trace,
            report_jsonl=JsonLinesExporter().export(trial.measured.report()),
            **fields,
        )

    def prepare(self, options: dict[str, Any], seed: int) -> Mapping[str, str]:
        """Check and normalise a run's options; return its property defaults."""
        return self.defaults

    def build(self, trial: Trial) -> None:
        raise NotImplementedError

    def inject(self, trial: Trial) -> None:
        raise NotImplementedError

    def recover(self, trial: Trial) -> None:
        """Nothing to repair by default."""

    def validate(self, trial: Trial) -> CampaignRun:
        raise NotImplementedError

    def gates(self, run: CampaignRun) -> bool:
        """The raw binding is the control: only its violations are ungated."""
        return run.details["binding"] != "raw"

    def replay_args(self, run: CampaignRun) -> list[str]:
        return self.replay.format(**run.details).split()


def _recovery_tally(runs: list[CampaignRun]) -> str:
    violations = sum(run.violation for run in runs)
    wall = sum(run.wall_time_s for run in runs)
    return (
        f"{violations} post-recovery violations, "
        f"max post-gamma {max(run.gamma for run in runs):.6f}, {wall:.2f} wall s"
    )


# ---------------------------------------------------------------------------
# Virtual time: ycsbt sim and ycsbt crash
# ---------------------------------------------------------------------------


class _VirtualTime(Scenario):
    """One deterministic in-memory CEW run on a fresh :class:`SimClock`.

    Every store latency, fault sleep, retry backoff and lock wait
    advances virtual time only, so a run is a pure function of its seed
    and a violation is a replayable counterexample.  ``trace`` records
    the operation interleaving for the artifact.
    """

    coordinates = ("{binding}", "{schedule}")
    replay = "--db {binding} --schedule {schedule}"

    def build_stack(self, trial: Trial, crashpoints: bool = False):
        """Clock, trace and CEW stack; returns the store's fault layer."""
        trial.clock = SimClock()
        options = trial.options
        if options["trace"]:
            trial.trace = SimTrace(trial.clock.scheduler, options["max_trace_events"])
        trial.stack.enter_context(use_clock(trial.clock))
        trial.db_factory, trial.manager, fault_layer = cew_stack(
            options["binding"], trial.props, f"{self.name}{trial.seed}", crashpoints
        )
        return fault_layer

    def details(self, trial: Trial, **fields: Any) -> dict[str, Any]:
        return {
            "binding": trial.options["binding"],
            "schedule": trial.options["schedule"],
            **fields,
            "virtual_run_time_s": trial.measured.run_time_ms / 1000.0,
            "events_processed": trial.clock.scheduler.events_processed,
        }


class Sim(_VirtualTime):
    """``ycsbt sim``: the CEW under a fault schedule, in virtual time.

    FoundationDB-style testing inverted into a benchmark tool.  The load
    runs fault-free (a botched load is a configuration error, not an
    anomaly); the schedule's faults are on for the measured run phase
    only.  The expected shape: the raw binding leaks money under torn
    writes and interleaved read-modify-writes (gamma > 0 on some seeds);
    the transactional binding, running the paper's client-coordinated
    commit with retries and verify-then-decide, scores gamma == 0 on
    every seed.
    """

    name = "sim"
    prefix = ""
    options = {
        "binding": "raw",
        "schedule": "baseline",
        "trace": True,
        "max_trace_events": 200_000,
    }
    grid = {"schedules": ("baseline",), "bindings": SIM_BINDINGS}
    layer_seeds = tuple(_LAYER_SEED_OFFSETS)

    def prepare(self, options: dict[str, Any], seed: int) -> Mapping[str, str]:
        schedule = options["schedule"]
        if isinstance(schedule, str):
            values = FAULT_SCHEDULES[schedule]
        else:
            options["schedule"], values = "custom", dict(schedule)
        return {**DEFAULT_SIM_PROPERTIES, **values}

    def build(self, trial: Trial) -> None:
        fault_layer = self.build_stack(trial)
        if fault_layer is not None:
            fault_layer.profile = FaultProfile()  # faults off for the load
        trial.state["fault_layer"] = fault_layer
        trial.start(trial.db_factory)

    def inject(self, trial: Trial) -> None:
        fault_layer = trial.state["fault_layer"]
        profile = FaultProfile.from_properties(trial.props)
        if fault_layer is not None and profile is not None:
            fault_layer.profile = profile
        trial.measured = trial.absorb(trial.client.run())

    def validate(self, trial: Trial) -> CampaignRun:
        # The run phase's own validation stage is the verdict.
        trial.workload.cleanup()
        score, validation = trial.pre(), trial.measured.validation
        details = self.details(
            trial,
            gamma=score["gamma"],
            validation_passed=score["passed"],
            validation=[list(pair) for pair in validation.fields] if validation else [],
            fault_schedule={
                key: value
                for key, value in trial.props.as_dict().items()
                if key.startswith("fault.")
            },
        )
        return self._result(
            trial,
            details=details,
            gamma=score["gamma"],
            passed=score["passed"],
            violation=_economy_broken(score),
            headline=(
                f"{details['binding']:<4} seed={trial.seed:<6} "
                f"schedule={details['schedule']:<10} gamma={score['gamma']:.6f} "
                f"ops={trial.operations} failed={trial.failed_operations} "
                f"vtime={details['virtual_run_time_s']:.1f}s"
            ),
        )

    def gates(self, run: CampaignRun) -> bool:
        """Raw-binding violations are the campaign's findings; a
        transactional one is a consistency bug."""
        return run.details["binding"] == "txn"

    def tally(self, runs: list[CampaignRun]) -> str:
        violations = sum(run.violation for run in runs)
        vtime = sum(run.details["virtual_run_time_s"] for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{violations} violations, max gamma {max(run.gamma for run in runs):.6f}, "
            f"{vtime:.0f} simulated s in {wall:.2f} wall s"
        )


class Crash(_VirtualTime):
    """``ycsbt crash``: kill clients mid-protocol, scavenge, re-validate.

    Each run arms a *crash schedule*: named crashpoints that kill a
    simulated client at a scheduled hit (between prewrite and commit,
    right after the commit point, mid roll-forward, or inside an
    arbitrary store write).  The load runs with the injector disarmed (a
    crash during load is a setup failure, not a recovery scenario).
    Recovery lets every lock lease expire and runs the
    :class:`TxnScavenger` to roll each stranded transaction forward or
    back.  On the transactional bindings post-recovery validation must
    pass; the raw binding has no recovery story, so a death between a
    transfer's debit and credit leaks money for good.
    """

    name = "crash"
    prefix = "crash-"
    defaults = DEFAULT_CRASH_PROPERTIES
    options = {
        "binding": "txn",
        "schedule": "multi",
        "trace": True,
        "max_trace_events": 200_000,
        "lease_margin_s": 1.0,
    }
    grid = {
        "schedules": ("prewrite", "primary-commit", "mid-secondary", "worker-kill"),
        "bindings": ("raw", "txn"),
    }
    layer_seeds = ("seed", "retry.seed", "latency.seed")

    def prepare(self, options: dict[str, Any], seed: int) -> Mapping[str, str]:
        """Resolve the schedule to ``{crashpoint: [hits]}``."""
        schedule = options["schedule"]
        if schedule == "seeded":
            points = seeded_schedule(seed)
        elif isinstance(schedule, str):
            points = CRASH_SCHEDULES[schedule]
        else:
            options["schedule"], points = "custom", schedule
        options["crash_schedule"] = {
            point: [hits] if isinstance(hits, int) else list(hits)
            for point, hits in dict(points).items()
        }
        return self.defaults

    def build(self, trial: Trial) -> None:
        if trial.options["binding"] == "pct":
            # The percolator baseline has no serializable mode.
            trial.props = trial.props.merged({"txn.isolation": "snapshot"})
        trial.state["injector"] = CrashInjector(trial.options["crash_schedule"])
        self.build_stack(trial, crashpoints=True)
        trial.start(trial.db_factory)

    def inject(self, trial: Trial) -> None:
        with use_crash_injector(trial.state["injector"]):
            trial.measured = trial.absorb(trial.client.run())

    def recover(self, trial: Trial) -> None:
        lease_s = trial.props.get_float("txn.lock_lease_ms", 1000.0) / 1000.0
        trial.clock.sleep(lease_s + trial.options["lease_margin_s"])
        if trial.manager is not None:
            trial.scavenge()
        fired = trial.state["injector"].fired
        if fired:
            trial.measurements.set_counter("CRASHPOINTS-FIRED", len(fired))

    def validate(self, trial: Trial) -> CampaignRun:
        trial.post_validate()
        counters = trial.counters()
        pre, post = trial.pre(), trial.post()
        details = self.details(
            trial,
            crash_schedule=trial.options["crash_schedule"],
            crashpoints_fired=[list(pair) for pair in trial.state["injector"].fired],
            crashes=counters.get("CLIENT-CRASHES", 0),
            pre_recovery=pre,
            post_recovery={**post, "residual_locks": trial.residual_locks},
            scavenger=trial.scavenger,
        )
        return self._result(
            trial,
            details=details,
            gamma=post["gamma"],
            passed=post["passed"],
            violation=_economy_broken(post) or trial.residual_locks > 0,
            counters=counters,
            headline=(
                f"{details['binding']:<4} seed={trial.seed:<6} "
                f"schedule={details['schedule']:<14} crashes={details['crashes']} "
                f"pre-gamma={pre['gamma']:.6f} post-gamma={post['gamma']:.6f} "
                f"residual-locks={trial.residual_locks}"
            ),
        )

    def tally(self, runs: list[CampaignRun]) -> str:
        crashes = sum(run.details["crashes"] for run in runs)
        return f"{crashes} crashed clients, {_recovery_tally(runs)}"


# ---------------------------------------------------------------------------
# Wall clock over real sockets: a kill halfway through the run
# ---------------------------------------------------------------------------


class _KillMidRun(Scenario):
    """Scenarios that kill a live server halfway through the measured phase.

    The measured phase runs as two exact halves via the client's
    ``operation_count`` override: ``kill_fraction`` of the operations
    against the healthy topology, then — with one member killed — the
    rest, then ``restore`` brings the topology back.  Wall-clock runs are
    not bit-deterministic (thread scheduling is the OS's), but the kill
    point is.  ``kill=False`` runs the same operations without the kill.
    Subclasses give ``kill(trial)`` and ``restore(trial)``.
    """

    wall_clock = True

    def inject(self, trial: Trial) -> None:
        total = trial.props.get_int("operationcount", 400)
        kill = trial.options["kill"]
        healthy = total
        if kill:
            healthy = max(1, int(total * trial.options["kill_fraction"]))
        trial.measured = trial.absorb(trial.client.run(operation_count=healthy))
        if kill and total > healthy:
            self.kill(trial)
            # Same workload, db factory and measurements — but no
            # validation stage, which cannot scan through a dead member.
            degraded = Client(
                _NoValidation(trial.workload),
                trial.db_factory,
                trial.props,
                trial.measurements,
            )
            result = trial.absorb(degraded.run(operation_count=total - healthy))
            trial.degraded_operations = result.operations
            self.restore(trial)


class _ShardKill(_KillMidRun):
    """Cluster campaigns: CEW over HTTP shards with 2PC, one shard struck.

    Recovery sleeps past every lock lease (real sockets cannot run under
    the virtual-time scheduler), replays the coordinator WAL — redo the
    logged commits, undo the undecided — and scavenges every shard.  On
    the ``txn`` binding the economy must then balance with zero residual
    locks; the ``raw`` binding routes unprotected read-modify-write pairs
    and leaks money across the dead shard as the expected baseline.
    Subclasses give ``topology(trial)``, the cluster context manager, and
    ``raw_store(trial)``, the raw binding's routed store.
    """

    coordinates = ("{binding}", "shards{shard_count}")
    defaults = DEFAULT_CLUSTER_PROPERTIES

    def prepare(self, options: dict[str, Any], seed: int) -> Mapping[str, str]:
        if options["binding"] not in CLUSTER_BINDINGS:
            raise ValueError(
                f"unknown cluster binding {options['binding']!r}; "
                f"use one of {CLUSTER_BINDINGS}"
            )
        return self.defaults

    def build(self, trial: Trial) -> None:
        props = trial.props
        trial.topology = trial.stack.enter_context(self.topology(trial))
        if trial.options["binding"] == "txn":
            client_id = f"{self.client_prefix}{trial.seed}"
            manager = trial.manager = trial.topology.manager(client_id=client_id)
            trial.start(lambda: TxnDB(props, manager=manager))
        else:
            store = self.raw_store(trial)
            trial.start(lambda: KVStoreDB(store, props))

    def victim(self, trial: Trial) -> str:
        """The shard a kill strikes: chosen by seed, so a sweep varies it."""
        shard = trial.topology.shard_names[trial.seed % trial.options["shard_count"]]
        trial.state["killed_shard"] = shard
        return shard

    def recover(self, trial: Trial) -> None:
        if trial.manager is None:
            return
        if "killed_shard" in trial.state:
            lease_s = trial.props.get_float("txn.lock_lease_ms", 1000.0) / 1000.0
            time.sleep(lease_s + trial.options["lease_margin_s"])
        trial.recovery = recover_coordinator(trial.manager)
        trial.scavenge()

    def shard_result(
        self, trial: Trial, details: dict[str, Any], headline: str
    ) -> CampaignRun:
        trial.post_validate()
        post = trial.post()
        counters = trial.counters()
        if trial.manager is not None:
            counters.update({k: v for k, v in trial.manager.counters().items() if v})
        details.update(
            healthy_operations=trial.measured.operations,
            degraded_operations=trial.degraded_operations,
            pre_recovery=trial.pre(),
            post_recovery={**post, "residual_locks": trial.residual_locks},
            coordinator_recovery=trial.recovery,
            scavenger=trial.scavenger,
        )
        recovery = trial.recovery
        return self._result(
            trial,
            details=details,
            gamma=post["gamma"],
            passed=post["passed"],
            violation=_economy_broken(post) or trial.residual_locks > 0,
            counters=counters,
            headline=(
                f"{details['binding']:<4} seed={trial.seed:<6} {headline} "
                f"post-gamma={post['gamma']:.6f} "
                f"residual-locks={trial.residual_locks} "
                f"redone={recovery.get('redone', 0)} "
                f"undone={recovery.get('undone', 0)} "
                f"ops={trial.operations} failed={trial.failed_operations}"
            ),
        )


class Cluster(_ShardKill):
    """``ycsbt cluster``: N HTTP shards, one killed mid-run and restarted.

    The dead shard drops every connection without a response; in-flight
    prepares fail, phase-2 commit RPCs against it fail (the coordinator's
    WAL keeps those transactions in doubt), and peers' locks strand.  It
    restarts with its durable store intact and its volatile prepared
    table gone — exactly the state 2PC recovery must handle.
    """

    name = "cluster"
    prefix = "cluster-"
    replay = "--db {binding} --shards {shard_count}"
    client_prefix = "cluster"
    options = {
        "binding": "txn",
        "shard_count": 4,
        "kill": True,
        "kill_fraction": 0.5,
        "lease_margin_s": 0.5,
    }
    grid = {"shard_counts": (4,), "bindings": ("raw", "txn")}

    def topology(self, trial: Trial):
        props = trial.props
        return ShardCluster(
            trial.options["shard_count"],
            lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
            retry_policy_factory=lambda: RetryPolicy.from_properties(props),
        )

    def raw_store(self, trial: Trial):
        return trial.topology.router()

    def kill(self, trial: Trial) -> None:
        trial.topology.kill_shard(self.victim(trial))

    def restore(self, trial: Trial) -> None:
        trial.topology.restart_shard(trial.state["killed_shard"])

    def validate(self, trial: Trial) -> CampaignRun:
        killed = trial.state.get("killed_shard")
        shard_count = trial.options["shard_count"]
        details = {
            "binding": trial.options["binding"],
            "shard_count": shard_count,
            "killed_shard": killed,
        }
        headline = f"shards={shard_count} killed={killed or '-':<7}"
        return self.shard_result(trial, details, headline)

    def tally(self, runs: list[CampaignRun]) -> str:
        kills = sum(run.details["killed_shard"] is not None for run in runs)
        return f"{kills} shard kills, {_recovery_tally(runs)}"


class ReplicatedCluster(_ShardKill):
    """``ycsbt replicated-cluster``: kill a shard's *leader*, fail over.

    Every shard is a replica set of HTTP node servers under a leader
    lease with a log shipper.  The degraded half runs with the shard
    leaderless (strong operations against it fail; quorum reads still
    assemble a majority from the followers).  Restoring waits out the
    lease, fails over to the most-caught-up follower (term bump) and
    rejoins the dead member by log catch-up — follower logs are durable,
    in a per-run temporary directory.  The coordinator WAL then replays
    through participant stubs still bound to the *dead* leader, which
    exercises the stale-participant re-route path.  ``level`` sets the
    raw binding's read consistency (the txn binding always routes
    through shard leaders).
    """

    name = "replicated-cluster"
    prefix = "replicated-"
    replay = "--db {binding} --shards {shard_count} --followers {follower_count}"
    client_prefix = "replcluster"
    options = {
        "binding": "txn",
        "shard_count": 2,
        "follower_count": 2,
        "level": "strong",
        "kill": True,
        "kill_fraction": 0.5,
        "lease_margin_s": 0.5,
    }
    grid = {"shard_counts": (2,), "bindings": ("raw", "txn")}

    def topology(self, trial: Trial):
        log_dir = trial.stack.enter_context(
            tempfile.TemporaryDirectory(prefix=f"ycsbt-repl-log-{trial.seed}-")
        )
        return ReplicatedShardHttpCluster(
            trial.options["shard_count"],
            follower_count=trial.options["follower_count"],
            lock_lease_ms=trial.props.get_float("txn.lock_lease_ms", 1000.0),
            log_dir=log_dir,
            seed=trial.seed,
        )

    def raw_store(self, trial: Trial):
        return trial.topology.routed(trial.options["level"])

    def kill(self, trial: Trial) -> None:
        trial.state["killed_member"] = trial.topology.kill_leader(self.victim(trial))

    def restore(self, trial: Trial) -> None:
        cluster, state = trial.topology, trial.state
        state["failover"] = cluster.failover(state["killed_shard"])
        state["rejoin"] = cluster.rejoin(state["killed_shard"], state["killed_member"])
        cluster.wait_caught_up(timeout_s=10.0)

    def validate(self, trial: Trial) -> CampaignRun:
        options, state = trial.options, trial.state
        failover, rejoin = state.get("failover", {}), state.get("rejoin", {})
        details = {
            key: options[key]
            for key in ("binding", "shard_count", "follower_count", "level")
        }
        details.update(
            killed_shard=state.get("killed_shard"),
            killed_member=state.get("killed_member"),
            failover=failover,
            rejoin=rejoin,
        )
        headline = (
            f"shards={options['shard_count']} x{options['follower_count'] + 1} "
            f"killed={state.get('killed_member') or '-':<10} "
            f"promoted={failover.get('leader', '-'):<10} "
            f"rejoin={rejoin.get('mode', '-'):<8}"
        )
        return self.shard_result(trial, details, headline)

    def replay_args(self, run: CampaignRun) -> list[str]:
        args = super().replay_args(run)
        level = run.details["level"]
        return args if level == "strong" else [*args, "--level", level]

    def tally(self, runs: list[CampaignRun]) -> str:
        kills = sum(run.details["killed_member"] is not None for run in runs)
        catchups = sum(run.details["rejoin"].get("mode") == "catch-up" for run in runs)
        return (
            f"{kills} leader kills, {catchups} catch-up rejoins, "
            f"{_recovery_tally(runs)}"
        )


class Replication(_KillMidRun):
    """``ycsbt replication``: kill the leader of one replica set, fail over.

    A leader and N followers behind real HTTP servers, reads routed by
    the run's consistency level.  The kill waits out the leader lease and
    promotes the most-caught-up follower under a bumped term (a *clean*
    failover drains the dead leader's durable log first, so no
    acknowledged write is lost); the degraded half runs through the same
    routed store, whose lease-backed view finds the new leader on its
    own.  Restoring folds the old leader back in as a follower; the
    verdict reads through a ``strong`` reader and checks every follower's
    log is identical to the leader's.

    ``strong`` and ``read_your_writes`` must balance the economy (the
    gated levels).  ``bounded_staleness`` read-modify-writes against
    legally stale follower data, so its leak is the expected baseline:
    still a violation with a trace, but not a failure.  A broken protocol
    (lost records, diverged logs) is gated at every level.
    """

    name = "replication"
    prefix = "replication-"
    coordinates = ("{level}",)
    replay = "--level {level} --followers {follower_count}"
    defaults = DEFAULT_REPLICATION_PROPERTIES
    options = {
        "level": "strong",
        "follower_count": 2,
        "kill": True,
        "kill_fraction": 0.5,
        "lease_duration_s": 0.4,
        "staleness_bound_s": 0.1,
    }
    grid = {"levels": REPLICATION_LEVELS}

    def prepare(self, options: dict[str, Any], seed: int) -> Mapping[str, str]:
        if options["level"] not in REPLICATION_LEVELS:
            raise ValueError(
                f"unknown consistency level {options['level']!r}; "
                f"use one of {REPLICATION_LEVELS}"
            )
        return self.defaults

    def build(self, trial: Trial) -> None:
        options, props = trial.options, trial.props
        cluster = trial.topology = trial.stack.enter_context(
            ReplicationCluster(
                follower_count=options["follower_count"],
                lease_duration_s=options["lease_duration_s"],
                seed=trial.seed,
            )
        )
        routed = trial.state["routed"] = cluster.routed(
            ConsistencyLevel(options["level"]),
            staleness_bound_s=options["staleness_bound_s"],
        )
        trial.state["failover"] = {
            "killed_leader": None,
            "new_leader": None,
            "term": cluster.leader_node.term,
            "lost_records": 0,
            "rejoin_mode": None,
        }
        trial.start(lambda: KVStoreDB(routed, props))
        cluster.wait_caught_up()

    def kill(self, trial: Trial) -> None:
        cluster, failover = trial.topology, trial.state["failover"]
        failover["killed_leader"] = cluster.kill_leader()
        promoted = cluster.failover(clean=True)
        failover["new_leader"] = promoted["leader"]
        failover["term"] = promoted["term"]
        failover["lost_records"] = promoted["lost_records"]

    def restore(self, trial: Trial) -> None:
        failover = trial.state["failover"]
        rejoin = trial.topology.rejoin(failover["killed_leader"])
        failover["rejoin_mode"] = rejoin["mode"]

    def recover(self, trial: Trial) -> None:
        trial.topology.wait_caught_up()

    def validate(self, trial: Trial) -> CampaignRun:
        cluster = trial.topology
        strong = cluster.routed(ConsistencyLevel.STRONG)
        trial.post_validate(KVStoreDB(strong, trial.props))
        leader_log = cluster.leader_node.log.snapshot()
        converged = all(
            node.log.snapshot() == leader_log
            for node in cluster.nodes.values()
            if node is not cluster.leader_node
        )
        counters = trial.counters()
        counters.update(trial.state["routed"].counters())
        pre, post = trial.pre(), trial.post()
        failover = trial.state["failover"]
        details = {
            "level": trial.options["level"],
            "follower_count": trial.options["follower_count"],
            "failover": failover,
            "healthy_operations": trial.measured.operations,
            "degraded_operations": trial.degraded_operations,
            "pre_failover": pre,
            "post_failover": {**post, "logs_converged": converged},
        }
        return self._result(
            trial,
            details=details,
            gamma=post["gamma"],
            passed=post["passed"],
            violation=_economy_broken(post) or _protocol_broken(details),
            counters=counters,
            headline=(
                f"{trial.options['level']:<17} seed={trial.seed:<6} "
                f"killed={failover['killed_leader'] or '-':<6} "
                f"new-leader={failover['new_leader'] or '-':<6} "
                f"term={failover['term']} lost={failover['lost_records']} "
                f"rejoin={failover['rejoin_mode'] or '-':<8} "
                f"pre-gamma={pre['gamma']:.6f} post-gamma={post['gamma']:.6f} "
                f"ops={trial.operations} failed={trial.failed_operations}"
            ),
        )

    def gates(self, run: CampaignRun) -> bool:
        return run.details["level"] in GATED_LEVELS or _protocol_broken(run.details)

    def tally(self, runs: list[CampaignRun]) -> str:
        failovers = [run.details["failover"] for run in runs]
        kills = sum(failover["killed_leader"] is not None for failover in failovers)
        max_pre = max(run.details["pre_failover"]["gamma"] for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        return (
            f"{kills} leader kills, {sum(run.violation for run in runs)} violations, "
            f"max pre-gamma {max_pre:.6f}, "
            f"max post-gamma {max(run.gamma for run in runs):.6f}, {wall:.2f} wall s"
        )


def _protocol_broken(details: Mapping[str, Any]) -> bool:
    """Failover lost acknowledged records or left a follower log diverged."""
    return (
        details["failover"]["lost_records"] > 0
        or not details["post_failover"]["logs_converged"]
    )


# ---------------------------------------------------------------------------
# Statistical workload synthesis: ycsbt synth
# ---------------------------------------------------------------------------


class Synth(Scenario):
    """``ycsbt synth``: scenarios x bindings x seeds of synthesized load.

    A run compiles one :class:`SynthSpec` (a built-in scenario name, a
    spec file, or a spec) into a deterministic virtual-time run;
    :func:`~repro.synth.engine.run_synth` builds, loads and drives its
    own serial stack, so the whole run is the inject phase.  The verdict
    is the spec's conformance assertions.  The engine is serial, so even
    the raw binding stays consistent: every violation is gated.
    ``binding=None`` runs the spec's own binding; ``duration`` overrides
    the spec's simulated duration.
    """

    name = "synth"
    prefix = "synth-"
    coordinates = ("{scenario}", "{binding}")
    replay = "--scenario {scenario} --db {binding}"
    options = {"scenario": "steady", "binding": None, "duration": None}
    grid = {"scenarios": ("steady",), "bindings": (None,)}

    def prepare(self, options: dict[str, Any], seed: int) -> Mapping[str, str]:
        spec = options["scenario"]
        if not isinstance(spec, SynthSpec):
            spec = load_synth_spec(spec)
        if options["duration"] is not None:
            spec = spec.with_overrides(duration_s=options["duration"])
        options["spec"] = spec
        options["binding"] = options["binding"] or spec.binding
        return self.defaults

    def build(self, trial: Trial) -> None:
        """The engine stands up its own stack."""

    def inject(self, trial: Trial) -> None:
        options = trial.options
        trial.state["synth"] = run_synth(
            options["spec"], binding=options["binding"], seed=trial.seed
        )

    def validate(self, trial: Trial) -> CampaignRun:
        return synth_run(trial.state["synth"])

    def gates(self, run: CampaignRun) -> bool:
        return True

    def tally(self, runs: list[CampaignRun]) -> str:
        vtime = sum(run.details["virtual_time_s"] for run in runs)
        wall = sum(run.wall_time_s for run in runs)
        peak = max(run.details["peak_user_states"] for run in runs)
        return (
            f"{sum(run.violation for run in runs)} violations, "
            f"{sum(run.operations for run in runs)} ops, "
            f"peak {peak} resident users, "
            f"{vtime:.0f} simulated s in {wall:.1f} wall s"
        )


#: Engine result fields a synth trace carries as they are.
_SYNTH_DETAILS = (
    "scenario",
    "binding",
    "throttled_operations",
    "gamma",
    "validation_passed",
    "arrivals_by_bucket",
    "target_by_bucket",
    "tenant_offered",
    "tenant_admitted",
    "tenant_throttled",
    "peak_user_states",
    "distinct_users",
    "virtual_time_s",
)


def synth_run(result: SynthRunResult) -> CampaignRun:
    """Fold one synthesis engine result into a campaign run.

    Failed assertions become the run's errors; a built-in scenario's full
    spec rides along so the trace replays without the original process.
    """
    details: dict[str, Any] = {name: getattr(result, name) for name in _SYNTH_DETAILS}
    details["validation"] = [list(pair) for pair in result.validation_fields]
    details["assertions"] = [outcome.to_dict() for outcome in result.assertions]
    spec = SYNTH_SPECS.get(result.scenario)
    if spec is not None:
        details["spec"] = spec.to_dict()
    return CampaignRun(
        scenario=SYNTH,
        seed=result.seed,
        details=details,
        violation=result.violation,
        gamma=result.gamma,
        passed=result.validation_passed,
        headline=(
            f"{result.binding:<4} seed={result.seed:<6} "
            f"scenario={result.scenario:<16} ops={result.operations} "
            f"failed={result.failed_operations} "
            f"throttled={result.throttled_operations} gamma={result.gamma:.6f} "
            f"users={result.distinct_users} "
            f"(peak resident {result.peak_user_states}) "
            f"vtime={result.virtual_time_s:.0f}s"
        ),
        operations=result.operations,
        failed_operations=result.failed_operations,
        wall_time_s=result.wall_time_s,
        counters=result.counters,
        properties=result.properties,
        errors=[
            f"{outcome.name}: {outcome.detail}"
            for outcome in result.assertions
            if not outcome.passed
        ],
    )


SIM = Sim()
CRASH = Crash()
CLUSTER = Cluster()
REPLICATION = Replication()
REPLICATED_CLUSTER = ReplicatedCluster()
SYNTH = Synth()

#: The campaign table: one scenario per ``ycsbt`` campaign verb.
SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (SIM, CRASH, CLUSTER, REPLICATION, REPLICATED_CLUSTER, SYNTH)
}
