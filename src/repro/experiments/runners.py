"""Spec runners: the bridge from declarative specs to the engines.

Each entry compiles one ``ExperimentSpec`` cell into a call against an
existing engine — the wall-clock harness experiments, the virtual-time
simulation engine, or the multi-process scale-out engine — and returns
the engine's :class:`~repro.harness.results.ExperimentResult`.  The
experiment runner calls the same entry once per repetition with a
distinct seed; everything above this layer deals in aggregates only.

The ``cew`` runner is the fully generic cell: binding x fault schedule x
phases x properties against the Closed Economy Workload in virtual time,
deterministic per seed — the cell the CI perf gate runs, because its
numbers are reproducible across machines.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field

from ..harness.results import ExperimentResult, Point, Series

__all__ = ["RunnerInfo", "RUNNERS", "SpecValidationError", "runner_names"]


class SpecValidationError(ValueError):
    """An experiment spec that cannot run; the message says how to fix it."""


@dataclass(frozen=True)
class RunnerInfo:
    """One registered spec runner.

    ``fn(seed=..., quick=..., **params)`` must return an
    :class:`ExperimentResult`.  ``allowed_params`` is the closed set of
    spec ``params`` keys the runner accepts (unknown keys are spec
    errors, not silently ignored kwargs); ``validate`` may add
    runner-specific checks beyond key membership.
    """

    name: str
    fn: Callable[..., ExperimentResult]
    engine: str  # "wall" | "sim" | "scaleout"
    x_label: str = "threads"
    allowed_params: frozenset[str] = frozenset()
    description: str = ""
    validate: Callable[[Mapping[str, object]], None] | None = None
    #: Runners whose output is a pure function of the seed (virtual or
    #: fake time only) — safe to gate CI on across machines.
    deterministic: bool = False


# ---------------------------------------------------------------------------
# The generic virtual-time CEW cell
# ---------------------------------------------------------------------------

#: Phases a cew cell may run, in their only legal order.
CEW_PHASES = ("load", "run")


def _validate_cew_params(params: Mapping[str, object]) -> None:
    from ..campaign import FAULT_SCHEDULES, SIM_BINDINGS

    binding = params.get("binding", "txn")
    if binding not in SIM_BINDINGS:
        raise SpecValidationError(
            f"unknown binding {binding!r}; the cew runner accepts one of "
            f"{sorted(SIM_BINDINGS)} (HTTP bindings need the scaleout "
            "engine — use the fig2mp runner)"
        )
    schedule = params.get("schedule", "baseline")
    if isinstance(schedule, str):
        if schedule != "none" and schedule not in FAULT_SCHEDULES:
            raise SpecValidationError(
                f"unknown fault schedule {schedule!r}; use one of "
                f"{sorted(FAULT_SCHEDULES) + ['none']} or an inline "
                "{'fault.<knob>': value} mapping"
            )
    elif not isinstance(schedule, Mapping):
        raise SpecValidationError(
            f"schedule must be a name or a mapping, got {type(schedule).__name__}"
        )
    phases = params.get("phases", CEW_PHASES)
    if isinstance(phases, str) or not isinstance(phases, Sequence):
        raise SpecValidationError(
            f"phases must be a sequence of phase names, got {phases!r}"
        )
    phases = tuple(phases)
    if len(set(phases)) != len(phases):
        raise SpecValidationError(
            f"conflicting phases {list(phases)}: each phase may appear once"
        )
    for phase in phases:
        if phase not in CEW_PHASES:
            raise SpecValidationError(
                f"unknown phase {phase!r}; valid phases are {list(CEW_PHASES)}"
            )
    if not phases:
        raise SpecValidationError("phases must not be empty")
    if phases == ("run",):
        raise SpecValidationError(
            "conflicting phases ['run']: the run phase needs the load phase "
            "first (every seed starts from an empty store); use "
            "['load', 'run']"
        )
    if phases not in (("load",), ("load", "run")):
        raise SpecValidationError(
            f"phases {list(phases)} are out of order; the only legal orders "
            f"are ['load'] and ['load', 'run']"
        )
    thread_counts = params.get("thread_counts")
    if thread_counts is not None:
        if isinstance(thread_counts, str) or not isinstance(thread_counts, Sequence):
            raise SpecValidationError(
                f"thread_counts must be a sequence of ints, got {thread_counts!r}"
            )
        for count in thread_counts:
            if not isinstance(count, int) or count < 1:
                raise SpecValidationError(
                    f"thread_counts entries must be ints >= 1, got {count!r}"
                )
    properties = params.get("properties", {})
    if not isinstance(properties, Mapping):
        raise SpecValidationError(
            f"properties must be a mapping of workload properties, got "
            f"{type(properties).__name__}"
        )


def run_cew_cell(
    seed: int = 0,
    quick: bool = True,
    binding: str = "txn",
    schedule: str | Mapping[str, str] = "baseline",
    phases: Sequence[str] = CEW_PHASES,
    thread_counts: Sequence[int] | None = None,
    properties: Mapping[str, str] | None = None,
) -> ExperimentResult:
    """One generic CEW cell in deterministic virtual time.

    Built on the sim campaign's single run (:data:`repro.campaign.SIM`):
    load phase fault-free, the named fault schedule switched on for the
    measured run phase, every sleep on a fresh :class:`SimClock`.
    ``thread_counts`` turns the cell into a sweep (one point per thread
    count, each on its own clock and store); without it the cell is a
    single point at the configured ``threadcount``.
    """
    from ..campaign import SIM

    _validate_cew_params(
        {
            "binding": binding,
            "schedule": schedule,
            "phases": tuple(phases),
            "thread_counts": tuple(thread_counts) if thread_counts is not None else None,
            "properties": properties or {},
        }
    )
    phases = tuple(phases)
    overrides = {str(key): str(value) for key, value in (properties or {}).items()}
    if not quick:
        # The full variant runs 4x the operations unless the spec pins them.
        base_ops = int(overrides.get("operationcount", "400"))
        overrides.setdefault("operationcount", str(base_ops * 4))
    schedule_arg: str | Mapping[str, str]
    if schedule == "none":
        schedule_arg = {}
    else:
        schedule_arg = schedule

    schedule_label = schedule if isinstance(schedule, str) else "custom"
    result = ExperimentResult(
        experiment="cew",
        description=(
            f"Closed Economy Workload cell: {binding} binding, "
            f"{schedule_label} fault schedule, virtual time"
        ),
        notes=[
            f"phases: {'+'.join(phases)}",
            "deterministic: every metric is a pure function of the seed",
        ],
    )
    series = Series(label=f"{binding}/{schedule_label}")
    sweep = tuple(thread_counts) if thread_counts else (None,)
    for threads in sweep:
        point_overrides = dict(overrides)
        if threads is not None:
            point_overrides["threadcount"] = str(threads)
        run = SIM.run(
            binding=binding,
            properties=point_overrides,
            seed=seed,
            schedule=schedule_arg,
            trace=False,
        )
        if run.errors:
            raise RuntimeError(
                f"cew cell (seed {seed}, threads {threads}) reported errors: "
                f"{run.errors}"
            )
        measured_run = phases != ("load",)
        operations = run.operations if measured_run else run.load_operations
        virtual_s = run.details["virtual_run_time_s"]
        x = float(threads) if threads is not None else float(
            int(run.properties.get("threadcount", "1"))
        )
        series.points.append(
            Point(
                x=x,
                throughput=(operations / virtual_s) if virtual_s > 0 else 0.0,
                anomaly_score=run.gamma,
                operations=operations,
                failed_operations=run.failed_operations,
                extra={
                    "events_processed": run.details["events_processed"],
                    "virtual_run_time_s": virtual_s,
                },
            )
        )
    result.series.append(series)
    return result


# ---------------------------------------------------------------------------
# The shard-scaling cell: CEW against a live multi-shard cluster
# ---------------------------------------------------------------------------

#: Per-shard request ceiling for the scaling cell.  Latency is kept tiny
#: (the wire adds its own); the token bucket is what makes throughput a
#: function of shard count — one shard plateaus at the bucket rate, N
#: shards at N buckets, the paper's Fig. 2 plateau story scaled out.
_SHARD_PROFILE_PARAMS = {
    "name": "shard",
    "read_median_s": 0.001,
    "write_median_s": 0.0015,
    "sigma": 0.25,
    "requests_per_second": 400.0,
    "burst": 32.0,
    "reject_on_throttle": False,
}

_SHARD_SCALING_BINDINGS = ("raw", "txn")


def _validate_shard_scaling_params(params: Mapping[str, object]) -> None:
    shard_counts = params.get("shard_counts")
    if shard_counts is not None:
        if isinstance(shard_counts, str) or not isinstance(shard_counts, Sequence):
            raise SpecValidationError(
                f"shard_counts must be a sequence of ints, got {shard_counts!r}"
            )
        for count in shard_counts:
            if not isinstance(count, int) or count < 1:
                raise SpecValidationError(
                    f"shard_counts entries must be ints >= 1, got {count!r}"
                )
    bindings = params.get("bindings")
    if bindings is not None:
        if isinstance(bindings, str) or not isinstance(bindings, Sequence):
            raise SpecValidationError(
                f"bindings must be a sequence of binding names, got {bindings!r}"
            )
        for binding in bindings:
            if binding not in _SHARD_SCALING_BINDINGS:
                raise SpecValidationError(
                    f"unknown binding {binding!r}; the shard_scaling runner "
                    f"accepts {list(_SHARD_SCALING_BINDINGS)}"
                )
    properties = params.get("properties", {})
    if not isinstance(properties, Mapping):
        raise SpecValidationError(
            f"properties must be a mapping of workload properties, got "
            f"{type(properties).__name__}"
        )


def run_shard_scaling(
    seed: int = 0,
    quick: bool = True,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
    bindings: Sequence[str] = ("raw", "txn"),
    properties: Mapping[str, str] | None = None,
) -> ExperimentResult:
    """Tier-5 throughput + Tier-6 anomaly as the shard count grows.

    Each point launches a fresh :class:`~repro.cluster.cluster.
    ShardCluster` whose shards are rate-limited simulated cloud stores
    behind real HTTP servers, then runs the CEW against it — the ``raw``
    binding through the shard router, the ``txn`` binding through
    cross-shard two-phase commit.  Throughput should rise with the shard
    count (each shard brings its own request ceiling) while the anomaly
    score stays 0 on ``txn`` at every scale; ``raw`` is the racing
    baseline.  Wall-clock: real sockets, real sleeps — gate with wide
    margins only.
    """
    import random

    from ..bindings.kv import KVStoreDB
    from ..bindings.txn import TxnDB
    from ..campaign import DEFAULT_CLUSTER_PROPERTIES
    from ..cluster.cluster import ShardCluster
    from ..core.client import Client
    from ..core.closed_economy import ClosedEconomyWorkload
    from ..core.properties import Properties
    from ..core.retry import RetryPolicy
    from ..kvstore.cloud import CloudStoreProfile, SimulatedCloudStore
    from ..measurements.registry import Measurements

    _validate_shard_scaling_params(
        {
            "shard_counts": tuple(shard_counts),
            "bindings": tuple(bindings),
            "properties": properties or {},
        }
    )
    values = dict(DEFAULT_CLUSTER_PROPERTIES)
    # Enough client concurrency to saturate the largest cluster's
    # aggregate ceiling; specs may still override it.
    values["threadcount"] = "12"
    values.update({str(key): str(value) for key, value in (properties or {}).items()})
    if not quick:
        base_ops = int(values.get("operationcount", "400"))
        values["operationcount"] = str(base_ops * 4)
    values["seed"] = str(seed)
    values["retry.seed"] = str(seed + 2)
    props = Properties(values)
    profile = CloudStoreProfile(**_SHARD_PROFILE_PARAMS)

    result = ExperimentResult(
        experiment="shard_scaling",
        description=(
            "CEW over a live shard cluster: throughput vs shard count "
            "(per-shard request ceiling), anomaly score per binding"
        ),
        notes=[
            f"per-shard ceiling: {profile.requests_per_second:.0f} requests/s",
            "wall-clock over real HTTP servers: NOT deterministic",
        ],
    )
    for binding in bindings:
        series = Series(label=binding)
        for count in shard_counts:
            cell_rng = random.Random((seed * 1000003 + count) % (2**31))
            with ShardCluster(
                count,
                store_factory=lambda name: SimulatedCloudStore(
                    profile, rng=random.Random(cell_rng.getrandbits(32))
                ),
                lock_lease_ms=props.get_float("txn.lock_lease_ms", 1000.0),
                retry_policy_factory=lambda: RetryPolicy.from_properties(props),
            ) as cluster:
                if binding == "txn":
                    manager = cluster.manager(client_id=f"scale{seed}")
                    db_factory = lambda: TxnDB(props, manager=manager)  # noqa: E731
                else:
                    router = cluster.router()
                    db_factory = lambda: KVStoreDB(router, props)  # noqa: E731
                workload = ClosedEconomyWorkload()
                measurements = Measurements.from_properties(props)
                workload.init(props, measurements)
                client = Client(workload, db_factory, props, measurements)
                load = client.load()
                run = client.run()
                workload.cleanup()
            if load.errors or run.errors:
                raise RuntimeError(
                    f"shard_scaling cell (binding {binding}, {count} shards, "
                    f"seed {seed}) reported errors: {load.errors + run.errors}"
                )
            series.points.append(
                Point(
                    x=float(count),
                    throughput=run.throughput,
                    anomaly_score=run.anomaly_score if run.anomaly_score is not None else 0.0,
                    operations=run.operations,
                    failed_operations=run.failed_operations,
                    extra={"run_time_s": run.run_time_ms / 1000.0},
                )
            )
        result.series.append(series)
    return result


# ---------------------------------------------------------------------------
# The workload-synthesis cell: a statistical campaign as an experiment
# ---------------------------------------------------------------------------

_SYNTH_BINDINGS = ("raw", "txn")


def _validate_synth_params(params: Mapping[str, object]) -> None:
    from ..synth.spec import scenario_names

    scenario = params.get("scenario", "diurnal")
    if not isinstance(scenario, str) or not scenario:
        raise SpecValidationError(
            f"scenario must be a scenario name or spec-file path, got {scenario!r}"
        )
    binding = params.get("binding")
    if binding is not None and binding not in _SYNTH_BINDINGS:
        raise SpecValidationError(
            f"unknown binding {binding!r}; the synth_cew runner accepts "
            f"{list(_SYNTH_BINDINGS)} (or omit it to use the spec's own)"
        )
    duration_s = params.get("duration_s")
    if duration_s is not None and (
        not isinstance(duration_s, (int, float))
        or isinstance(duration_s, bool)
        or duration_s <= 0
    ):
        raise SpecValidationError(f"duration_s must be > 0, got {duration_s!r}")
    properties = params.get("properties", {})
    if not isinstance(properties, Mapping):
        raise SpecValidationError(
            f"properties must be a mapping of workload properties, got "
            f"{type(properties).__name__}"
        )
    # Resolve built-in names eagerly so typos fail at spec time, not run
    # time; file paths are checked when the cell runs.
    from pathlib import Path

    if not Path(scenario).suffix and not Path(scenario).exists():
        if scenario not in scenario_names():
            raise SpecValidationError(
                f"unknown synth scenario {scenario!r}; built-ins: "
                f"{', '.join(scenario_names())}"
            )


def run_synth_cell(
    seed: int = 0,
    quick: bool = True,
    scenario: str = "diurnal",
    binding: str | None = None,
    duration_s: float | None = None,
    properties: Mapping[str, str] | None = None,
) -> ExperimentResult:
    """One synthesized statistical campaign as a deterministic experiment.

    Compiles the scenario's :class:`~repro.synth.spec.SynthSpec` through
    :func:`~repro.synth.engine.run_synth` and reports the campaign as an
    experiment cell: one series point per conformance bucket (achieved
    rate vs the target curve), tables for tenants and assertions, and
    the per-operation HDR histograms attached so the aggregation layer
    computes pooled percentiles with CI bands across repetitions.  A
    failed deterministic assertion raises — the cell must conform, not
    just complete.  ``quick`` caps the campaign at 300 virtual seconds.
    """
    import dataclasses

    from ..synth.engine import run_synth
    from ..synth.spec import load_synth_spec

    _validate_synth_params(
        {
            "scenario": scenario,
            "binding": binding,
            "duration_s": duration_s,
            "properties": properties or {},
        }
    )
    spec = load_synth_spec(scenario)
    if duration_s is None and quick:
        duration_s = min(spec.duration_s, 300.0)
    spec = spec.with_overrides(binding=binding, duration_s=duration_s)
    if properties:
        merged = dict(spec.properties)
        merged.update({str(key): str(value) for key, value in properties.items()})
        spec = dataclasses.replace(spec, properties=merged)
    run = run_synth(spec, seed=seed)
    if run.violation:
        failed = [a.name for a in run.assertions if not a.passed]
        details = "; ".join(
            a.detail for a in run.assertions if not a.passed
        )
        raise RuntimeError(
            f"synth_cew cell (scenario {spec.name}, binding {run.binding}, "
            f"seed {seed}) violated assertions {failed}: {details}"
        )

    buckets = len(run.target_by_bucket)
    step = spec.duration_s / buckets if buckets else 0.0
    series = Series(label=f"{spec.name}/{run.binding}")
    for index in range(buckets):
        executed = run.executed_by_bucket[index]
        series.points.append(
            Point(
                x=round(index * step, 6),
                throughput=(executed / step) if step > 0 else 0.0,
                operations=executed,
                extra={
                    "target_rate": run.target_by_bucket[index],
                    "arrivals": run.arrivals_by_bucket[index],
                },
            )
        )
    result = ExperimentResult(
        experiment="synth_cew",
        description=(
            f"synthesized campaign {spec.name!r} on the {run.binding} "
            "binding: achieved rate per conformance bucket vs the target "
            "curve, virtual time"
        ),
        notes=[
            f"{spec.users:,} simulated users, {run.distinct_users:,} active "
            f"this run, peak {run.peak_user_states} resident",
            "deterministic: every metric is a pure function of the seed",
        ],
        series=[series],
        histograms=dict(run.histograms),
    )
    result.tables["campaign"] = [
        {
            "operations": run.operations,
            "failed_operations": run.failed_operations,
            "throttled_operations": run.throttled_operations,
            "anomaly_score": run.gamma,
            "peak_user_states": run.peak_user_states,
            "distinct_users": run.distinct_users,
            "virtual_time_s": run.virtual_time_s,
        }
    ]
    result.tables["tenants"] = [
        {
            "tenant": name,
            "offered": run.tenant_offered[name],
            "admitted": run.tenant_admitted[name],
            "throttled": run.tenant_throttled[name],
        }
        for name in sorted(run.tenant_offered)
    ]
    result.tables["assertions"] = [
        {"assertion": outcome.name, "passed": outcome.passed}
        for outcome in run.assertions
    ]
    return result


# ---------------------------------------------------------------------------
# The consistency frontier: read level x replication lag, virtual time
# ---------------------------------------------------------------------------

_FRONTIER_LEVELS = ("strong", "read_your_writes", "bounded_staleness")


def _validate_consistency_frontier_params(params: Mapping[str, object]) -> None:
    lag_ms = params.get("lag_ms")
    if lag_ms is not None:
        if isinstance(lag_ms, str) or not isinstance(lag_ms, Sequence):
            raise SpecValidationError(
                f"lag_ms must be a sequence of positive numbers, got {lag_ms!r}"
            )
        for lag in lag_ms:
            if not isinstance(lag, (int, float)) or isinstance(lag, bool) or lag <= 0:
                raise SpecValidationError(
                    f"lag_ms entries must be > 0 (a zero shipping interval "
                    f"never advances virtual time), got {lag!r}"
                )
    levels = params.get("levels")
    if levels is not None:
        if isinstance(levels, str) or not isinstance(levels, Sequence):
            raise SpecValidationError(
                f"levels must be a sequence of level names, got {levels!r}"
            )
        for level in levels:
            if level not in _FRONTIER_LEVELS:
                raise SpecValidationError(
                    f"unknown consistency level {level!r}; the "
                    f"consistency_frontier runner accepts {list(_FRONTIER_LEVELS)}"
                )
    bound = params.get("staleness_bound_ms")
    if bound is not None and (
        not isinstance(bound, (int, float)) or isinstance(bound, bool) or bound <= 0
    ):
        raise SpecValidationError(
            f"staleness_bound_ms must be > 0, got {bound!r}"
        )
    for key in ("sessions", "ops_per_session", "follower_count"):
        value = params.get(key)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise SpecValidationError(f"{key} must be an int >= 1, got {value!r}")


def run_consistency_frontier(
    seed: int = 0,
    quick: bool = True,
    lag_ms: Sequence[float] = (5, 20, 80, 160, 280),
    levels: Sequence[str] = _FRONTIER_LEVELS,
    staleness_bound_ms: float = 300.0,
    sessions: int = 4,
    ops_per_session: int = 80,
    follower_count: int = 2,
) -> ExperimentResult:
    """The consistency-versus-staleness frontier in virtual time.

    One :func:`~repro.replication.probe.run_probe` per (level, lag)
    cell: N session tasks against a leader + followers replica set whose
    log shipper wakes every ``lag`` milliseconds.  Each point reports the
    Tier-6-style anomaly score (fraction of reads that missed the
    newest write) plus the conformance-oracle violation counts for the
    guarantees the level actually promises.  ``strong`` must sit at
    anomaly 0 with zero violations at every lag; relaxed levels trade a
    growing anomaly score for follower offload while their own
    guarantees (session order, the staleness bound) stay at zero
    violations.  Deterministic: every number is a pure function of the
    seed, so CI pins the whole frontier against a committed baseline.

    The default sweep keeps every lag at or below the staleness bound;
    beyond the bound the bounded level routes back to the leader and its
    anomaly score falls again, which would break the monotone-frontier
    reading of the figure.
    """
    from ..replication.probe import run_probe

    _validate_consistency_frontier_params(
        {
            "lag_ms": tuple(lag_ms),
            "levels": tuple(levels),
            "staleness_bound_ms": staleness_bound_ms,
            "sessions": sessions,
            "ops_per_session": ops_per_session,
            "follower_count": follower_count,
        }
    )
    if not quick:
        ops_per_session *= 4
    result = ExperimentResult(
        experiment="consistency_frontier",
        description=(
            "per-read consistency level x replication lag: anomaly score "
            "and conformance violations over the replication protocol"
        ),
        notes=[
            f"staleness bound: {staleness_bound_ms:g} ms; "
            f"{sessions} sessions x {ops_per_session} ops; "
            f"{follower_count} followers",
            "deterministic: every metric is a pure function of the seed",
        ],
    )
    for level in levels:
        series = Series(label=level)
        for lag in lag_ms:
            probe = run_probe(
                seed=seed,
                level=level,
                ship_interval_s=lag / 1000.0,
                staleness_bound_s=staleness_bound_ms / 1000.0,
                sessions=sessions,
                ops_per_session=ops_per_session,
                follower_count=follower_count,
            )
            report = probe.report
            if not probe.followers_prefix_ok or not probe.followers_caught_up:
                raise RuntimeError(
                    f"consistency_frontier cell (level {level}, lag {lag} ms, "
                    f"seed {seed}): replication did not converge"
                )
            operations = report.reads + report.writes
            elapsed = probe.virtual_elapsed_s
            series.points.append(
                Point(
                    x=float(lag),
                    throughput=(operations / elapsed) if elapsed > 0 else 0.0,
                    anomaly_score=report.anomaly_score,
                    operations=operations,
                    failed_operations=0,
                    extra={
                        "stale_reads": report.stale_reads,
                        "ryw_violations": len(report.ryw_violations),
                        "monotonic_violations": len(report.monotonic_violations),
                        "bounded_violations": len(report.bounded_violations),
                        "follower_read_fraction": probe.follower_read_fraction,
                        "virtual_run_time_s": elapsed,
                    },
                )
            )
        result.series.append(series)
    return result


# ---------------------------------------------------------------------------
# The replicated-shard frontier: consistency x lag over replicated shards
# ---------------------------------------------------------------------------

_REPLICATED_LEVELS = ("strong", "quorum", "read_your_writes", "bounded_staleness")


def _validate_replicated_frontier_params(params: Mapping[str, object]) -> None:
    lag_ms = params.get("lag_ms")
    if lag_ms is not None:
        if isinstance(lag_ms, str) or not isinstance(lag_ms, Sequence):
            raise SpecValidationError(
                f"lag_ms must be a sequence of positive numbers, got {lag_ms!r}"
            )
        for lag in lag_ms:
            if not isinstance(lag, (int, float)) or isinstance(lag, bool) or lag <= 0:
                raise SpecValidationError(
                    f"lag_ms entries must be > 0 (a zero shipping interval "
                    f"never advances virtual time), got {lag!r}"
                )
    levels = params.get("levels")
    if levels is not None:
        if isinstance(levels, str) or not isinstance(levels, Sequence):
            raise SpecValidationError(
                f"levels must be a sequence of level names, got {levels!r}"
            )
        for level in levels:
            if level not in _REPLICATED_LEVELS:
                raise SpecValidationError(
                    f"unknown consistency level {level!r}; the "
                    f"replicated_shard_frontier runner accepts "
                    f"{list(_REPLICATED_LEVELS)}"
                )
    bound = params.get("staleness_bound_ms")
    if bound is not None and (
        not isinstance(bound, (int, float)) or isinstance(bound, bool) or bound <= 0
    ):
        raise SpecValidationError(f"staleness_bound_ms must be > 0, got {bound!r}")
    for key in ("sessions", "ops_per_session", "shard_count", "follower_count"):
        value = params.get(key)
        if value is not None and (
            not isinstance(value, int) or isinstance(value, bool) or value < 1
        ):
            raise SpecValidationError(f"{key} must be an int >= 1, got {value!r}")
    nemesis = params.get("nemesis")
    if nemesis is not None and not isinstance(nemesis, bool):
        raise SpecValidationError(f"nemesis must be a bool, got {nemesis!r}")


def run_replicated_shard_frontier(
    seed: int = 0,
    quick: bool = True,
    lag_ms: Sequence[float] = (10, 40, 120),
    levels: Sequence[str] = _REPLICATED_LEVELS,
    staleness_bound_ms: float = 300.0,
    shard_count: int = 2,
    follower_count: int = 2,
    sessions: int = 4,
    ops_per_session: int = 40,
    nemesis: bool = True,
) -> ExperimentResult:
    """The consistency frontier over the *replicated shard* topology.

    One :func:`~repro.cluster.probe.run_replicated_probe` per
    (level, lag) cell: N session tasks mixing unique-marker operations
    with cross-shard 2PC transfers over a closed economy against a
    cluster of replica-set shards, while — with ``nemesis`` on — one
    shard's leader is killed mid-run and the shard fails over on its
    lease.  Each point reports the anomaly score under that level's
    guarantee plus the convergence verdict of the repair phase: total
    cash preserved through the failover, zero residual locks, every
    follower log a prefix of its leader's.  ``strong`` and ``quorum``
    must sit at anomaly 0 at every lag *including through the leader
    kill*; every cell must converge.  Deterministic: every number is a
    pure function of the seed.
    """
    from ..cluster.probe import run_replicated_probe

    _validate_replicated_frontier_params(
        {
            "lag_ms": tuple(lag_ms),
            "levels": tuple(levels),
            "staleness_bound_ms": staleness_bound_ms,
            "shard_count": shard_count,
            "follower_count": follower_count,
            "sessions": sessions,
            "ops_per_session": ops_per_session,
            "nemesis": nemesis,
        }
    )
    if not quick:
        ops_per_session *= 4
    result = ExperimentResult(
        experiment="replicated_shard_frontier",
        description=(
            "consistency level x replication lag over replica-set shards "
            "with cross-shard 2PC and a mid-run leader failover"
        ),
        notes=[
            f"{shard_count} shards x {1 + follower_count} replicas; "
            f"staleness bound {staleness_bound_ms:g} ms; "
            f"{sessions} sessions x {ops_per_session} ops; "
            f"nemesis={'leader kill + lease failover' if nemesis else 'off'}",
            "deterministic: every metric is a pure function of the seed",
        ],
    )
    for level in levels:
        series = Series(label=level)
        for lag in lag_ms:
            probe = run_replicated_probe(
                seed=seed,
                level=level,
                shard_count=shard_count,
                follower_count=follower_count,
                ship_interval_s=lag / 1000.0,
                staleness_bound_s=staleness_bound_ms / 1000.0,
                sessions=sessions,
                ops_per_session=ops_per_session,
                nemesis={"at_s": 0.3, "rejoin_after_s": 0.5} if nemesis else None,
            )
            report = probe.report
            if not probe.converged:
                raise RuntimeError(
                    f"replicated_shard_frontier cell (level {level}, lag "
                    f"{lag} ms, seed {seed}): cluster did not converge "
                    f"(economy {probe.economy_total}/{probe.economy_expected}, "
                    f"residual locks {probe.residual_locks}, "
                    f"prefix_ok {probe.followers_prefix_ok})"
                )
            if level in ("strong", "quorum") and report.anomaly_score > 0.0:
                raise RuntimeError(
                    f"replicated_shard_frontier cell (level {level}, lag "
                    f"{lag} ms, seed {seed}): anomaly score "
                    f"{report.anomaly_score} > 0 under a strong guarantee"
                )
            operations = report.reads + report.writes
            elapsed = probe.virtual_elapsed_s
            series.points.append(
                Point(
                    x=float(lag),
                    throughput=(operations / elapsed) if elapsed > 0 else 0.0,
                    anomaly_score=report.anomaly_score,
                    operations=operations,
                    failed_operations=probe.ops_unavailable,
                    extra={
                        "stale_reads": report.stale_reads,
                        "ryw_violations": len(report.ryw_violations),
                        "monotonic_violations": len(report.monotonic_violations),
                        "bounded_violations": len(report.bounded_violations),
                        "transfers_committed": probe.transfers_committed,
                        "transfers_aborted": probe.transfers_aborted,
                        "failovers": len(probe.failovers),
                        "residual_locks": probe.residual_locks,
                        "economy_ok": probe.economy_ok,
                        "virtual_run_time_s": elapsed,
                    },
                )
            )
        result.series.append(series)
    return result


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def _harness(name: str):
    """Late import of a harness experiment (keeps import cost off the CLI)."""
    def call(seed: int = 42, quick: bool = True, **params):
        from .. import harness

        return getattr(harness, name)(quick=quick, seed=seed, **params)

    return call


RUNNERS: dict[str, RunnerInfo] = {}


def _register(info: RunnerInfo) -> None:
    RUNNERS[info.name] = info


def runner_names() -> list[str]:
    return sorted(RUNNERS)


_register(
    RunnerInfo(
        name="cew",
        fn=run_cew_cell,
        engine="sim",
        x_label="threads",
        allowed_params=frozenset(
            {"binding", "schedule", "phases", "thread_counts", "properties"}
        ),
        description="generic CEW cell: binding x fault schedule x phases, virtual time",
        validate=_validate_cew_params,
        deterministic=True,
    )
)
_register(
    RunnerInfo(
        name="fig2",
        fn=_harness("fig2_cloud_scaling"),
        engine="wall",
        allowed_params=frozenset({"thread_counts", "mixes", "scale"}),
        description="Fig. 2: throughput vs threads against the simulated WAS container",
    )
)
_register(
    RunnerInfo(
        name="sim_figure2",
        fn=_harness("sim_figure2"),
        engine="sim",
        allowed_params=frozenset({"thread_counts", "mixes"}),
        description="Fig. 2 regenerated in deterministic virtual time",
        deterministic=True,
    )
)
_register(
    RunnerInfo(
        name="fig2mp",
        fn=_harness("figure2_multiprocess"),
        engine="scaleout",
        x_label="processes",
        allowed_params=frozenset({"process_counts", "threads_per_worker"}),
        description="Fig. 2 with real worker processes over the scale-out engine",
    )
)
_register(
    RunnerInfo(
        name="fig3",
        fn=_harness("fig3_transaction_overhead"),
        engine="wall",
        allowed_params=frozenset({"thread_counts", "scale"}),
        description="Fig. 3: transactional vs raw throughput",
    )
)
_register(
    RunnerInfo(
        name="fig4",
        fn=_harness("fig4_anomaly_score"),
        engine="wall",
        allowed_params=frozenset({"thread_counts", "scale"}),
        description="Fig. 4: threads vs anomaly score",
    )
)
_register(
    RunnerInfo(
        name="fig5",
        fn=_harness("fig5_raw_scaling"),
        engine="wall",
        allowed_params=frozenset({"thread_counts", "scale"}),
        description="Fig. 5: threads vs raw throughput",
    )
)
_register(
    RunnerInfo(
        name="tier5",
        fn=_harness("tier5_operation_overhead"),
        engine="wall",
        allowed_params=frozenset({"scale", "threads"}),
        description="Tier 5: per-operation transactional overhead table",
    )
)
_register(
    RunnerInfo(
        name="tier6",
        fn=_harness("tier6_consistency"),
        engine="wall",
        allowed_params=frozenset({"scale", "threads"}),
        description="Tier 6: consistency validation, raw vs transactional",
    )
)
_register(
    RunnerInfo(
        name="ablation",
        fn=_harness("ablation_coordinators"),
        engine="wall",
        x_label="oracle RPC delay (ms)",
        allowed_params=frozenset({"oracle_delays_ms", "scale", "threads"}),
        description="coordinator designs vs central-oracle RPC delay",
    )
)
_register(
    RunnerInfo(
        name="isolation",
        fn=_harness("isolation_matrix"),
        engine="wall",
        allowed_params=frozenset({"scale", "threads"}),
        description="anomaly-targeting workloads vs isolation level",
    )
)
_register(
    RunnerInfo(
        name="shard_scaling",
        fn=run_shard_scaling,
        engine="wall",
        x_label="shards",
        allowed_params=frozenset({"shard_counts", "bindings", "properties"}),
        description=(
            "CEW over a live shard cluster: throughput + anomaly vs shard "
            "count (raw router and cross-shard 2PC)"
        ),
        validate=_validate_shard_scaling_params,
    )
)
_register(
    RunnerInfo(
        name="synth_cew",
        fn=run_synth_cell,
        engine="sim",
        x_label="virtual time (s)",
        allowed_params=frozenset(
            {"scenario", "binding", "duration_s", "properties"}
        ),
        description=(
            "synthesized statistical campaign (arrival curve x drifting "
            "skew x tenants) as a conformance-checked cell, virtual time"
        ),
        validate=_validate_synth_params,
        deterministic=True,
    )
)
_register(
    RunnerInfo(
        name="consistency_frontier",
        fn=run_consistency_frontier,
        engine="sim",
        x_label="replication lag (ms)",
        allowed_params=frozenset(
            {
                "lag_ms",
                "levels",
                "staleness_bound_ms",
                "sessions",
                "ops_per_session",
                "follower_count",
            }
        ),
        description=(
            "consistency level x replication lag over the real replication "
            "protocol: anomaly score + conformance violations, virtual time"
        ),
        validate=_validate_consistency_frontier_params,
        deterministic=True,
    )
)
_register(
    RunnerInfo(
        name="replicated_shard_frontier",
        fn=run_replicated_shard_frontier,
        engine="sim",
        x_label="replication lag (ms)",
        allowed_params=frozenset(
            {
                "lag_ms",
                "levels",
                "staleness_bound_ms",
                "shard_count",
                "follower_count",
                "sessions",
                "ops_per_session",
                "nemesis",
            }
        ),
        description=(
            "consistency level x lag over replica-set shards with cross-shard "
            "2PC and a mid-run leader failover, virtual time"
        ),
        validate=_validate_replicated_frontier_params,
        deterministic=True,
    )
)
_register(
    RunnerInfo(
        name="staleness",
        fn=_harness("staleness_curve"),
        engine="wall",
        x_label="delay (ms)",
        allowed_params=frozenset({"delays_ms", "lag_ms", "samples"}),
        description="stale-read probability vs time since write (fake clock)",
        deterministic=True,
    )
)
