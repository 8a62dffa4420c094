"""Crash-recovery subsystem: crashpoint injection and transaction scavenging.

The availability tier the benchmark was missing: §VII of the YCSB paper
leaves *availability under failures* as future work, and every transaction
protocol in :mod:`repro.txn` promises lease-based recovery of crashed
clients without any code path ever exercising one.  This package supplies

* :mod:`repro.recovery.crashpoints` — named, schedulable crashpoints
  threaded through the transaction managers, the LSM store's WAL and
  checkpoint paths, and the benchmark workers;
* :mod:`repro.recovery.scavenger` — an explicit recovery pass (plus an
  optional background thread) that finds expired locks and resolves each
  stranded transaction by its decided state: roll-forward if committed,
  roll-back otherwise;
* :data:`repro.campaign.CRASH` — the ``ycsbt crash`` seed sweep: crash a
  client mid-protocol in virtual time, scavenge, and re-validate the
  Closed Economy invariants, emitting replayable traces for violations.
"""

from .crashpoints import (
    CRASHPOINTS,
    CrashError,
    CrashInjector,
    crashpoint,
    get_crash_injector,
    set_crash_injector,
    use_crash_injector,
)


def __getattr__(name: str):
    # Lazy: the scavenger and the store wrapper import the txn/kvstore
    # layers, which themselves import .crashpoints through this package —
    # an eager import here would cycle.
    if name in ("ScavengeStats", "TxnScavenger"):
        from . import scavenger

        return getattr(scavenger, name)
    if name == "CrashpointStore":
        from .store import CrashpointStore

        return CrashpointStore
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "CRASHPOINTS",
    "CrashError",
    "CrashInjector",
    "CrashpointStore",
    "crashpoint",
    "get_crash_injector",
    "set_crash_injector",
    "use_crash_injector",
    "ScavengeStats",
    "TxnScavenger",
]
