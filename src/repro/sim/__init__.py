"""Deterministic simulation: virtual-time benchmarking and seeded anomaly hunting.

See ``docs/SIMULATION.md``.  The package splits into:

- :mod:`repro.sim.clock` — the :class:`Clock` protocol, :class:`WallClock`,
  and the ambient-clock context every timing module defaults to.
- :mod:`repro.sim.scheduler` — the event-heap :class:`Scheduler`,
  :class:`SimClock`, and :class:`VirtualResource`.
- :mod:`repro.sim.trace` — operation interleavings for violation traces.

The seed-sweep campaigns (``ycsbt sim`` and its siblings) live in
:mod:`repro.campaign`; the campaign names below resolve there lazily, so
the clock primitives stay dependency-free for the core modules.
"""

from operator import attrgetter

from .clock import (
    WALL_CLOCK,
    Clock,
    WallClock,
    ambient_monotonic,
    ambient_now,
    ambient_now_us,
    ambient_perf_counter_ns,
    ambient_sleep,
    get_clock,
    set_clock,
    use_clock,
)
from .scheduler import SIM_EPOCH, Scheduler, SimClock, SimTaskFailed, VirtualResource

__all__ = [
    "Clock",
    "WallClock",
    "WALL_CLOCK",
    "get_clock",
    "set_clock",
    "use_clock",
    "ambient_sleep",
    "ambient_now",
    "ambient_now_us",
    "ambient_monotonic",
    "ambient_perf_counter_ns",
    "Scheduler",
    "SimClock",
    "SimTaskFailed",
    "VirtualResource",
    "SIM_EPOCH",
    # lazy (see __getattr__): campaign API
    "SimRunResult",
    "CampaignResult",
    "run_sim",
    "run_campaign",
    "write_violation_trace",
    "DEFAULT_SIM_PROPERTIES",
]

#: Campaign names exported here -> their home in :mod:`repro.campaign`.
_LAZY = {
    "SimRunResult": "CampaignRun",
    "CampaignResult": "CampaignResult",
    "run_sim": "SIM.run",
    "run_campaign": "SIM.sweep",
    "write_violation_trace": "write_trace",
    "DEFAULT_SIM_PROPERTIES": "DEFAULT_SIM_PROPERTIES",
}


def __getattr__(name):
    if name in _LAZY:
        from .. import campaign

        return attrgetter(_LAZY[name])(campaign)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
