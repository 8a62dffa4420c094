"""Layered CEW benchmark: one command, closed-loop CEW workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cew-http --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an
untraced / traced / untraced sequence of phases and prints the per-layer
metrics of the traced phase.  Human-readable lines go first; the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Every run checks the
outputs (CEW validation with anomaly score 0, no leftover status records
or locks, no in-doubt 2PC state, and in traced runs the proxy
cross-check); a failed check prints ``"correct": false`` and exits 1.
See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: set-ups per end-to-end run; ``setup_s`` is their median.
SETUPS = 3
#: seconds the process stays on one CPU (see :class:`CpuRotation`).
ROTATE_SECONDS = 0.5


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def percentile(values: list[int], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class CpuRotation:
    """Keeps every thread of the process on one CPU, and moves them all
    to the next allowed CPU every ``period`` seconds.

    Client and in-process server threads hand the interpreter lock back
    and forth on every round trip.  Spread over two vCPUs, each handoff
    also waits for whichever vCPU the host has descheduled, which turned
    sub-millisecond round trips into multi-millisecond stalls in bursts.
    So the threads share one CPU at a time.  The speed of each vCPU of a
    shared host drifts by about 15 % on its own over seconds; rotating
    averages the drift of all of them instead of riding one for a whole
    run.
    """

    def __init__(self, period: float = ROTATE_SECONDS):
        affinity = getattr(os, "sched_getaffinity", None)
        self.cpus = sorted(affinity(0)) if affinity else []
        self.period = period
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def __enter__(self) -> "CpuRotation":
        if self.cpus:
            self._pin(self.cpus[0])
        if len(self.cpus) > 1:
            self._thread = threading.Thread(
                target=self._rotate, name="cpu-rotation", daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join()

    def _rotate(self) -> None:
        index = 0
        while not self._stop.wait(self.period):
            index = (index + 1) % len(self.cpus)
            self._pin(self.cpus[index])

    @staticmethod
    def _pin(cpu: int) -> None:
        # A thread started meanwhile inherits its creator's CPU and is
        # moved at the next turn.
        for tid in os.listdir("/proc/self/task"):
            try:
                os.sched_setaffinity(int(tid), {cpu})
            except OSError:
                pass  # the thread has ended


def environment(seed: int, flush_policy: str, rotation: CpuRotation) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    container = Path("/.dockerenv").exists() or Path("/run/.containerenv").exists()
    try:
        cgroup = Path("/proc/1/cgroup").read_text()
        container = container or any(
            marker in cgroup for marker in ("docker", "kubepods", "containerd", "lxc")
        )
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "rotated_cpus": rotation.cpus,
        "rotate_s": rotation.period,
        "python": platform.python_version(),
        "container": container,
        "seed": seed,
        "flush_policy": flush_policy,
    }


def end_to_end(stack_class, workdir: Path, seed: int, seconds: float):
    """Set up ``SETUPS`` times, measure one untraced phase on the last."""
    from cew import READ, TRANSFER, timed_setup

    setup_times = []
    for attempt in range(SETUPS):
        stack, took = timed_setup(stack_class, workdir / f"setup{attempt}", None, seed)
        setup_times.append(took)
        if attempt < SETUPS - 1:
            stack.close()
    try:
        phase = stack.run_phase(seed * 1000 + 1, seconds=seconds)
        stack.check_residue()
    finally:
        stack.close()
    log = phase.log
    reads, transfers = log.latencies_ns[READ], log.latencies_ns[TRANSFER]
    windows = log.windows()
    if not reads or not transfers or not windows:
        raise RuntimeError("a run must hold reads, transfers and one full window")

    def window_median(statistic) -> float:
        return statistics.median(statistic(*window) for window in windows)

    metrics = {
        "throughput_ops_s": window_median(lambda s, lat, ok: ok / s),
        "read_p50_us": window_median(lambda s, lat, ok: percentile(lat[READ], 0.5)) / 1e3,
        "transfer_p50_us": window_median(lambda s, lat, ok: percentile(lat[TRANSFER], 0.5)) / 1e3,
        "committed_op_ratio": sum(log.committed.values()) / log.ops,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # The p99s are printed but not gated: see "Tails" in NOTES.md.
    notes = [
        f"samples: read={len(reads)} transfer={len(transfers)} "
        f"(p99 has {len(reads) // 100} and {len(transfers) // 100} samples beyond it)",
        f"[read_p99_us] {percentile(reads, 0.99) / 1e3:.6g} us (printed, not gated)",
        f"[transfer_p99_us] {percentile(transfers, 0.99) / 1e3:.6g} us (printed, not gated)",
        f"setups: {', '.join(f'{took:.3f}' for took in setup_times)} s",
    ]
    if len(transfers) < 1000:
        notes.append(f"WARNING: only {len(transfers)} transfers; p99 needs 1000")
    return [log], metrics, notes


def traced(stack_class, workdir: Path, seed: int, seconds: float):
    """Untraced quarter, traced half, untraced quarter on one set-up."""
    from cew import timed_setup
    from layers import layer_metrics, proxy_crosscheck
    from tracing import Tracer

    tracer = Tracer()
    stack, _ = timed_setup(stack_class, workdir / "setup", tracer, seed)
    try:
        before = stack.run_phase(seed * 1000 + 1, seconds=seconds / 4)
        phase = stack.run_phase(seed * 1000 + 2, seconds=seconds / 2, traced=True)
        after = stack.run_phase(seed * 1000 + 3, seconds=seconds / 4)
        stack.check_residue()
        proxy_crosscheck(stack, phase)
        metrics = layer_metrics(stack, phase, tracer.round_trips_ns)
    finally:
        tracer.disable()
        stack.close()
    untraced_ops = sum(log.ops for log in (before.log, after.log))
    untraced_ns = before.log.wall_ns + after.log.wall_ns
    traced_rate = phase.log.ops / phase.log.wall_ns
    metrics["trace.overhead_ratio"] = (untraced_ops / untraced_ns) / traced_rate - 1
    notes = [f"traced ops: {dict(phase.log.attempted)}"]
    return [before.log, phase.log, after.log], metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from cew import FLUSH_POLICY, STACKS, CheckFailed

    stack_class = STACKS.get(args.workload)
    if stack_class is None:
        print(f"perfbench: unknown workload {args.workload!r}; use {sorted(STACKS)}",
              file=sys.stderr)
        return 2

    # Every file the run writes (LSM segments, WALs) stays in the checkout.
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    runner = traced if args.trace else end_to_end
    correct = True
    try:
        with CpuRotation() as rotation:
            env = environment(args.seed, FLUSH_POLICY, rotation)
            print(f"# perfbench {args.workload} trace={args.trace} env={json.dumps(env)}")
            logs, metrics, notes = runner(stack_class, workdir, args.seed, args.seconds)
    except CheckFailed as failure:
        print(f"# CHECK FAILED: {failure}")
        correct, logs, metrics, notes = False, [], {}, []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    attempted = sum(log.ops for log in logs)
    failed = attempted - sum(sum(log.committed.values()) for log in logs)
    for note in notes:
        print(f"# {note}")
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if correct and set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(units)}")
    for name, value in metrics.items():
        print(f"[{name}] {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
