"""The measured phases of one run and the metrics computed from them.

Imported only after ``run.py`` has pinned the environment, because the
program under test and numpy read some of it at import time.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from typing import Any, Dict, List, Sequence, Tuple

from perfbench.hostspeed import HostSpeed
from perfbench.layers import install, layer_metrics
from perfbench.trace import OutsideInTracer, leftover_wrappers
from perfbench.workloads import CheckFailed, Recorder, WriteLog

SETUP_REPEATS = 3
# Reference kernel runs just before and just after each set-up, so the
# set-up's normalization sees the host's state on both sides of it.
TICKS_AROUND_SETUP = 12

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_qps": "queries/s",
    "wall_p50_ms": "ms",
    "wall_p99_ms": "ms",
    "recall_at_10": "fraction",
    "sim_p50_ms": "sim_ms",
    "sim_p99_ms": "sim_ms",
    "sim_capacity_qps": "sim_queries/s",
    "wall_ingest_rows_per_s": "rows/s",
    "wall_write_p90_ms": "ms",
    "space_amp": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated percentile ``q`` (0-100) of ``values``.

    The benchmark keeps its own statistics so that no change to the
    program under test can change how it is measured.
    """
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Any, engine: Any, rec: Any, setups: List[Tuple[float, float]],
               setup_logs: List[Any]) -> Dict[str, float]:
    """Every end-to-end metric from one untraced run (see workloads.json).

    Wall times are normalized to the reference host's speed
    (:mod:`perfbench.hostspeed`).
    """
    host = rec.host
    reads = host.normalize(rec.reads)
    calls = rec.writes.calls if rec.writes.rows else [c for log in setup_logs for c in log.calls]
    writes = [(rows, (end - start) * host.factor(start, end)) for rows, start, end in calls]
    metrics = {
        "setup_s": statistics.median(host.normalize([(a, b, b - a) for a, b in setups])),
        "wall_qps": len(reads) / sum(reads),
        "wall_p50_ms": percentile(reads, 50) * 1e3,
        "wall_p99_ms": percentile(reads, 99) * 1e3,
        "recall_at_10": rec.recall(),
        "sim_p50_ms": percentile(rec.read_sim, 50) * 1e3,
        "sim_p99_ms": percentile(rec.read_sim, 99) * 1e3,
        "sim_capacity_qps": rec.extra.get(
            "sim_capacity_qps", len(rec.read_sim) / sum(rec.read_sim)),
        "space_amp": workload.store(engine).total_bytes() / workload.raw_bytes(engine),
        "peak_rss_mb": rec.extra["peak_rss_mb"],
        # Read-only workloads report the bulk load their set-ups made.
        "wall_ingest_rows_per_s": (
            sum(rows for rows, _ in writes) / sum(wall for rows, wall in writes if rows)),
        "wall_write_p90_ms": percentile([wall for _, wall in writes], 90) * 1e3,
    }
    return {name: metrics[name] for name in END_TO_END_UNITS}


def run_untraced(cls: Any, seed: int, seconds: float, repeats: int, tiny: bool):
    """``repeats`` timed set-ups, then the measured phase on the last one."""
    workload = cls(seed, tiny=tiny)
    host = HostSpeed()
    setups: List[Tuple[float, float]] = []
    setup_logs: List[Any] = []
    engine = None
    for _ in range(repeats):
        engine = workload.clock_owner = None
        gc.collect()
        log = WriteLog(host)
        for _ in range(TICKS_AROUND_SETUP):
            host.tick()
        start = time.perf_counter()
        engine = workload.setup(log)
        setups.append((start, time.perf_counter()))
        for _ in range(TICKS_AROUND_SETUP):
            host.tick()
        setup_logs.append(log)
    rec = Recorder(host)
    workload.measure(engine, workload.ops(seconds), rec)
    rec.extra["peak_rss_mb"] = peak_rss_mb()
    rec.verify()
    return workload, engine, rec, setups, setup_logs


def run_traced(cls: Any, seed: int, seconds: float, tiny: bool):
    """Set-up and measured phase with every entry point wrapped."""
    workload = cls(seed, tiny=tiny)
    host = HostSpeed()
    tracer = OutsideInTracer(
        sim_now=lambda: workload.clock_owner.clock.now if workload.clock_owner else 0.0)
    gc.collect()
    install(tracer)
    try:
        log = WriteLog(host)
        engine = workload.setup(log)
        before = workload.counters(engine)
        tracer.phase = "measure"
        rec = Recorder(host)
        workload.measure(engine, workload.ops(seconds), rec)
        after = workload.counters(engine)
    finally:
        tracer.restore()
    rec.verify()
    left = leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left installed after the traced run: {left}")
    return workload, engine, rec, tracer, log, before, after


def engine_spans_per_query(engine: Any) -> float:
    """Spans per retained root of the program's own tracer."""
    tracer = getattr(engine, "tracer", None)
    roots = tracer.roots if tracer is not None else []
    if not roots:
        return 0.0

    def count(span: Any) -> int:
        return 1 + sum(count(child) for child in span.children)
    return sum(count(root) for root in roots) / len(roots)


def per_layer(cls: Any, seed: int, seconds: float, tiny: bool,
              expected_wrappers: Sequence[str]) -> Tuple[Dict[str, float], int, Any]:
    """Per-layer metrics, operations attempted, and the tracer's record."""
    _, _, plain, _, _ = run_untraced(cls, seed, seconds, 1, tiny)
    untraced_qps = normalized_qps(plain)
    gc.collect()
    workload, engine, rec, tracer, log, before, after = run_traced(cls, seed, seconds, tiny)
    check(workload, rec)
    silent = [name for name in expected_wrappers if not tracer.fired.get(name)]
    if silent:
        raise CheckFailed(f"predicted wrappers never fired on {cls.name}: {silent}")
    traced_qps = normalized_qps(rec)
    measure = {k: after.get(k, 0) - before.get(k, 0) for k in set(after) | set(before)}
    extra = dict(rec.extra)
    extra.update({
        "user_bytes_written": float((log.rows + rec.writes.rows) * workload.row_bytes()),
        "events": float(tracer.phase_calls.get(("observe.EventLog.emit", "measure"), 0)),
        "observe.spans_per_query": engine_spans_per_query(engine),
        "trace.untraced_wall_qps": untraced_qps,
        "trace.traced_wall_qps": traced_qps,
        "trace.overhead_wall_qps": untraced_qps - traced_qps,
    })
    values = layer_metrics(tracer.spans, measure, after, rec.attempted, extra)
    return values, rec.attempted, tracer


def normalized_qps(rec: Any) -> float:
    reads = rec.host.normalize(rec.reads)
    return len(reads) / sum(reads)


def check(workload: Any, rec: Any) -> None:
    """Fail the run on any failed operation or recall below the floor."""
    if rec.failed:
        raise CheckFailed(
            f"{rec.failed} of {rec.attempted} operations failed; first: {rec.errors[0]}")
    if rec.recall() < workload.recall_floor:
        raise CheckFailed(
            f"recall_at_10 {rec.recall():.4f} below the floor {workload.recall_floor}")
