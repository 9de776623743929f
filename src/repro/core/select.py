"""The SELECT pipeline: pin → plan → prune → scan → widen → finish.

Every SELECT runs this one sequence (paper Fig 2: per-segment plans →
partial top-k → global merge), whether its scans execute in this
process or on a read virtual warehouse (§II-A).  The shared steps are
:func:`pin` + :func:`prepare`, :func:`needs_widening` and :func:`finish`;
scans go through a scan backend (:class:`LocalScans`,
:class:`WarehouseScans`) with three operations: ``run`` applies costs
to the clock, ``scan_stages`` captures them with one ``segment:<id>``
stage per segment, ``merge`` merges and projects.

Two drivers use them.  :func:`run_select` serves ``execute`` and
EXPLAIN ANALYZE; locally its ``run`` keeps the real thread/process
fan-out of :func:`~repro.executor.pipeline.execute_plan_on_segments`
and its parallel twin.  :func:`staged_select` is the serving tier's
generator, where every ``yield`` is a cancellation checkpoint; spans
cannot be held across a yield (tracer stacks are thread-local), so it
records a synthetic trace instead.  See DESIGN.md, "SELECT pipeline".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, Iterator, List, Optional, Tuple

from repro.errors import SQLError
from repro.executor.cancel import CancelToken
from repro.executor.parallel import (
    ParallelConfig,
    execute_plan_on_segments_parallel,
    lane_makespan,
)
from repro.executor.pipeline import (
    ExecContext,
    PartialResult,
    QueryResult,
    execute_plan_on_segments,
    execute_segment,
    merge_and_project,
)
from repro.observe.profile import maybe_profile
from repro.planner.optimizer import PhysicalPlan
from repro.sqlparser.ast_nodes import Explain, Select
from repro.sqlparser.parser import parse_statement
from repro.storage.deletebitmap import DeleteBitmap
from repro.storage.segment import Segment

# (partials, [(segment_id, cost_s), ...], makespan_s) of one scan wave.
ScanWave = Tuple[List[PartialResult], List[Tuple[str, float]], float]


@dataclass
class SelectStage:
    """One checkpoint of a staged SELECT (see :func:`staged_select`).

    ``cost_s`` is the simulated compute this stage charged (captured, not
    yet applied to the clock); ``advance_s`` is how much simulated time
    the *query* should occupy for this stage — per-segment stages carry
    their cost with ``advance_s == 0`` and a later ``scan`` stage carries
    the fan-out makespan, so a serving tier can model parallel lanes
    while still getting a cancellation checkpoint per segment.
    """

    name: str
    cost_s: float = 0.0
    advance_s: float = 0.0
    manifest_id: Optional[int] = None
    result: Optional[QueryResult] = None
    # Flight-record payload (plan, cache deltas, manifest_id, synthetic
    # trace) attached to the final stage; the serving tier hands it to
    # the slow-query log when the query turns out to warrant a record.
    flight: Optional[Dict[str, Any]] = None


@dataclass
class PreparedSelect:
    """Everything the scan phase of one pinned SELECT needs."""

    sql: str
    plan: PhysicalPlan
    snapshot: Any
    scheduled: List[Segment]
    reserve: List[Segment]
    bitmaps: Dict[str, DeleteBitmap]
    ctx: ExecContext
    cache_before: Dict[str, int]


# ----------------------------------------------------------------------
# Scan backends
# ----------------------------------------------------------------------
def scan_locally(
    plan: PhysicalPlan,
    segments: List[Segment],
    bitmaps: Dict[str, DeleteBitmap],
    ctx: ExecContext,
    workers: int,
) -> QueryResult:
    """Serial scan, or fan-out over ``workers`` lanes when above one."""
    if workers > 1:
        return execute_plan_on_segments_parallel(
            plan, segments, bitmaps, ctx, ParallelConfig(max_workers=workers)
        )
    return execute_plan_on_segments(plan, segments, bitmaps, ctx)


class LocalScans:
    """Scans in this process: serial, thread fan-out or process pool."""

    flight_tags: Dict[str, Any] = {}

    def __init__(self, workers: int, scan_pool: Optional[Any] = None) -> None:
        self.workers = max(1, workers)
        self.scan_pool = scan_pool

    def run(self, prepared: PreparedSelect, segments: List[Segment]) -> QueryResult:
        return scan_locally(
            prepared.plan, segments, prepared.bitmaps, prepared.ctx, self.workers
        )

    def scan_stages(
        self, prepared: PreparedSelect, segments: List[Segment]
    ) -> Generator[SelectStage, None, ScanWave]:
        ctx = prepared.ctx
        partials: List[PartialResult] = []
        costs: List[Tuple[str, float]] = []
        for segment in segments:
            if ctx.cancel is not None:
                ctx.cancel.raise_if_cancelled()
            with ctx.clock.capturing() as captured:
                partials.append(execute_segment(
                    prepared.plan, segment,
                    prepared.bitmaps.get(segment.segment_id), ctx,
                ))
            costs.append((segment.segment_id, captured.total))
            yield SelectStage(f"segment:{segment.segment_id}", cost_s=captured.total)
        return partials, costs, lane_makespan([c for _, c in costs], self.workers)

    def merge(
        self, prepared: PreparedSelect, partials: List[PartialResult], n_segments: int
    ) -> QueryResult:
        return merge_and_project(prepared.plan, partials, prepared.ctx, n_segments)


class WarehouseScans:
    """Scans on a read warehouse's workers (plain or replicated).

    The warehouse brings its own scan pool, so the prepared context
    carries none.
    """

    scan_pool = None

    def __init__(self, warehouse: Any) -> None:
        self.warehouse = warehouse
        self.flight_tags = {"warehouse": warehouse.name}

    def run(self, prepared: PreparedSelect, segments: List[Segment]) -> QueryResult:
        snap, ctx = prepared.snapshot, prepared.ctx
        return self.warehouse.execute_query(
            prepared.plan, segments, prepared.bitmaps, snap.index_key,
            ctx.reader, ctx.params, manifest_id=snap.manifest_id,
        )

    def scan_stages(
        self, prepared: PreparedSelect, segments: List[Segment]
    ) -> Generator[SelectStage, None, ScanWave]:
        snap, ctx = prepared.snapshot, prepared.ctx
        wave = self.warehouse.capture_scans(
            prepared.plan, segments, prepared.bitmaps, snap.index_key,
            ctx.reader, ctx.params, manifest_id=snap.manifest_id, cancel=ctx.cancel,
        )
        for segment_id, cost_s in wave[1]:
            yield SelectStage(f"segment:{segment_id}", cost_s=cost_s)
        return wave

    def merge(
        self, prepared: PreparedSelect, partials: List[PartialResult], n_segments: int
    ) -> QueryResult:
        ctx = prepared.ctx
        return self.warehouse.merge_partials(
            prepared.plan, partials, ctx.reader, ctx.params, n_segments
        )


# ----------------------------------------------------------------------
# Shared steps
# ----------------------------------------------------------------------
def parse_select(sql: str) -> Select:
    """Parse ``sql``, which must be a SELECT (staged execution)."""
    statement = parse_statement(sql)
    if not isinstance(statement, Select):
        raise SQLError("staged serving execution supports SELECT only")
    return statement


def runs_select(statement: Any) -> bool:
    """Whether ``statement`` executes a SELECT (plain or EXPLAIN ANALYZE)."""
    return isinstance(statement, Select) or (
        isinstance(statement, Explain) and statement.analyze
    )


def pin(db: Any, statement: Select) -> Any:
    """Pin the manifest the query reads for its whole lifetime.

    Planning, pruning, bitmap capture and every scan read this version,
    so concurrent ingest/compaction commits are invisible and
    ``AS OF <manifest_id>`` replays history exactly.
    """
    return db.table(statement.table).manager.snapshot(statement.as_of)


def prepare(
    db: Any,
    sql: str,
    statement: Select,
    snap: Any,
    backend: Any,
    cancel: Optional[CancelToken] = None,
) -> PreparedSelect:
    """Plan, prune and capture bitmaps against the pinned ``snap``."""
    runtime = db.table(statement.table)
    cache_before = _cache_counters(db.metrics)
    with maybe_profile("select.plan", db.clock):
        plan = db._plan_select(sql, statement, version=snap.manifest_id)
    ctx = db._exec_context(
        runtime, snapshot=snap, cancel=cancel, scan_pool=backend.scan_pool
    )
    scheduled, reserve = db._select_segments(runtime, plan, view=snap)
    bitmaps = {
        segment.segment_id: snap.bitmap(segment.segment_id)
        for segment in scheduled + reserve
    }
    return PreparedSelect(
        sql, plan, snap, scheduled, reserve, bitmaps, ctx, cache_before
    )


def needs_widening(
    settings: Any, plan: PhysicalPlan, reserve: List[Segment], result: QueryResult
) -> bool:
    """Runtime-adaptive widening: the centroid ranking under-estimated,
    so the reserve wave must be scanned too."""
    wanted = plan.logical.k or 0
    return (
        bool(reserve)
        and settings.adaptive_widening
        and plan.logical.is_vector_query
        and len(result) < max(wanted - plan.logical.offset, 0)
    )


def _cache_counters(metrics: Any) -> Dict[str, int]:
    """Cache-tier counters the flight record diffs around a query."""
    return {
        "memory_hits": metrics.count("index_cache.memory_hits"),
        "disk_hits": metrics.count("index_cache.disk_hits"),
        "remote_fetches": metrics.count("index_cache.remote_fetches"),
    }


def _plan_payload(plan: PhysicalPlan) -> Dict[str, Any]:
    """The chosen plan plus the CBO alternatives it rejected."""
    return {
        "strategy": plan.strategy.value,
        "use_index": plan.use_index,
        "search_params": dict(plan.search_params),
        "cbo_used": plan.cbo_used,
        "short_circuited": plan.short_circuited,
        "sigma": plan.sigma,
        "estimated_selectivity": plan.estimated_selectivity,
        "alternatives": dict(plan.estimated_costs),
    }


def finish(
    db: Any,
    prepared: PreparedSelect,
    result: QueryResult,
    execute_s: float,
    trace: Optional[Dict[str, Any]] = None,
    flight_tags: Optional[Dict[str, Any]] = None,
) -> Optional[Dict[str, Any]]:
    """The query's bookkeeping, the same on every path.

    ``execute_s`` — the execute phase: scans, widening and merge, not
    planning — becomes ``simulated_seconds`` and ``query.latency``.  A
    direct query (``trace`` None) is offered to the slow-query log now,
    with the still-open query root as its trace; a staged query returns
    its flight payload for the serving tier, which knows the real
    latency.
    """
    result.simulated_seconds = execute_s
    db.metrics.incr("queries")
    db.metrics.record_latency("query.latency", execute_s)
    if trace is None:
        # The cheap threshold/sampling decision runs first so the hot
        # path pays nothing for fast, unsampled queries.
        reason = db.slowlog.should_record(execute_s)
        if reason is not None:
            db.slowlog.observe(
                timestamp=db.clock.now,
                sql=prepared.sql,
                latency_s=execute_s,
                reason=reason,
                manifest_id=prepared.snapshot.manifest_id,
                plan=_plan_payload(prepared.plan),
                cache=_cache_delta(db, prepared),
                trace=db.tracer.last_root() if db.tracer.enabled else None,
            )
        return None
    return {
        "manifest_id": prepared.snapshot.manifest_id,
        **(flight_tags or {}),
        "plan": _plan_payload(prepared.plan),
        "cache": _cache_delta(db, prepared),
        "trace": trace,
    }


def _cache_delta(db: Any, prepared: PreparedSelect) -> Dict[str, int]:
    after = _cache_counters(db.metrics)
    return {key: after[key] - prepared.cache_before[key] for key in after}


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_select(
    db: Any, sql: str, statement: Select, backend: Any
) -> Tuple[QueryResult, PhysicalPlan]:
    """Direct driver: every scan applies its cost to the shared clock."""
    with pin(db, statement) as snap:
        prepared = prepare(db, sql, statement, snap, backend)
        start = db.clock.now
        with maybe_profile("select.execute", db.clock), \
                db.tracer.span("execute", segments=len(prepared.scheduled)) as span:
            span.set_tag("manifest_id", snap.manifest_id)
            result = backend.run(prepared, prepared.scheduled)
            if needs_widening(db.settings, prepared.plan, prepared.reserve, result):
                # Schedule everything and redo the merge.
                db.metrics.incr("pruning.adaptive_widenings")
                span.set_tag("adaptive_widened", True)
                result = backend.run(prepared, prepared.scheduled + prepared.reserve)
            span.set_tag("rows", len(result))
        execute_s = db.clock.elapsed_since(start)
    finish(db, prepared, result, execute_s)
    return result, prepared.plan


def staged_select(
    db: Any,
    sql: str,
    statement: Select,
    backend: Any,
    cancel: Optional[CancelToken] = None,
) -> Iterator[SelectStage]:
    """Staged driver: one SELECT as a generator of resumable stages.

    Per-stage simulated costs are *captured* rather than applied to the
    shared clock (so the caller can turn them into waiting on its own
    timeline, modelling many queries in flight at once), and the
    snapshot pin is released in a ``finally`` — closing the generator at
    any stage (client timeout, disconnect, admission preemption) can
    never leak a pinned manifest.  Every capture opens and closes
    *between* yields: cost captures are thread-local, so holding one
    across a yield would corrupt them when a cooperative scheduler
    interleaves another query's stages on the same thread.

    Stages, in order: ``pin`` → ``plan`` → one ``segment:<id>`` per
    scheduled segment (cost only, zero advance) → ``scan`` (advance = the
    backend's fan-out makespan) → optionally more ``segment:*`` plus a
    ``widen`` stage when adaptive widening triggers → ``finish`` carrying
    the merge cost, the :class:`QueryResult` and the flight payload.
    """
    # Synthetic trace: one child dict per stage, mirroring Span.to_dict.
    spans: List[Dict[str, Any]] = []

    def record(name: str, cost_s: float) -> None:
        spans.append({"name": name, "duration": cost_s, "tags": {}, "children": []})

    snap = pin(db, statement)
    try:
        yield SelectStage("pin", manifest_id=snap.manifest_id)
        if cancel is not None:
            cancel.raise_if_cancelled()
        with db.clock.capturing() as captured:
            prepared = prepare(db, sql, statement, snap, backend, cancel)
        plan_s = captured.total
        record("plan", plan_s)
        yield SelectStage(
            "plan", cost_s=plan_s, advance_s=plan_s, manifest_id=snap.manifest_id
        )
        partials, costs, execute_s = yield from backend.scan_stages(
            prepared, prepared.scheduled
        )
        for segment_id, cost_s in costs:
            record(f"segment:{segment_id}", cost_s)
        record("scan", execute_s)
        yield SelectStage(
            "scan", cost_s=sum(c for _, c in costs), advance_s=execute_s
        )
        if cancel is not None:
            cancel.raise_if_cancelled()
        with db.clock.capturing() as captured:
            result = backend.merge(prepared, partials, len(prepared.scheduled))
        finish_s = captured.total
        if needs_widening(db.settings, prepared.plan, prepared.reserve, result):
            # Scan the reserve wave and redo the merge.
            db.metrics.incr("pruning.adaptive_widenings")
            more, costs, widen_s = yield from backend.scan_stages(
                prepared, prepared.reserve
            )
            for segment_id, cost_s in costs:
                record(f"segment:{segment_id}", cost_s)
            execute_s += widen_s
            record("widen", widen_s)
            yield SelectStage(
                "widen", cost_s=sum(c for _, c in costs), advance_s=widen_s
            )
            with db.clock.capturing() as captured:
                result = backend.merge(
                    prepared, partials + more,
                    len(prepared.scheduled) + len(prepared.reserve),
                )
            finish_s += captured.total
        execute_s += finish_s
        record("finish", finish_s)
        tags = backend.flight_tags
        flight = finish(db, prepared, result, execute_s, trace={
            "name": "select_stages",
            "duration": plan_s + execute_s,
            "tags": {"manifest_id": snap.manifest_id, **tags},
            "children": spans,
        }, flight_tags=tags)
        yield SelectStage(
            "finish", cost_s=finish_s, advance_s=finish_s,
            manifest_id=snap.manifest_id, result=result, flight=flight,
        )
    finally:
        snap.release()
