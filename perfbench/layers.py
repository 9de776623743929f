"""Which entry points the traced run wraps, and the per-layer metrics.

Layer names are the program's module names.  Each entry of
:data:`ENTRY_POINTS` names one wrapper; :func:`install` patches it at
every place the program looks it up.  :func:`layer_metrics` turns the
recorded spans and counter deltas into the ``per_layer`` metrics of
``BENCHMARK.json``.

Timings are self times (a span's duration minus its children's), so the
layers of one query add up without double counting.  Every timing has
a ``_sim`` twin, read off the simulated clock across the same calls.
The process scan pool (``executor.procpool``) is not wrapped: its
child-process scans are invisible to wrappers in this process, which is
why every workload runs with the serial executor.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from perfbench.trace import OutsideInTracer, SpanRecord, repro_modules, self_times


def _kept_ratio_tags(args: tuple, result: Any) -> Dict[str, float]:
    return {"total": float(len(args[0])), "kept": float(len(result))}


def _rows_rewritten_tags(args: tuple, result: Any) -> Dict[str, float]:
    return {"rows": float(sum(merge.rows_out for merge in result))}


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable.

    ``kind`` is ``function`` (patched in every module binding the same
    object), ``method`` (patched on one class) or ``subclass_method``
    (patched on the base class and on every subclass defining its own
    version, e.g. each ``VectorIndex`` implementation).
    """

    name: str
    module: str
    target: str
    kind: str = "function"
    observe: Optional[Callable[[tuple, Any], Dict[str, float]]] = None
    count_only: bool = False
    new_request: bool = False


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # Statement entry points: root spans that start a request.
    EntryPoint("core.BlendHouse.execute", "repro.core.database", "BlendHouse.execute",
               "method", new_request=True),
    EntryPoint("elastic.FleetBlendHouse.execute", "repro.elastic.engine",
               "FleetBlendHouse.execute", "method", new_request=True),
    EntryPoint("sqlparser.parse_statement", "repro.sqlparser.parser", "parse_statement"),
    EntryPoint("sqlparser.tokenize", "repro.sqlparser.lexer", "tokenize"),
    EntryPoint("planner.PlanCache.lookup", "repro.planner.plancache", "PlanCache.lookup", "method"),
    EntryPoint("planner.PlanCache.store", "repro.planner.plancache", "PlanCache.store", "method"),
    EntryPoint("planner.Optimizer.choose", "repro.planner.optimizer", "Optimizer.choose", "method"),
    EntryPoint("planner.bind_select", "repro.planner.logical", "bind_select"),
    EntryPoint("planner.apply_rules", "repro.planner.rules", "apply_rules"),
    EntryPoint("partition.prune_segments_scalar", "repro.partition.pruning",
               "prune_segments_scalar", observe=_kept_ratio_tags),
    EntryPoint("partition.select_semantic_candidates", "repro.partition.pruning",
               "select_semantic_candidates"),
    EntryPoint("executor.execute_plan_on_segments", "repro.executor.pipeline",
               "execute_plan_on_segments"),
    EntryPoint("executor.execute_segment", "repro.executor.pipeline", "execute_segment"),
    EntryPoint("executor.merge_and_project", "repro.executor.pipeline", "merge_and_project"),
    EntryPoint("executor.ColumnReader.fetch", "repro.executor.columnio",
               "ColumnReader.fetch", "method"),
    EntryPoint("executor.ColumnReader.fetch_full_column", "repro.executor.columnio",
               "ColumnReader.fetch_full_column", "method"),
    EntryPoint("vindex.search_with_filter", "repro.vindex.api",
               "VectorIndex.search_with_filter", "subclass_method"),
    EntryPoint("vindex.search_with_range", "repro.vindex.api",
               "VectorIndex.search_with_range", "subclass_method"),
    EntryPoint("vindex.search_batch", "repro.vindex.api",
               "VectorIndex.search_batch", "subclass_method"),
    EntryPoint("vindex.search_iterator", "repro.vindex.api",
               "VectorIndex.search_iterator", "subclass_method"),
    EntryPoint("vindex.next_batch", "repro.vindex.iterator",
               "SearchIterator.next_batch", "subclass_method"),
    EntryPoint("vindex.train", "repro.vindex.api", "VectorIndex.train", "subclass_method"),
    EntryPoint("vindex.add_with_ids", "repro.vindex.api",
               "VectorIndex.add_with_ids", "subclass_method"),
    EntryPoint("vindex.create_index", "repro.vindex.registry", "create_index"),
    EntryPoint("storage.HierarchicalIndexCache.get", "repro.storage.cache",
               "HierarchicalIndexCache.get", "method"),
    EntryPoint("storage.Compactor.run_once", "repro.storage.compaction",
               "Compactor.run_once", "method", observe=_rows_rewritten_tags),
    EntryPoint("storage.ManifestStore.publish", "repro.storage.manifest",
               "ManifestStore.publish", "method"),
    EntryPoint("ingest.SegmentWriter.ingest_columns", "repro.ingest.writer",
               "SegmentWriter.ingest_columns", "method"),
    EntryPoint("ingest.apply_delete", "repro.ingest.update", "apply_delete"),
    EntryPoint("durability.WriteAheadLog.append", "repro.durability.wal",
               "WriteAheadLog.append", "method"),
    EntryPoint("durability.WriteAheadLog.flush", "repro.durability.wal",
               "WriteAheadLog.flush", "method"),
    EntryPoint("durability.DurabilityManager.checkpoint", "repro.durability.manager",
               "DurabilityManager.checkpoint", "method"),
    EntryPoint("cluster.VirtualWarehouse.execute_query", "repro.cluster.warehouse",
               "VirtualWarehouse.execute_query", "method"),
    EntryPoint("cluster.VirtualWarehouse.capture_scans", "repro.cluster.warehouse",
               "VirtualWarehouse.capture_scans", "method"),
    EntryPoint("elastic.WarehouseFleet.route", "repro.elastic.fleet",
               "WarehouseFleet.route", "method"),
    EntryPoint("elastic.BackgroundPreloader.warm", "repro.elastic.preloader",
               "BackgroundPreloader.warm", "method"),
    EntryPoint("serving.ServingFrontend.submit", "repro.serving.frontend",
               "ServingFrontend.submit", "method", new_request=True),
    EntryPoint("observe.EventLog.emit", "repro.observe.events", "EventLog.emit",
               "method", count_only=True),
)

ENTRY_POINT_NAMES = tuple(entry.name for entry in ENTRY_POINTS)

# Modules whose import registers every VectorIndex / SearchIterator
# subclass and binds every wrapped function, so one pass patches all.
_PROGRAM_MODULES = (
    "repro", "repro.elastic", "repro.serving.frontend", "repro.serving.loadgen",
    "repro.vindex.registry", "repro.durability.manager",
)


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        found.append(current)
        pending.extend(current.__subclasses__())
    return sorted(set(found), key=lambda c: (c.__module__, c.__qualname__))


def install(tracer: OutsideInTracer, entries: Iterable[EntryPoint] = ENTRY_POINTS) -> None:
    """Patch every entry point; :meth:`OutsideInTracer.restore` undoes it."""
    for module_name in _PROGRAM_MODULES:
        importlib.import_module(module_name)
    for entry in entries:
        home = importlib.import_module(entry.module)
        make = (
            (lambda fn, e=entry: tracer.count_calls(e.name, fn)) if entry.count_only
            else (lambda fn, e=entry: tracer.wrap(e.name, fn, e.observe, e.new_request))
        )
        if entry.kind == "function":
            original = getattr(home, entry.target)
            wrapper = make(original)
            owners = [m for m in repro_modules() if vars(m).get(entry.target) is original]
            for module in owners:
                tracer.patch(module, entry.target, wrapper)
            continue
        class_name, method = entry.target.split(".")
        base = getattr(home, class_name)
        classes = _subclasses(base) if entry.kind == "subclass_method" else [base]
        for cls in classes:
            member = cls.__dict__.get(method)
            if member is None or getattr(member, "__isabstractmethod__", False):
                continue
            tracer.patch(cls, method, make(member))


# ----------------------------------------------------------------------
# Metric derivation
# ----------------------------------------------------------------------
_SEARCH = ("vindex.search_with_filter", "vindex.search_with_range", "vindex.search_batch")
_ITERATOR = ("vindex.search_iterator", "vindex.next_batch")


@dataclass(frozen=True)
class Timing:
    """A per-layer timing: self time of ``wrappers`` over ``phase``.

    ``per`` divides the total: ``query`` (read queries of the measured
    phase), ``call`` (calls of the first wrapper) or ``total`` (none).
    ``select`` optionally filters spans (e.g. searches under an
    iterator).
    """

    name: str
    wrappers: Tuple[str, ...]
    per: str = "query"
    unit: str = "ms"
    phase: str = "measure"
    select: Optional[str] = None


TIMINGS: Tuple[Timing, ...] = (
    Timing("sqlparser.parse_ms", ("sqlparser.parse_statement", "sqlparser.tokenize")),
    Timing("planner.plan_ms", ("planner.PlanCache.lookup", "planner.PlanCache.store",
                               "planner.Optimizer.choose", "planner.bind_select",
                               "planner.apply_rules")),
    Timing("partition.prune_ms", ("partition.prune_segments_scalar",
                                  "partition.select_semantic_candidates")),
    Timing("executor.scan_self_ms", ("executor.execute_plan_on_segments",
                                     "executor.execute_segment",
                                     "executor.merge_and_project")),
    Timing("executor.column_read_ms", ("executor.ColumnReader.fetch",
                                       "executor.ColumnReader.fetch_full_column")),
    Timing("vindex.search_ms", _SEARCH, select="outside_iterator"),
    Timing("vindex.iterator_ms", _ITERATOR + _SEARCH, select="iterator"),
    Timing("vindex.build_s", ("vindex.train", "vindex.add_with_ids", "vindex.create_index"),
           per="total", unit="s", phase="all"),
    Timing("storage.index_resolve_ms", ("storage.HierarchicalIndexCache.get",)),
    Timing("storage.compaction_s", ("storage.Compactor.run_once",),
           per="total", unit="s", phase="all"),
    Timing("storage.commit_ms", ("storage.ManifestStore.publish",), per="call", phase="all"),
    Timing("ingest.write_ms", ("ingest.SegmentWriter.ingest_columns",), per="call",
           phase="all"),
    Timing("ingest.delete_ms", ("ingest.apply_delete",), per="call", phase="all"),
    Timing("durability.wal_append_ms", ("durability.WriteAheadLog.append",
                                        "durability.WriteAheadLog.flush"),
           per="call", phase="all"),
    Timing("durability.checkpoint_s", ("durability.DurabilityManager.checkpoint",),
           per="total", unit="s", phase="all"),
    Timing("cluster.warehouse_exec_ms", ("cluster.VirtualWarehouse.execute_query",
                                         "cluster.VirtualWarehouse.capture_scans")),
    Timing("elastic.route_ms", ("elastic.WarehouseFleet.route",)),
    Timing("elastic.preload_s", ("elastic.BackgroundPreloader.warm",),
           per="total", unit="s", phase="all"),
    Timing("serving.submit_self_ms", ("serving.ServingFrontend.submit",)),
)

# name -> (unit, description); the counts and ratios of the trace.
COUNTS: Dict[str, str] = {
    "sqlparser.lex_calls_per_query": "count",
    "planner.optimizations_per_query": "count",
    "planner.plan_cache_hit_ratio": "ratio",
    "partition.segments_kept_ratio": "ratio",
    "executor.postfilter_iterations_per_query": "count",
    "storage.index_cache_hit_ratio.memory": "ratio",
    "storage.index_cache_hit_ratio.disk": "ratio",
    "storage.index_cache_hit_ratio.shared": "ratio",
    "storage.index_cache_hit_ratio.remote": "ratio",
    "storage.get_bytes_per_query": "bytes",
    "storage.write_amp": "ratio",
    "storage.compaction_rows_rewritten": "count",
    "durability.wal_flushes": "count",
    "cluster.rpc_calls_per_query": "count",
    "cluster.brute_fallbacks_per_query": "count",
    "elastic.served_share": "ratio",
    "serving.queue_wait_sim_p99_ms": "sim_ms",
    "serving.rejected": "count",
    "observe.spans_per_query": "count",
    "observe.events_per_query": "count",
    "trace.untraced_wall_qps": "queries/s",
    "trace.traced_wall_qps": "queries/s",
    "trace.overhead_wall_qps": "queries/s",
}

_TIERS = {
    "memory": "index_cache.memory_hits",
    "disk": "index_cache.disk_hits",
    "shared": "index_cache.shared_hits",
    "remote": "index_cache.remote_fetches",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for timing in TIMINGS:
        units[timing.name] = timing.unit
        units[timing.name + "_sim"] = "sim_" + timing.unit
    units.update(COUNTS)
    return units


def _under(spans: List[SpanRecord], index: int, names: Tuple[str, ...]) -> bool:
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[SpanRecord],
    measure_counters: Dict[str, int],
    all_counters: Dict[str, int],
    queries: int,
    extra: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metric values from one traced run.

    ``measure_counters`` / ``all_counters`` are engine counter deltas
    over the measured phase / the whole traced run (set-up included);
    ``queries`` counts the measured phase's read queries; ``extra``
    carries values the workload measures itself (serving report, share
    served by the joining warehouse, engine spans, user bytes written,
    tracing overhead).
    """
    selfs = self_times(spans)
    values: Dict[str, float] = {}
    for timing in TIMINGS:
        wall = sim = 0.0
        calls = 0
        for i, span in enumerate(spans):
            if span.name not in timing.wrappers:
                continue
            if timing.phase == "measure" and span.phase != "measure":
                continue
            if timing.select == "outside_iterator" and _under(spans, i, _ITERATOR):
                continue
            if (
                timing.select == "iterator" and span.name in _SEARCH
                and not _under(spans, i, _ITERATOR)
            ):
                continue
            wall += selfs[i][0]
            sim += selfs[i][1]
            if span.name == timing.wrappers[0]:
                calls += 1
        divisor = {"query": queries, "call": calls, "total": 1}[timing.per]
        scale = 1e3 if timing.unit == "ms" else 1.0
        values[timing.name] = _ratio(wall * scale, divisor)
        values[timing.name + "_sim"] = _ratio(sim * scale, divisor)

    measured = [s for s in spans if s.phase == "measure"]
    kept = sum(s.tags.get("kept", 0.0) for s in measured
               if s.name == "partition.prune_segments_scalar")
    total = sum(s.tags.get("total", 0.0) for s in measured
                if s.name == "partition.prune_segments_scalar")
    tier_total = sum(measure_counters.get(c, 0) for c in _TIERS.values())
    m = measure_counters
    hits, misses = m.get("plan_cache.hits", 0), m.get("plan_cache.misses", 0)
    values.update({
        "sqlparser.lex_calls_per_query": _ratio(
            sum(1 for s in measured if s.name == "sqlparser.tokenize"), queries),
        "planner.optimizations_per_query": _ratio(m.get("planner.optimizations", 0), queries),
        "planner.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "partition.segments_kept_ratio": _ratio(kept, total),
        "executor.postfilter_iterations_per_query": _ratio(
            m.get("postfilter.iterations", 0), queries),
        "storage.get_bytes_per_query": _ratio(m.get("objectstore.get_bytes", 0), queries),
        "storage.write_amp": _ratio(all_counters.get("objectstore.put_bytes", 0),
                                    extra.get("user_bytes_written", 0.0)),
        "storage.compaction_rows_rewritten": sum(
            s.tags.get("rows", 0.0) for s in spans if s.name == "storage.Compactor.run_once"),
        "durability.wal_flushes": float(m.get("durability.wal_flushes", 0)),
        "cluster.rpc_calls_per_query": _ratio(m.get("rpc.calls", 0), queries),
        "cluster.brute_fallbacks_per_query": _ratio(m.get("worker.brute_fallbacks", 0), queries),
        "observe.events_per_query": _ratio(extra.get("events", 0.0), queries),
    })
    for tier, counter in _TIERS.items():
        values[f"storage.index_cache_hit_ratio.{tier}"] = _ratio(m.get(counter, 0), tier_total)
    for name in ("elastic.served_share", "serving.queue_wait_sim_p99_ms", "serving.rejected",
                 "observe.spans_per_query", "trace.untraced_wall_qps",
                 "trace.traced_wall_qps", "trace.overhead_wall_qps"):
        values[name] = float(extra.get(name, 0.0))
    return values
