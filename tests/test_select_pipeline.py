"""One SELECT pipeline across every engine and execution path.

The same queries run on four engines — core serial, core with
``parallel_workers=4``, the clustered engine and the elastic fleet — and
through three paths: direct ``execute``, the staged generator
(``select_stages``, core and fleet) and EXPLAIN ANALYZE.  Every
combination must return the brute-force oracle's rows, widen when the
centroid ranking under-fills, count exactly one query, and leave no
snapshot pinned; staged and direct runs on identically built engines
must occupy the same simulated time.

The remaining classes pin down behaviour the paths used to disagree on:
warehouse retries on the staged path, EXPLAIN ANALYZE on the warehouse,
``SET read_opt = 0`` on warehouse engines, and per-query bookkeeping.
"""

import numpy as np
import pytest

from repro.cluster.engine import ClusteredBlendHouse
from repro.core.database import BlendHouse
from repro.elastic import FleetBlendHouse, FleetConfig
from tests.helpers import vector_sql

DIM = 8
ROWS = 600
SEGMENT_ROWS = 100
_rng = np.random.default_rng(11)
VECTORS = _rng.normal(size=(ROWS, DIM)).astype(np.float32)
ATTR = np.arange(ROWS) % 7

ENGINES = ("core", "core_parallel", "cluster", "fleet")
STAGED_ENGINES = ("core", "core_parallel", "fleet")
ENGINE_PATHS = [
    (engine, path)
    for engine in ENGINES
    for path in ("direct", "staged", "explain")
    if path != "staged" or engine in STAGED_ENGINES
]


def build(kind, clustered=False, **fleet_config):
    """(engine, core BlendHouse) over one identical table."""
    if kind == "cluster":
        engine = ClusteredBlendHouse(read_workers=2)
        core = engine.db
    elif kind == "fleet":
        fleet_config = {"warehouses": 2, "workers_per_warehouse": 2, **fleet_config}
        engine = FleetBlendHouse(fleet_config=FleetConfig(**fleet_config))
        core = engine.db
    else:
        engine = core = BlendHouse()
        if kind == "core_parallel":
            core.settings.parallel_workers = 4
    engine.execute(
        "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
        f"INDEX ann embedding TYPE FLAT('DIM={DIM}'))"
        + (" CLUSTER BY embedding INTO 6 BUCKETS" if clustered else "")
    )
    core.table("t").writer.config.max_segment_rows = SEGMENT_ROWS
    engine.insert_columns("t", {"id": np.arange(ROWS), "attr": ATTR}, VECTORS)
    if kind in ("cluster", "fleet"):
        engine.preload("t")
    return engine, core


def run(engine, path, sql):
    """(QueryResult, stages or None) of ``sql`` through ``path``."""
    if path == "direct":
        return engine.execute(sql), None
    if path == "explain":
        return engine.execute("EXPLAIN ANALYZE " + sql).result, None
    stages = list(engine.select_stages(sql))
    return stages[-1].result, stages


def topk_sql(row, k, where=""):
    return (
        f"SELECT id, dist FROM t {where} ORDER BY "
        f"L2Distance(embedding, {vector_sql(VECTORS[row])}) AS dist LIMIT {k}"
    )


def oracle_ids(row, k, mask=None):
    query = np.asarray([float(f"{x:.6f}") for x in VECTORS[row]])
    dist = ((VECTORS.astype(np.float64) - query) ** 2).sum(axis=1)
    ids = np.arange(ROWS) if mask is None else np.flatnonzero(mask)
    return ids[np.argsort(dist[ids], kind="stable")][:k].tolist()


def ids_of(result):
    return [int(row[0]) for row in result.rows]


def assert_no_pins(core):
    assert core.table("t").manager.store.pinned_count == 0


def delta(core, name, before):
    return core.metrics.count(name) - before.get(name, 0)


@pytest.mark.parametrize("kind,path", ENGINE_PATHS)
class TestEveryPath:
    def test_rows_match_oracle(self, kind, path):
        engine, core = build(kind)
        for row, k, where, mask in (
            (3, 7, "", None),
            (40, 12, "WHERE attr < 3", ATTR < 3),
            (3, 7, "", None),  # warm caches, same rows
        ):
            result, _ = run(engine, path, topk_sql(row, k, where))
            assert ids_of(result) == oracle_ids(row, k, mask)
        assert_no_pins(core)

    def test_widening_fires(self, kind, path):
        engine, core = build(kind, clustered=True)
        core.settings.semantic_prune_keep = 1
        # No single segment can fill k rows, so the one scheduled
        # segment under-fills and the reserve wave is scanned.
        k = 10 + max(s.row_count for s in core.table("t").manager.segments())
        before = dict(core.metrics.counters)
        result, stages = run(engine, path, topk_sql(5, k))
        assert ids_of(result) == oracle_ids(5, k)
        assert delta(core, "pruning.adaptive_widenings", before) == 1
        if stages is not None:
            names = [stage.name for stage in stages]
            assert names.count("widen") == 1
            assert names.index("scan") < names.index("widen") < names.index("finish")
        assert_no_pins(core)

    def test_one_query_counted_per_query(self, kind, path):
        engine, core = build(kind)
        for n in range(1, 4):
            run(engine, path, topk_sql(n, 5))
            assert core.metrics.count("queries") == n
            assert core.metrics.latency("query.latency").count == n
        assert_no_pins(core)


@pytest.mark.parametrize("kind", STAGED_ENGINES)
class TestStagedMatchesDirect:
    """Identically built engines: one runs direct, the other staged."""

    SQLS = (topk_sql(3, 7), topk_sql(40, 12, "WHERE attr < 3"), topk_sql(3, 7))

    def test_advance_sum_equals_clock_delta_and_same_latency(self, kind):
        direct, direct_core = build(kind)
        staged, staged_core = build(kind)
        for sql in self.SQLS:
            start = direct_core.clock.now
            direct_result = direct.execute(sql)
            clock_delta = direct_core.clock.now - start
            stages = list(staged.select_stages(sql))
            staged_result = stages[-1].result
            assert [s.name for s in stages][:2] == ["pin", "plan"]
            assert sum(s.advance_s for s in stages) == pytest.approx(
                clock_delta, rel=1e-9
            )
            assert staged_result.simulated_seconds == pytest.approx(
                direct_result.simulated_seconds, rel=1e-9
            )
            assert staged_result.rows == direct_result.rows
        assert_no_pins(direct_core)
        assert_no_pins(staged_core)


def _serving_fleet():
    """A one-warehouse fleet whose joining worker searches segments in
    the first worker's cache over RPC (no shared block cache, background
    warm-up frozen, so the serving tier stays in use)."""
    fleet, core = build(
        "fleet", warehouses=1, workers_per_warehouse=1, shared_cache_bytes=0
    )
    warehouse = fleet.fleet.warehouse(fleet.fleet.warehouse_names[0])
    owner = next(iter(warehouse.workers.values()))
    joined = warehouse.add_worker()
    joined.schedule_background_load = lambda key: None
    return fleet, core, warehouse, owner


class TestWarehouseRetry:
    """A stale serving handshake fails the scan wave; the warehouse
    retries it on the refreshed topology, on the direct and the staged
    path alike."""

    @pytest.mark.parametrize("path", ["direct", "staged"])
    def test_retry_after_previous_owner_evicts(self, path):
        fleet, core, _, owner = _serving_fleet()
        fleet.execute(topk_sql(3, 7))
        assert core.metrics.count("worker.serving_calls") > 0
        owner.lose_memory()  # the memoized handshake is now stale
        result, _ = run(fleet, path, topk_sql(9, 7))
        assert ids_of(result) == oracle_ids(9, 7)
        assert core.metrics.count("warehouse.query_retries") == 1
        assert_no_pins(core)


@pytest.mark.parametrize("kind", ["cluster", "fleet"])
class TestWarehouseEngines:
    def test_explain_analyze_runs_on_warehouse(self, kind):
        engine, core = build(kind)
        before = core.metrics.count("warehouse.queries")
        explained = engine.execute("EXPLAIN ANALYZE " + topk_sql(3, 7))
        assert core.metrics.count("warehouse.queries") == before + 1
        assert explained.trace.find("worker_scan") is not None
        assert ids_of(explained.result) == oracle_ids(3, 7)
        assert_no_pins(core)

    def test_read_opt_off_raises_simulated_time(self, kind):
        engine, core = build(kind)
        sql = topk_sql(3, 7)
        engine.execute(sql)  # warm index caches and the plan cache
        optimized = engine.execute(sql).simulated_seconds
        engine.execute("SET read_opt = 0")
        full_block = engine.execute(sql).simulated_seconds
        assert full_block > optimized

    def test_direct_query_offered_to_slowlog(self, kind):
        engine, core = build(kind)
        engine.execute("SET slowlog_threshold_ms = 0")
        engine.execute(topk_sql(3, 7))
        records = core.slowlog.records()
        assert len(records) == 1
        assert records[0].sql == topk_sql(3, 7)
        assert records[0].latency_s == core.metrics.latency("query.latency").values[0]
