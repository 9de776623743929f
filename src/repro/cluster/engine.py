"""The clustered engine: BlendHouse planning over warehouse execution.

Read/write separation (paper §II-A): ingestion and index building run in
the core engine (standing in for a dedicated *write* virtual warehouse),
while SELECTs execute on a *read* virtual warehouse whose stateless
workers pull indexes from the shared object store.  Both sides share one
simulated clock, one object store, and one catalog, so experiments can
scale the read side, fail workers, or co-locate writes without touching
the planning stack.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.cluster.warehouse import VirtualWarehouse, WarehouseConfig
from repro.core.database import BlendHouse, EngineSettings
from repro.core.select import WarehouseScans, runs_select
from repro.ingest.writer import IngestConfig
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.sqlparser.ast_nodes import Insert
from repro.sqlparser.parser import parse_statement


class ClusteredBlendHouse:
    """BlendHouse with query execution spread over a read warehouse."""

    def __init__(
        self,
        read_workers: int = 2,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        warehouse_config: Optional[WarehouseConfig] = None,
        settings: Optional[EngineSettings] = None,
        replicas: int = 1,
        shared_cache_bytes: int = 0,
    ) -> None:
        self.db = BlendHouse(
            clock=clock, cost_model=cost_model,
            ingest_config=ingest_config, settings=settings,
        )
        # Optional disaggregated block-cache tier between worker disks
        # and the object store (d-HNSW style); with replicas > 1 it stops
        # every replica from re-promoting the same payload.
        self.shared_cache = None
        if shared_cache_bytes > 0:
            from repro.storage.blockcache import SharedBlockCache

            self.shared_cache = SharedBlockCache(
                self.db.clock, self.db.cost,
                capacity_bytes=shared_cache_bytes, metrics=self.db.metrics,
            )
        if replicas > 1:
            # Critical-workload mode (paper §II-E): redundant read VWs
            # behind one query interface with transparent failover.
            from repro.cluster.replicas import ReplicatedWarehouse

            self.read_vw = ReplicatedWarehouse(
                "read-vw", self.db.clock, self.db.cost, self.db.store,
                replicas=replicas, workers_per_replica=read_workers,
                metrics=self.db.metrics, config=warehouse_config,
                tracer=self.db.tracer, shared_cache=self.shared_cache,
            )
        else:
            self.read_vw = VirtualWarehouse(
                "read-vw", self.db.clock, self.db.cost, self.db.store,
                metrics=self.db.metrics, config=warehouse_config,
                tracer=self.db.tracer, shared_cache=self.shared_cache,
            )
            for _ in range(read_workers):
                self.read_vw.add_worker()

    # ------------------------------------------------------------------
    # Convenience passthroughs
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimulatedClock:
        """The shared simulated clock."""
        return self.db.clock

    @property
    def settings(self) -> EngineSettings:
        """Session settings (shared with the planning engine)."""
        return self.db.settings

    @property
    def metrics(self):
        """Shared metric registry."""
        return self.db.metrics

    @property
    def tracer(self):
        """Shared tracer (spans from both write and read sides)."""
        return self.db.tracer

    def export_metrics(self):
        """Exporter over the shared registry and tracer."""
        return self.db.export_metrics()

    def insert_rows(self, table: str, rows: List[Dict[str, Any]]):
        """Ingest through the write path; wires compaction invalidation."""
        report = self.db.insert_rows(table, rows)
        self._wire_retire_hook(table)
        return report

    def insert_columns(self, table: str, scalar_columns, vectors):
        """Columnar ingest through the write path."""
        report = self.db.insert_columns(table, scalar_columns, vectors)
        self._wire_retire_hook(table)
        return report

    def _wire_retire_hook(self, table: str) -> None:
        runtime = self.db.table(table)
        hook_attr = "_cluster_invalidation_wired"
        if not getattr(runtime, hook_attr, False):
            runtime.compactor.on_retire(
                lambda _sid, index_key: self.read_vw.invalidate_index(index_key)
            )
            setattr(runtime, hook_attr, True)

    def preload(self, table: str) -> int:
        """Preload every segment's index into its scheduled worker."""
        runtime = self.db.table(table)
        return self.read_vw.preload_indexes(
            runtime.manager.segment_ids(), runtime.manager.index_key
        )

    def scale_to(self, workers: int) -> None:
        """Scale the read warehouse to ``workers`` nodes.

        In replicated mode every replica scales to the same size.
        """
        if hasattr(self.read_vw, "scale_to"):
            self.read_vw.scale_to(workers)
        else:
            for replica in self.read_vw.replicas:
                replica.scale_to(workers)

    # ------------------------------------------------------------------
    # SQL
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Any:
        """Execute SQL: SELECTs (and EXPLAIN ANALYZE) run on the read
        warehouse, everything else goes through the write-side engine."""
        statement = parse_statement(sql)
        if not runs_select(statement):
            result = self.db.execute(sql)
            if isinstance(statement, Insert):
                self._wire_retire_hook(statement.table)
            return result
        with self.db.tracer.span(
            "query", statement=type(statement).__name__, engine="cluster"
        ) as root:
            return self.db._execute_query(
                sql, statement, root, WarehouseScans(self.read_vw)
            )
