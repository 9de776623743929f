"""FleetBlendHouse: the SQL engine fronted by an elastic warehouse fleet.

Write-side planning stays in the core :class:`BlendHouse` (the dedicated
write warehouse of the paper's read/write separation); every SELECT is
routed by ``(tenant, lane)`` to one member of a
:class:`~repro.elastic.fleet.WarehouseFleet` and executes on that
warehouse's workers.  The staged generator (:meth:`select_stages`)
speaks the same :class:`~repro.core.database.SelectStage` protocol as
``BlendHouse.select_stages``, so a
:class:`~repro.serving.frontend.ServingFrontend` can front the whole
fleet — staged queries route across warehouses instead of one frontend
pinning one engine (``routed_serving``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional

from repro.core.database import BlendHouse, EngineSettings
from repro.core.select import (
    SelectStage,
    WarehouseScans,
    parse_select,
    runs_select,
    staged_select,
)
from repro.elastic.autoscaler import AutoscalerPolicy, FleetAutoscaler
from repro.elastic.fleet import FleetConfig, WarehouseFleet
from repro.elastic.preloader import BackgroundPreloader
from repro.executor.cancel import CancelToken
from repro.ingest.writer import IngestConfig
from repro.observe.slo import SLOMonitor
from repro.simulate.clock import SimulatedClock
from repro.simulate.costmodel import DeviceCostModel
from repro.sqlparser.ast_nodes import Insert
from repro.sqlparser.parser import parse_statement


class FleetBlendHouse:
    """BlendHouse with SELECTs spread across an elastic warehouse fleet."""

    # Capability flag the ServingFrontend probes: select_stages accepts
    # tenant/lane keywords and routes per query.
    routed_serving = True

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        cost_model: Optional[DeviceCostModel] = None,
        ingest_config: Optional[IngestConfig] = None,
        settings: Optional[EngineSettings] = None,
        fleet_config: Optional[FleetConfig] = None,
    ) -> None:
        self.db = BlendHouse(
            clock=clock, cost_model=cost_model,
            ingest_config=ingest_config, settings=settings,
        )
        self.fleet = WarehouseFleet(
            self.db.clock, self.db.cost, self.db.store,
            metrics=self.db.metrics, tracer=self.db.tracer,
            config=fleet_config,
        )
        self.preloader = BackgroundPreloader(self.fleet)
        self.autoscaler: Optional[FleetAutoscaler] = None

    # ------------------------------------------------------------------
    # Passthroughs
    # ------------------------------------------------------------------
    @property
    def clock(self) -> SimulatedClock:
        return self.db.clock

    @property
    def settings(self) -> EngineSettings:
        return self.db.settings

    @property
    def metrics(self):
        return self.db.metrics

    @property
    def tracer(self):
        return self.db.tracer

    @property
    def slowlog(self):
        return self.db.slowlog

    def table(self, name: str):
        return self.db.table(name)

    def export_metrics(self):
        return self.db.export_metrics()

    # ------------------------------------------------------------------
    # Autoscaling
    # ------------------------------------------------------------------
    def attach_autoscaler(
        self, monitor: SLOMonitor, policy: AutoscalerPolicy
    ) -> FleetAutoscaler:
        """Wire an SLO monitor + policy into the fleet's control loop.

        The autoscaler ticks after every query executed through
        :meth:`execute`; serving-tier deployments tick it from their own
        loop (the frontend feeds the same monitor via ``frontend.slo``).
        """
        self.autoscaler = FleetAutoscaler(
            self.fleet, monitor, policy, preloader=self.preloader
        )
        return self.autoscaler

    def scale_out(self, masked: Optional[bool] = None) -> str:
        """Manually add one warehouse (masked by fleet default)."""
        return self.fleet.add_warehouse(masked=masked, preloader=self.preloader)

    def scale_in(self, name: Optional[str] = None) -> Optional[str]:
        """Manually remove one warehouse."""
        return self.fleet.remove_warehouse(name)

    # ------------------------------------------------------------------
    # Ingest (write side) + catalog wiring
    # ------------------------------------------------------------------
    def insert_rows(self, table: str, rows: List[Dict[str, Any]]):
        report = self.db.insert_rows(table, rows)
        self._wire_table(table)
        return report

    def insert_columns(self, table: str, scalar_columns, vectors):
        report = self.db.insert_columns(table, scalar_columns, vectors)
        self._wire_table(table)
        return report

    def _wire_table(self, table: str) -> None:
        """Retire-hook invalidation across the fleet + catalog entry."""
        runtime = self.db.table(table)
        if not getattr(runtime, "_fleet_wired", False):
            runtime.compactor.on_retire(
                lambda _sid, index_key: self.fleet.invalidate_index(index_key)
            )
            manager = runtime.manager
            self.fleet.register_table(
                table, lambda: (manager.segment_ids(), manager.index_key)
            )
            runtime._fleet_wired = True

    def preload(self, table: str) -> int:
        """Warm every fleet member for ``table`` (initial preload)."""
        self._wire_table(table)
        runtime = self.db.table(table)
        return self.fleet.preload_all(
            runtime.manager.segment_ids(), runtime.manager.index_key
        )

    # ------------------------------------------------------------------
    # SQL execution
    # ------------------------------------------------------------------
    def execute(
        self,
        sql: str,
        tenant: str = "default",
        lane: str = "interactive",
    ) -> Any:
        """Execute SQL; SELECTs (and EXPLAIN ANALYZE) route through the
        fleet by (tenant, lane)."""
        statement = parse_statement(sql)
        if not runs_select(statement):
            result = self.db.execute(sql)
            if isinstance(statement, Insert):
                self._wire_table(statement.table)
            return result
        start = self.db.clock.now
        warehouse = self.fleet.route(tenant, lane)
        with self.db.tracer.span(
            "query", statement=type(statement).__name__, engine="fleet",
            warehouse=warehouse.name,
        ) as root:
            result = self.db._execute_query(
                sql, statement, root, WarehouseScans(warehouse)
            )
            self._count_served(warehouse)
        if self.autoscaler is not None:
            self.autoscaler.observe_latency(
                lane, self.db.clock.elapsed_since(start)
            )
            self.autoscaler.tick()
        return result

    def _count_served(self, warehouse: Any) -> None:
        self.metrics.incr("fleet.queries")
        self.metrics.incr(f"fleet.served_by.{warehouse.name}")

    # ------------------------------------------------------------------
    # Staged serving execution (drives a ServingFrontend)
    # ------------------------------------------------------------------
    def select_stages(
        self,
        sql: str,
        cancel: Optional[CancelToken] = None,
        tenant: str = "default",
        lane: str = "interactive",
    ) -> Iterator[SelectStage]:
        """One SELECT as resumable stages, executed on a routed warehouse.

        Same stage protocol as :meth:`BlendHouse.select_stages`, except
        segment scans run on the workers of the warehouse the router
        picked for this (tenant, lane), resolving indexes through that
        warehouse's hierarchical caches; the flight record names it.
        """
        statement = parse_select(sql)
        warehouse = self.fleet.route(tenant, lane)
        stages = staged_select(
            self.db, sql, statement, WarehouseScans(warehouse), cancel
        )
        try:
            for stage in stages:
                if stage.result is not None:
                    self._count_served(warehouse)
                yield stage
        finally:
            stages.close()
