"""The four benchmark workloads, driven through the public library API.

Each workload generates its inputs from the seed (untimed), sets the
engine up (timed as ``setup_s``), runs a fixed amount of work sized from
``--seconds`` (so the simulated metrics are a deterministic function of
the seed), and checks every output against a numpy brute-force oracle.
Every workload uses one client in one process and the serial executor.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import BlendHouse
from repro.cluster.warehouse import WarehouseConfig
from repro.elastic import FleetBlendHouse, FleetConfig
from repro.errors import BlendHouseError
from repro.ingest.writer import IngestConfig
from repro.serving.frontend import ServingConfig, ServingFrontend
from repro.serving.loadgen import run_open_loop
from repro.serving.loop import run_virtual
from repro.serving.session import Lane
from repro.workloads.datasets import make_cohere_like, make_production_like

from perfbench.hostspeed import HostSpeed
from perfbench.trace import StepTimer

K = 10
# A row queried with its own vector comes back at distance 0 up to
# float32 rounding of the squared-norm expansion.
PROBE_TOLERANCE = 1e-4


class CheckFailed(Exception):
    """A correctness check failed; the run must print no numbers."""


def topk_sql(vector: np.ndarray, where: Optional[str] = None) -> str:
    """A top-10 L2 query on table ``t``, optionally filtered."""
    literal = "[" + ",".join(f"{float(x):.6f}" for x in vector) + "]"
    clause = f"WHERE {where} " if where else ""
    return (f"SELECT id, dist FROM t {clause}ORDER BY "
            f"L2Distance(embedding, {literal}) AS dist LIMIT {K}")


def exact_topk(
    base: np.ndarray, queries: np.ndarray, k: int, masks: Optional[Sequence[np.ndarray]] = None,
) -> List[np.ndarray]:
    """Brute-force top-``k`` row numbers of ``base`` per query (L2)."""
    norms = (base.astype(np.float64) ** 2).sum(axis=1)
    out: List[np.ndarray] = []
    for lo in range(0, len(queries), 256):
        chunk = queries[lo:lo + 256].astype(np.float64)
        dist = norms[None, :] - 2.0 * chunk @ base.T.astype(np.float64)
        for j, row in enumerate(dist):
            if masks is not None:
                row = np.where(masks[lo + j], row, np.inf)
            live = int(np.isfinite(row).sum())
            take = min(k, live)
            if take == 0:
                out.append(np.empty(0, dtype=np.int64))
                continue
            part = np.argpartition(row, take - 1)[:take]
            out.append(part[np.argsort(row[part], kind="stable")])
    return out


# (start, end, wall seconds) of one operation; the host's speed for it is
# read from the reference kernel runs in and around [start, end].  For a
# served request, wall excludes the time it sat suspended and start == end
# is its submission instant: its own steps are scattered across the
# lifetimes of other requests.
OpSpan = Tuple[float, float, float]


@dataclass
class WriteLog:
    """(rows, start, end) of every write call; rows is 0 for DELETE etc."""

    host: HostSpeed
    calls: List[Tuple[int, float, float]] = field(default_factory=list)

    def timed(self, call: Callable[[], Any], rows: int) -> Any:
        # Writes run long (up to seconds), so the host is sampled on both
        # sides of each one.
        self.host.tick()
        start = time.perf_counter()
        try:
            return call()
        finally:
            self.calls.append((rows, start, time.perf_counter()))
            self.host.tick()

    @property
    def rows(self) -> int:
        return sum(rows for rows, _, _ in self.calls)


@dataclass
class Recorder:
    """What one run measured, before it becomes metrics."""

    host: HostSpeed
    reads: List[OpSpan] = field(default_factory=list)
    read_sim: List[float] = field(default_factory=list)
    writes: WriteLog = field(init=False)
    recall_hits: int = 0
    recall_total: int = 0
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, float] = field(default_factory=dict)
    # Oracle comparisons, run after the peak memory of the program has
    # been read so the oracle's own arrays never count toward it.
    deferred: List[Callable[[], None]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.writes = WriteLog(self.host)

    def verify(self) -> None:
        while self.deferred:
            self.deferred.pop(0)()

    def run(self, call: Callable[[], Any]) -> Any:
        """One operation: counted, and counted as failed if it raises."""
        self.attempted += 1
        try:
            return call()
        except BlendHouseError as exc:
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return None

    def recall(self) -> float:
        return self.recall_hits / self.recall_total if self.recall_total else 0.0

    def add_recall(self, got: Sequence[int], expected: Sequence[int]) -> None:
        self.recall_hits += len(set(int(i) for i in got) & set(int(i) for i in expected))
        self.recall_total += len(expected)


class Workload:
    """Base: inputs from a seed, repeated set-ups, one measured phase."""

    name = ""
    recall_floor = 0.9
    # Read queries (or rounds, or requests) per second of ``--seconds``,
    # calibrated on a 2-core x86 host; fixed so both commits do the
    # same work.
    ops_per_second: float

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.clock_owner: Any = None

    def ops(self, seconds: float) -> int:
        return max(4, int(round(self.ops_per_second * seconds)))

    def setup(self, log: WriteLog) -> Any:
        raise NotImplementedError

    def measure(self, engine: Any, ops: int, rec: Recorder) -> None:
        raise NotImplementedError

    def row_bytes(self) -> float:
        """User bytes of one row: the vector plus its scalar columns."""
        return float(self.data.dim * 4 + 16)

    def raw_bytes(self, engine: Any) -> float:
        """User bytes of the rows live at the end of the run."""
        return self.rows * self.row_bytes()

    def counters(self, engine: Any) -> Dict[str, int]:
        return dict(engine.metrics.counters)

    def store(self, engine: Any) -> Any:
        return engine.store

    def warm(self, engine: Any, vectors: np.ndarray) -> None:
        for vector in vectors:
            engine.execute(topk_sql(vector))

    @staticmethod
    def _ids(result: Any) -> List[int]:
        """Row ids of a result; none for an operation that failed."""
        return [] if result is None else [int(row[0]) for row in result.rows]

    def _recall(self, rec: Recorder, results: List[Any], queries: np.ndarray,
                masks: Optional[List[np.ndarray]] = None) -> None:
        truth = exact_topk(self.data.vectors, queries, K, masks)
        for result, expected in zip(results, truth):
            rec.add_recall(self._ids(result), self.data.scalars["id"][expected])


def _timed_reads(engine: Any, sqls: Sequence[str], rec: Recorder) -> List[Any]:
    """Run ``sqls`` one after another, recording wall and simulated time."""
    results = []
    clock = engine.clock
    for sql in sqls:
        rec.host.tick()
        sim0 = clock.now
        t0 = time.perf_counter()
        results.append(rec.run(lambda: engine.execute(sql)))
        t1 = time.perf_counter()
        rec.reads.append((t0, t1, t1 - t0))
        rec.read_sim.append(clock.now - sim0)
    return results


# ----------------------------------------------------------------------
# ann_ivf: pure top-10 ANN through BlendHouse.execute
# ----------------------------------------------------------------------
class AnnIvf(Workload):
    name = "ann_ivf"
    ops_per_second = 130.0
    NPROBE = 40

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.rows = 2048 if tiny else 32768
        self.segment_rows = 512 if tiny else 4096
        self.pool = 64 if tiny else 4000
        self.data = make_cohere_like(n=self.rows, dim=64, n_queries=self.pool + 32, seed=seed)

    def setup(self, log: WriteLog) -> Any:
        db = BlendHouse(ingest_config=IngestConfig(max_segment_rows=self.segment_rows))
        self.clock_owner = db
        db.execute(
            "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE IVFFLAT('DIM=64'))"
        )
        db.execute(f"SET nprobe = {self.NPROBE}")
        data = self.data
        for lo in range(0, self.rows, self.segment_rows):
            hi = lo + self.segment_rows
            log.timed(lambda: db.insert_columns(
                "t", {"id": data.scalars["id"][lo:hi], "attr": data.scalars["attr"][lo:hi]},
                data.vectors[lo:hi]), hi - lo)
        self.warm(db, data.queries[self.pool:])
        return db

    def measure(self, engine: Any, ops: int, rec: Recorder) -> None:
        queries = self.data.queries[np.arange(ops) % self.pool]
        results = _timed_reads(engine, [topk_sql(q) for q in queries], rec)
        rec.deferred.append(lambda: self._recall(rec, results, queries))


# ----------------------------------------------------------------------
# hybrid_hnsw: multi-predicate image-search queries over HNSW
# ----------------------------------------------------------------------
class HybridHnsw(Workload):
    name = "hybrid_hnsw"
    ops_per_second = 180.0
    EF_SEARCH = 64
    CATEGORIES = ("animal", "人物", "landscape", "product", "meme", "food")
    DAYS = (20241001, 20241002, 20241003)

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.rows = 1200 if tiny else 3072
        self.pool = 48 if tiny else 2000
        self.data = make_production_like(n=self.rows, dim=48, n_queries=self.pool + 24,
                                         seed=seed)
        scalars = self.data.scalars
        self.category = np.array(scalars["category"])
        self.source = np.array(scalars["source"])
        self.day = np.asarray(scalars["day"])
        self.score = np.asarray(scalars["score"])
        self.rng = np.random.default_rng(seed + 7)

    def setup(self, log: WriteLog) -> Any:
        db = BlendHouse(ingest_config=IngestConfig(max_segment_rows=2048))
        self.clock_owner = db
        db.execute(
            "CREATE TABLE t (id UInt64, category String, source String, day Int64, "
            "score Float64, embedding Array(Float32), "
            "INDEX ann embedding TYPE HNSW('DIM=48', 'M=8, ef_construction=64')) "
            "PARTITION BY day"
        )
        db.execute(f"SET ef_search = {self.EF_SEARCH}")
        # The paper's pre-filter rule ("tens of thousands of rows"),
        # scaled to this table so every plan shape is reachable.
        db.execute(f"SET prefilter_row_threshold = {max(16, self.rows // 24)}")
        scalars = self.data.scalars
        for day in self.DAYS:
            rows = np.flatnonzero(self.day == day)
            columns = {
                "id": scalars["id"][rows], "category": [scalars["category"][i] for i in rows],
                "source": [scalars["source"][i] for i in rows], "day": self.day[rows],
                "score": self.score[rows],
            }
            log.timed(
                lambda: db.insert_columns("t", columns, self.data.vectors[rows]), len(rows))
        for i, vector in enumerate(self.data.queries[self.pool:]):
            where, _ = self.predicate(i % 3, np.random.default_rng(i))
            db.execute(topk_sql(vector, where))
        return db

    def predicate(self, shape: int, rng: np.random.Generator) -> Tuple[str, np.ndarray]:
        """One of three predicate shapes with fresh literals.

        Shape 0 passes about 0.5% of rows (brute-force plan), shape 1
        about 25% (pre-filter, and it prunes two of three day
        partitions), shape 2 about 80% (post-filter iterator).  At this
        table size the optimizer's pre-filter band is 15-35% of rows.
        """
        if shape == 0:
            cat = self.CATEGORIES[int(rng.integers(len(self.CATEGORIES)))]
            site = f"site-{int(rng.integers(20))}"
            day = self.DAYS[int(rng.integers(2))]
            where = f"category = '{cat}' AND source = '{site}' AND day >= {day}"
            mask = (self.category == cat) & (self.source == site) & (self.day >= day)
        elif shape == 1:
            day = self.DAYS[int(rng.integers(len(self.DAYS)))]
            cut = float(np.round(rng.uniform(0.30, 0.40), 4))
            where = f"day = {day} AND score > {cut}"
            mask = (self.day == day) & (self.score > cut)
        else:
            cut = float(np.round(rng.uniform(0.30, 0.36), 4))
            where = f"score > {cut}"
            mask = self.score > cut
        return where, mask

    def measure(self, engine: Any, ops: int, rec: Recorder) -> None:
        queries = self.data.queries[np.arange(ops) % self.pool]
        sqls, masks = [], []
        for i, vector in enumerate(queries):
            where, mask = self.predicate(i % 3, self.rng)
            sqls.append(topk_sql(vector, where))
            masks.append(mask)
        results = _timed_reads(engine, sqls, rec)
        rec.deferred.append(lambda: self._recall(rec, results, queries, masks))
        for strategy in ("brute_force", "pre_filter", "post_filter"):
            rec.extra[f"plans.{strategy}"] = float(sum(
                1 for r in results if r is not None and r.strategy.value == strategy))

    def row_bytes(self) -> float:
        text = sum(len(c.encode()) for c in self.data.scalars["category"])
        text += sum(len(s) for s in self.data.scalars["source"])
        return self.data.dim * 4 + 24 + text / self.rows


# ----------------------------------------------------------------------
# ingest_mixed: writes alongside reads, WAL + auto-compaction on
# ----------------------------------------------------------------------
class IngestMixed(Workload):
    name = "ingest_mixed"
    ops_per_second = 4.0          # rounds per second
    # A fixed cell count keeps recall at a given nprobe as compaction
    # merges segments (the rule-based nlist grows with segment size).
    NLIST = 64
    NPROBE = 32
    BATCH = 512
    DELETES = 128
    READS_PER_ROUND = 20
    # An operator's periodic CHECKPOINT (rounds); the WAL-size trigger
    # (8 MiB) is never reached by this workload's WAL records.
    CHECKPOINT_EVERY = 10

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.base = 1024 if tiny else 16384
        self.max_rounds = 6 if tiny else 120
        self.checkpoint_every = 2 if tiny else self.CHECKPOINT_EVERY
        self.data = make_cohere_like(
            n=self.base + self.max_rounds * self.BATCH, dim=64,
            n_queries=256 if tiny else 2048, seed=seed)
        self.rng = np.random.default_rng(seed + 11)
        self.live = np.zeros(self.data.n, dtype=bool)

    def ops(self, seconds: float) -> int:
        return min(self.max_rounds, max(2, int(round(self.ops_per_second * seconds))))

    def setup(self, log: WriteLog) -> Any:
        db = BlendHouse()
        self.clock_owner = db
        db.execute(
            "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
            f"INDEX ann embedding TYPE IVFFLAT('DIM=64', 'nlist={self.NLIST}'))"
        )
        db.execute(f"SET nprobe = {self.NPROBE}")
        step = 2048
        for lo in range(0, self.base, step):
            self._insert(db, lo, min(lo + step, self.base), log)
        db.execute("SET auto_compaction = 1")
        self.warm(db, self.data.queries[-16:])
        return db

    def _insert(self, db: Any, lo: int, hi: int, log: WriteLog) -> None:
        data = self.data
        log.timed(lambda: db.insert_columns(
            "t", {"id": data.scalars["id"][lo:hi], "attr": data.scalars["attr"][lo:hi]},
            data.vectors[lo:hi]), hi - lo)
        self.live[lo:hi] = True

    def measure(self, engine: Any, ops: int, rec: Recorder) -> None:
        db, data = engine, self.data
        self.live[:] = False
        self.live[:self.base] = True
        deleted = np.zeros(data.n, dtype=bool)
        pending: List[Tuple[np.ndarray, List[int], np.ndarray]] = []
        writes = rec.writes
        for round_no in range(ops):
            lo = self.base + round_no * self.BATCH
            hi = lo + self.BATCH
            rec.run(lambda: self._insert(db, lo, hi, writes))
            # Read-your-writes: the newest row is visible at distance 0.
            probe = int(self.rng.integers(lo, hi))
            got = rec.run(lambda: db.execute(
                topk_sql(data.vectors[probe], f"id >= {probe} AND id <= {probe}")))
            if got is not None and (
                    not got.rows or int(got.rows[0][0]) != probe
                    or abs(float(got.rows[0][1])) > PROBE_TOLERANCE):
                raise CheckFailed(f"read-your-writes probe for id {probe} returned {got.rows}")
            victims = self.rng.choice(np.flatnonzero(self.live), size=self.DELETES,
                                      replace=False)
            rec.run(lambda: writes.timed(lambda: db.execute(
                "DELETE FROM t WHERE id IN (" + ",".join(str(int(v)) for v in victims) + ")"),
                0))
            self.live[victims] = False
            deleted[victims] = True
            if round_no % self.checkpoint_every == self.checkpoint_every - 1:
                rec.run(lambda: writes.timed(lambda: db.execute("CHECKPOINT"), 0))
            start = self.READS_PER_ROUND * round_no
            picks = (np.arange(self.READS_PER_ROUND) + start) % (len(data.queries) - 16)
            queries = data.queries[picks]
            results = _timed_reads(db, [topk_sql(q) for q in queries], rec)
            for result in results:
                ids = np.asarray(self._ids(result), dtype=np.int64)
                if ids.size and deleted[ids].any():
                    raise CheckFailed(f"deleted ids returned: {ids[deleted[ids]].tolist()}")
            pending.append((queries, [self._ids(r) for r in results], self.live.copy()))

        def recall() -> None:
            for queries, got, live in pending:
                truth = exact_topk(data.vectors, queries, K, [live] * len(queries))
                for ids, expected in zip(got, truth):
                    rec.add_recall(ids, data.scalars["id"][expected])

        rec.deferred.append(recall)
        rec.extra["compaction.merges"] = float(db.metrics.count("compaction.merges"))

    def raw_bytes(self, engine: Any) -> float:
        return float(self.live.sum()) * self.row_bytes()


# ----------------------------------------------------------------------
# fleet_serving: ServingFrontend over a two-warehouse fleet
# ----------------------------------------------------------------------
class _RecordingSubmit:
    """Instance-level ``submit`` that keeps every reply and its wall cost.

    Looks the class method up on each call, so a traced run's wrapper on
    ``ServingFrontend.submit`` still sees every request.  Wall cost is
    the time the request's own coroutine steps ran, excluding the time
    it sat suspended while other requests ran.
    """

    def __init__(self, frontend: ServingFrontend, host: HostSpeed,
                 on_submit: Any = None) -> None:
        self.frontend = frontend
        self.host = host
        self.on_submit = on_submit
        self.replies: List[Tuple[Any, Any, OpSpan]] = []
        self.submitted = 0

    async def __call__(self, request: Any) -> Any:
        if self.on_submit is not None:
            self.on_submit(self.submitted)
        self.submitted += 1
        self.host.tick()
        timer = StepTimer()
        start = time.perf_counter()
        reply = await timer.awaitable(type(self.frontend).submit(self.frontend, request))
        self.replies.append((request, reply, (start, start, timer.wall)))
        return reply


class FleetServing(Workload):
    name = "fleet_serving"
    ops_per_second = 70.0         # requests of the nominal-rate run
    NPROBE = 32
    TENANTS = ("t0", "t1", "t2", "t3")
    BATCH_FRACTION = 0.25
    # Half the fleet's capacity: queueing is present but bounded.
    NOMINAL_QPS = 2_000.0
    # Capacity ladder (simulated queries/s) spanning the knee of the
    # latency curve (the 4k rung fails on some seeds, the 5k rung on
    # nearly all), and the interactive latency limit a rung must meet.
    # A rung's latencies pool LADDER_DRAWS independent arrival draws:
    # the tail of one short draw follows its largest burst, which moved
    # the capacity by 14-25% (IQR over median) from seed to seed.  The
    # limit is on p90, the highest percentile the pooled ~450
    # interactive replies of a rung put tens of samples beyond.
    LADDER = (3_000.0, 4_000.0, 5_000.0)
    LADDER_DRAWS = 4
    LIMIT_PERCENTILE = 90
    LIMIT_S = 5.5e-3
    # Indexes one worker keeps in memory: fewer than the segments routed
    # to it, so memory and disk tiers both serve.
    MEMORY_INDEXES = 4.5
    # A joining warehouse preloads only the hottest half of the segments;
    # the rest are brute-forced while their indexes load in the
    # background (the cold-cache cost masking is meant to hide).
    PRELOAD_TOP_K = 4

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed)
        self.rows = 2048 if tiny else 16384
        self.segment_rows = 256 if tiny else 2048
        self.pool = 64 if tiny else 1024
        self.rung = 24 if tiny else 150
        self.data = make_cohere_like(n=self.rows, dim=64, n_queries=self.pool + 16, seed=seed)
        self.sqls = [topk_sql(q) for q in self.data.queries]
        self.query_of = {sql: i for i, sql in enumerate(self.sqls)}

    def setup(self, log: WriteLog) -> Any:
        index_bytes = self.segment_rows * (64 * 4 + 8)
        fleet = FleetBlendHouse(
            ingest_config=IngestConfig(max_segment_rows=self.segment_rows),
            fleet_config=FleetConfig(
                warehouses=2, workers_per_warehouse=2,
                warehouse=WarehouseConfig(
                    worker_mem_data_bytes=int(index_bytes * self.MEMORY_INDEXES)),
                preload_top_k=self.PRELOAD_TOP_K,
            ),
        )
        self.clock_owner = fleet
        fleet.execute(
            "CREATE TABLE t (id UInt64, attr Int64, embedding Array(Float32), "
            "INDEX ann embedding TYPE IVFFLAT('DIM=64'))"
        )
        fleet.execute(f"SET nprobe = {self.NPROBE}")
        data = self.data
        step = self.segment_rows * 2
        for lo in range(0, self.rows, step):
            hi = min(lo + step, self.rows)
            log.timed(lambda: fleet.insert_columns(
                "t", {"id": data.scalars["id"][lo:hi], "attr": data.scalars["attr"][lo:hi]},
                data.vectors[lo:hi]), hi - lo)
        fleet.preload("t")
        for i, sql in enumerate(self.sqls[self.pool:]):
            fleet.execute(sql, tenant=self.TENANTS[i % len(self.TENANTS)])
        return fleet

    def _open_loop(
        self, fleet: Any, host: HostSpeed, rate: float, total: int, seed: int,
        on_submit: Any = None,
    ) -> Tuple[Any, _RecordingSubmit]:
        frontend = ServingFrontend(fleet, ServingConfig(max_inflight=8, max_queue_depth=4096))
        recorder = _RecordingSubmit(frontend, host, on_submit)
        frontend.submit = recorder  # type: ignore[method-assign]
        report = run_virtual(run_open_loop(
            frontend, self.sqls[:self.pool], arrival_rate_qps=rate, total_queries=total,
            batch_fraction=self.BATCH_FRACTION, tenants=self.TENANTS, seed=seed,
        ))
        return report, recorder

    def measure(self, engine: Any, ops: int, rec: Recorder) -> None:
        fleet = engine
        joined: List[str] = []

        def scale_midway(submitted: int) -> None:
            if submitted == ops // 2 and not joined:
                joined.append(fleet.scale_out(masked=True))

        served0 = dict(fleet.metrics.counters)
        report, recorder = self._open_loop(
            fleet, rec.host, self.NOMINAL_QPS, ops, self.seed, scale_midway)
        self._check_replies(recorder, rec)
        rec.read_sim = [
            reply.latency_s for request, reply, _ in recorder.replies
            if request.lane is Lane.INTERACTIVE
        ]
        rec.reads = [span for _, _, span in recorder.replies]
        rec.extra["serving.queue_wait_sim_p99_ms"] = (report.queue_wait or {}).get("p99", 0.0) * 1e3
        rec.extra["serving.rejected"] = float(report.rejected_admission + report.rejected_quota)
        name = joined[0] if joined else ""
        served = fleet.metrics.count(f"fleet.served_by.{name}") - served0.get(
            f"fleet.served_by.{name}", 0)
        rec.extra["elastic.served_share"] = served / max(1, len(recorder.replies))
        rec.extra["elastic.joined_warehouses"] = float(len(joined))

        # Capacity ladder: interactive tail per rate, no rejections.  Every
        # rung replays the same arrival draws and request mixes, scaled in
        # time, so the tail-versus-rate curve compares like with like.
        draws = np.random.SeedSequence(self.seed).generate_state(self.LADDER_DRAWS)
        points = []
        for rate in self.LADDER:
            latencies: List[float] = []
            for draw in draws:
                _, recorder = self._open_loop(fleet, rec.host, rate, self.rung, int(draw))
                self._check_replies(recorder, rec)
                latencies += [reply.latency_s for request, reply, _ in recorder.replies
                              if request.lane is Lane.INTERACTIVE]
            tail = float(np.percentile(latencies, self.LIMIT_PERCENTILE))
            points.append((rate, tail))
            rec.extra[f"ladder.p{self.LIMIT_PERCENTILE}_ms.{int(rate)}"] = tail * 1e3
        rec.extra["sim_capacity_qps"] = capacity_from_ladder(points, self.LIMIT_S)

    def _check_replies(self, recorder: _RecordingSubmit, rec: Recorder) -> None:
        """Count every reply; one that is not ``ok`` (rejection, timeout,
        error) is a failed operation."""
        rec.attempted += len(recorder.replies)
        for _, reply, _ in recorder.replies:
            if not reply.ok:
                rec.failed += 1
                rec.errors.append(f"reply {reply.status}: {reply.error}")
        done = [(r, reply) for r, reply, _ in recorder.replies if reply.ok]
        queries = self.data.queries[[self.query_of[r.sql] for r, _ in done]]
        results = [reply.result for _, reply in done]
        rec.deferred.append(lambda: self._recall(rec, results, queries))

    def store(self, engine: Any) -> Any:
        return engine.db.store


def capacity_from_ladder(points: Sequence[Tuple[float, float]], limit: float) -> float:
    """Highest rate meeting ``limit``, interpolated to the first failing rung.

    ``points`` are (rate, tail latency) in ladder order.  Past the last
    passing rung the tail is taken as linear in the rate up to the first
    failing rung; a ladder whose every rung passes reports its top rate, and one
    whose first rung fails reports that rung scaled down by its excess.
    """
    last_ok: Optional[Tuple[float, float]] = None
    for rate, tail in points:
        if tail > limit:
            if last_ok is None:
                return rate * limit / tail
            rate0, tail0 = last_ok
            return rate0 + (limit - tail0) / (tail - tail0) * (rate - rate0)
        last_ok = (rate, tail)
    return points[-1][0]


WORKLOADS = {cls.name: cls for cls in (AnnIvf, HybridHnsw, IngestMixed, FleetServing)}
