"""Fast-vs-reference kernel equivalence and the DESIGN §9 boundary contract.

The vectorized "fast" kernels (CSR neighbor gather, cached ADC tables,
allocation-free probe loops) must be *byte-identical* to the reference
per-node kernels: same ids in the same order, and bit-equal float64
distances at the result boundary.  These tests pin that invariant across
every index type, including the delete-bitmap and ``AS OF`` snapshot
paths, plus adversarial tie/zero-norm inputs via hypothesis.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.database import BlendHouse
from repro.errors import IndexParameterError
from repro.vindex.api import (
    SearchResult,
    kernel_mode,
    pairwise_distance,
    top_k_from_distances,
)
from repro.vindex.hnsw import HNSWIndex
from repro.vindex.ivf import IVFFlatIndex
from repro.vindex.ivfpq import IVFPQIndex
from repro.vindex.kmeans import assign_to_centroids
from repro.vindex.pq import ProductQuantizer
from repro.vindex.registry import (
    IndexSpec,
    _canonical_payload,
    create_index,
    deserialize_index,
    serialize_index,
)

from tests.helpers import vector_sql

INDEX_TYPES = ["FLAT", "IVFFLAT", "IVFPQ", "IVFPQFS", "HNSW", "HNSWSQ", "DISKANN"]


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    return rng.normal(size=(400, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def queries(data):
    rng = np.random.default_rng(8)
    picks = rng.choice(data.shape[0], 8, replace=False)
    return data[picks] + rng.normal(scale=0.05, size=(8, 16)).astype(np.float32)


@pytest.fixture(scope="module")
def built(data):
    # Graph construction is mode-independent (build-time kernels always
    # use the norms form; DiskANN pins reference greedy search while
    # building), so one build serves both modes.
    out = {}
    for name in INDEX_TYPES:
        params = {"m": 4} if name.startswith("IVFPQ") else {}
        index = create_index(IndexSpec(index_type=name, dim=16, params=params))
        index.train(data)
        index.add_with_ids(data, np.arange(data.shape[0]))
        out[name] = index
    return out


def assert_byte_identical(fast, ref):
    assert fast.ids.dtype == ref.ids.dtype
    assert fast.distances.dtype == ref.distances.dtype == np.float64
    assert fast.ids.tobytes() == ref.ids.tobytes()
    assert fast.distances.tobytes() == ref.distances.tobytes()


def both_modes(index, query, k, **params):
    with kernel_mode("fast"):
        fast = index.search_with_filter(query, k, **params)
    with kernel_mode("reference"):
        ref = index.search_with_filter(query, k, **params)
    return fast, ref


@pytest.mark.parametrize("name", INDEX_TYPES)
class TestFastReferenceIdentity:
    def test_topk_byte_identical(self, built, queries, name):
        for query in queries:
            fast, ref = both_modes(built[name], query, 10)
            assert_byte_identical(fast, ref)
            assert fast.visited == ref.visited

    def test_delete_bitmap_path_byte_identical(self, built, data, queries, name):
        # The executor models delete bitmaps as an allowed-rows bitset.
        bitset = np.ones(data.shape[0], dtype=bool)
        bitset[::3] = False
        for query in queries:
            fast, ref = both_modes(built[name], query, 10, bitset=bitset)
            assert_byte_identical(fast, ref)

    def test_sparse_filter_byte_identical(self, built, data, queries, name):
        bitset = np.zeros(data.shape[0], dtype=bool)
        bitset[100:140] = True
        fast, ref = both_modes(built[name], queries[0], 5, bitset=bitset)
        assert_byte_identical(fast, ref)


class TestDepthKnobs:
    def test_hnsw_ef_sweep_byte_identical(self, built, queries):
        for ef in (10, 32, 128):
            fast, ref = both_modes(built["HNSW"], queries[0], 10, ef_search=ef)
            assert_byte_identical(fast, ref)

    def test_hnswsq_ef_sweep_byte_identical(self, built, queries):
        for ef in (10, 32, 128):
            fast, ref = both_modes(built["HNSWSQ"], queries[0], 10, ef_search=ef)
            assert_byte_identical(fast, ref)

    def test_ivfpq_nprobe_sweep_byte_identical(self, built, queries):
        for nprobe in (1, 4, 16):
            fast, ref = both_modes(built["IVFPQ"], queries[0], 10, nprobe=nprobe)
            assert_byte_identical(fast, ref)

    def test_ivfpq_lut_cache_reuse_is_transparent(self, built, queries):
        # Repeating the same query must serve the ADC tables from the
        # per-index LUT cache without changing a single byte.
        index = built["IVFPQ"]
        with kernel_mode("fast"):
            first = index.search_with_filter(queries[0], 10, nprobe=8)
            index._lut_cache.clear()
            cold = index.search_with_filter(queries[0], 10, nprobe=8)
            warm = index.search_with_filter(queries[0], 10, nprobe=8)
        assert_byte_identical(cold, first)
        assert_byte_identical(warm, cold)


class TestAdversarialInputs:
    @given(seed=st.integers(0, 2**31 - 1), dup=st.integers(2, 4))
    @settings(max_examples=10, deadline=None)
    def test_ties_and_zero_norms_byte_identical(self, seed, dup):
        # Duplicated rows force exact distance ties; zero rows and a
        # zero query exercise the zero-norm corner of the L2 kernels.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=(20, 8)).astype(np.float32)
        data = np.concatenate(
            [np.repeat(base, dup, axis=0), np.zeros((3, 8), dtype=np.float32)]
        )
        flat = create_index(IndexSpec(index_type="FLAT", dim=8))
        flat.add_with_ids(data, np.arange(data.shape[0]))
        hnsw = HNSWIndex(dim=8, m=8, ef_construction=32, seed=0)
        hnsw.add_with_ids(data, np.arange(data.shape[0]))
        probes = [
            np.zeros(8, dtype=np.float32),  # zero-norm query
            data[0],                        # lands on a duplicate cluster
            rng.normal(size=8).astype(np.float32),
        ]
        for index in (flat, hnsw):
            for query in probes:
                fast, ref = both_modes(index, query, 10, ef_search=64)
                assert_byte_identical(fast, ref)
                assert not np.isnan(fast.distances).any()


class TestBoundaryContract:
    """DESIGN §9: float32 compute through the final sqrt, float64 only at
    the result boundary — so every index reports bit-identical distances
    for the same physical rows."""

    def test_hnsw_matches_flat_bitwise(self, built, data, queries):
        # ef_search = ntotal makes the graph search exact on this scale.
        for query in queries:
            exact = built["FLAT"].search_with_filter(query, 10)
            graph = built["HNSW"].search_with_filter(
                query, 10, ef_search=data.shape[0]
            )
            assert graph.ids.tobytes() == exact.ids.tobytes()
            assert graph.distances.tobytes() == exact.distances.tobytes()

    def test_flat_matches_pairwise_distance(self, built, data, queries):
        result = built["FLAT"].search_with_filter(queries[0], 5)
        expected = pairwise_distance(queries[0], data[result.ids], "l2")
        assert result.distances.tobytes() == np.asarray(
            expected, dtype=np.float64
        ).tobytes()

    def test_distances_are_float64_at_boundary(self, built, queries):
        for name in INDEX_TYPES:
            result = built[name].search_with_filter(queries[0], 5)
            assert result.distances.dtype == np.float64, name


class TestPQCodeGuard:
    def test_oversized_codebook_rejected_loudly(self):
        # uint8 codes silently wrap past 255 — encode must refuse instead.
        rng = np.random.default_rng(3)
        pq = ProductQuantizer(dim=8, m=2, nbits=8)
        pq.train(rng.normal(size=(300, 8)).astype(np.float32))
        pq._codebooks = np.zeros((2, 300, 4), dtype=np.float32)
        with pytest.raises(IndexParameterError, match="at most 256"):
            pq.encode(rng.normal(size=(5, 8)).astype(np.float32))

    def test_in_range_codebook_still_encodes(self):
        rng = np.random.default_rng(4)
        pq = ProductQuantizer(dim=8, m=2, nbits=8)
        pq.train(rng.normal(size=(300, 8)).astype(np.float32))
        codes = pq.encode(rng.normal(size=(5, 8)).astype(np.float32))
        assert codes.dtype == np.uint8 and codes.shape == (5, 2)


class TestIVFPQEmptyProbes:
    def test_fully_filtered_probes_return_empty(self, built, data, queries):
        bitset = np.zeros(data.shape[0], dtype=bool)  # everything deleted
        for mode in ("fast", "reference"):
            with kernel_mode(mode):
                result = built["IVFPQ"].search_with_filter(
                    queries[0], 10, bitset=bitset
                )
            assert len(result) == 0
            assert result.ids.dtype == np.int64
            assert result.visited > 0  # probed cells are still charged

    def test_empty_index_returns_empty(self):
        rng = np.random.default_rng(5)
        index = IVFPQIndex(dim=8, nlist=4, m=2)
        index.train(rng.normal(size=(200, 8)).astype(np.float32))
        result = index.search_with_filter(np.zeros(8, dtype=np.float32), 10)
        assert len(result) == 0 and result.visited == 0


def _engine(rng, n=300):
    db = BlendHouse()
    db.execute(
        "CREATE TABLE docs (id UInt64, label String, "
        "embedding Array(Float32), INDEX ann embedding TYPE HNSW('DIM=16'))"
    )
    rows = [
        {
            "id": i,
            "label": ["news", "sports", "tech"][i % 3],
            "embedding": rng.normal(size=16).astype(np.float32),
        }
        for i in range(n)
    ]
    db.insert_rows("docs", rows)
    return db, rows


def _topk_sql(query, k=10, suffix="", where=""):
    where_text = f"WHERE {where} " if where else ""
    return (
        f"SELECT id, dist FROM docs{suffix} {where_text}"
        f"ORDER BY L2Distance(embedding, {vector_sql(query)}) AS dist LIMIT {k}"
    )


class TestEngineModesAgree:
    """End-to-end: the full SQL path (delete bitmaps, AS OF snapshots)
    returns identical rows under both kernel modes."""

    def test_delete_bitmap_query_identical(self, rng):
        db, rows = _engine(rng)
        db.execute("DELETE FROM docs WHERE id < 50")
        sql = _topk_sql(rows[60]["embedding"])
        with kernel_mode("fast"):
            fast = db.execute(sql).rows
        with kernel_mode("reference"):
            ref = db.execute(sql).rows
        assert fast == ref
        assert all(row[0] >= 50 for row in fast)

    def test_as_of_snapshot_query_identical(self, rng):
        db, rows = _engine(rng)
        pinned = db.table("docs").manager.manifest_id
        db.execute("DELETE FROM docs WHERE id = 17")
        sql = _topk_sql(rows[17]["embedding"], k=1, suffix=f" AS OF {pinned}")
        with kernel_mode("fast"):
            fast = db.execute(sql).rows
        with kernel_mode("reference"):
            ref = db.execute(sql).rows
        assert fast == ref
        assert fast[0][0] == 17  # the snapshot still sees the deleted row


class TestPlanRebind:
    """The rebind fast path must be invisible except in planning cost."""

    def test_rebind_hit_counted_and_identical_to_uncached(self, rng):
        db, rows = _engine(rng)
        first = db.execute(_topk_sql(rows[5]["embedding"])).rows
        assert db.export_metrics().counter("planner.rebinds") == 0
        again = db.execute(_topk_sql(rows[5]["embedding"])).rows
        assert db.export_metrics().counter("planner.rebinds") == 1
        assert again == first
        # Fresh literals reuse the cached template (shape keying) ...
        other = db.execute(_topk_sql(rows[6]["embedding"])).rows
        assert db.export_metrics().counter("planner.rebinds") == 2
        # ... and match a cache-disabled run exactly.
        db.execute("SET enable_plan_cache = 0")
        assert db.execute(_topk_sql(rows[6]["embedding"])).rows == other

    def test_set_ef_search_honoured_after_rebind(self, rng):
        db, rows = _engine(rng)
        query = rows[40]["embedding"]
        db.execute(_topk_sql(query))  # miss, caches the template
        db.execute("SET ef_search = 300")  # no cache fence
        result = db.execute(_topk_sql(query, k=5))
        assert db.export_metrics().counter("planner.rebinds") >= 1
        # ef_search=300 ≥ ntotal → the rebound plan must be exact.
        expected = sorted(
            (float(np.linalg.norm(r["embedding"] - query)), r["id"]) for r in rows
        )[:5]
        assert [row[0] for row in result.rows] == [rid for _, rid in expected]

    def test_cbo_plans_are_not_rebound(self, rng):
        db, rows = _engine(rng)
        sql = _topk_sql(rows[3]["embedding"], where="label = 'news'")
        db.execute(sql)
        hits_before = db.export_metrics().counter("plan_cache.hits")
        db.execute(sql)
        # The hybrid plan is CBO-costed: it hits the cache but re-runs
        # the optimizer so literal selectivity can still flip strategy.
        assert db.export_metrics().counter("plan_cache.hits") == hits_before + 1
        assert db.export_metrics().counter("planner.rebinds") == 0

    def test_forced_strategy_disables_rebind(self, rng):
        db, rows = _engine(rng)
        db.execute("SET forced_strategy = 'brute_force'")
        sql = _topk_sql(rows[8]["embedding"])
        db.execute(sql)
        db.execute(sql)
        assert db.export_metrics().counter("planner.rebinds") == 0


class PerCellIVF:
    """IVF_FLAT over one list per cell: the reference oracle.

    The plain form the cell-sorted arrays of :class:`IVFFlatIndex` must
    reproduce: a ``vstack`` per cell on every add, and a per-probed-cell
    filter, distance call and concatenation on every search.  It shares
    the index's centroids, so both see the same cells.
    """

    def __init__(self, index: IVFFlatIndex):
        self.index = index
        self.cell_vectors = [
            np.empty((0, index.dim), dtype=np.float32) for _ in range(index.nlist)
        ]
        self.cell_ids = [np.empty(0, dtype=np.int64) for _ in range(index.nlist)]
        self.ntotal = 0

    def add_with_ids(self, vectors, ids):
        vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        ids = np.asarray(ids, dtype=np.int64)
        cells = assign_to_centroids(vectors, self.index._centroids)
        for cell in np.unique(cells):
            members = cells == cell
            self.cell_vectors[cell] = np.vstack([self.cell_vectors[cell], vectors[members]])
            self.cell_ids[cell] = np.concatenate([self.cell_ids[cell], ids[members]])
        self.ntotal += int(vectors.shape[0])

    def search_with_filter(self, query, k, bitset=None, nprobe=8):
        index = self.index
        query = np.asarray(query, dtype=np.float32)
        if self.ntotal == 0 or k <= 0:
            return SearchResult.empty()
        nprobe = max(1, min(int(nprobe), index.nlist))
        probe = index._probe_order(query)[:nprobe]
        gathered_ids, gathered_dist = [], []
        visited = 0
        for cell in probe:
            ids = self.cell_ids[cell]
            if ids.size == 0:
                continue
            vectors = self.cell_vectors[cell]
            visited += int(ids.size)
            if bitset is not None:
                allowed = bitset[ids]
                if not allowed.any():
                    continue
                ids = ids[allowed]
                vectors = vectors[allowed]
            gathered_ids.append(ids)
            gathered_dist.append(pairwise_distance(query, vectors, index.metric))
        if not gathered_ids:
            return SearchResult.empty(visited=visited)
        return top_k_from_distances(
            np.concatenate(gathered_ids), np.concatenate(gathered_dist), k, visited=visited
        )

    def payload_bytes(self):
        payload = dict(self.index.to_payload())
        payload["cell_vectors"] = self.cell_vectors
        payload["cell_ids"] = self.cell_ids
        payload["ntotal"] = self.ntotal
        return pickle.dumps(_canonical_payload(payload), protocol=pickle.HIGHEST_PROTOCOL)

    def memory_bytes(self):
        total = int(self.index._centroids.nbytes)
        total += sum(int(v.nbytes) for v in self.cell_vectors)
        return total + sum(int(i.nbytes) for i in self.cell_ids)


def _ivf_pair(train, batches, nlist, metric="l2"):
    """An IVFFlatIndex and its per-cell oracle fed the same batches."""
    index = IVFFlatIndex(dim=train.shape[1], metric=metric, nlist=nlist, seed=0)
    index.train(train)
    oracle = PerCellIVF(index)
    start = 0
    for batch in batches:
        ids = np.arange(start, start + batch.shape[0])
        index.add_with_ids(batch, ids)
        oracle.add_with_ids(batch, ids)
        start += batch.shape[0]
    return index, oracle


def _assert_matches_oracle(index, oracle, queries, bitsets=(None,), nprobes=(1, 8)):
    for query in queries:
        for bitset in bitsets:
            for nprobe in nprobes:
                got = index.search_with_filter(query, 10, bitset=bitset, nprobe=nprobe)
                want = oracle.search_with_filter(query, 10, bitset=bitset, nprobe=nprobe)
                assert_byte_identical(got, want)
                assert got.visited == want.visited
    assert serialize_index(index) == oracle.payload_bytes()
    assert index.memory_bytes() == oracle.memory_bytes()


class TestIVFCellSortedLayout:
    """IVF_FLAT's cell-sorted posting arrays against the per-cell oracle:
    the same candidates in the same order, so byte-identical ids,
    distances and ``visited``; the same persisted bytes; the same size."""

    @pytest.fixture
    def split(self, data):
        # Three adds: each cell lists old rows before new ones.
        return [data[:150], data[150:151], data[151:]]

    def test_several_batches(self, data, queries, split):
        index, oracle = _ivf_pair(data, split, nlist=20)
        bitset = np.ones(data.shape[0], dtype=bool)
        bitset[::3] = False
        _assert_matches_oracle(index, oracle, queries, bitsets=(None, bitset))

    def test_bitset_empties_some_probed_cells(self, data, queries, split):
        index, oracle = _ivf_pair(data, split, nlist=20)
        probe = index._probe_order(queries[0])[:8]
        bitset = np.ones(data.shape[0], dtype=bool)
        for cell in probe[::2]:
            bitset[oracle.cell_ids[cell]] = False
        everything_off = np.zeros(data.shape[0], dtype=bool)
        _assert_matches_oracle(
            index, oracle, queries, bitsets=(bitset, everything_off), nprobes=(8,)
        )
        assert index.search_with_filter(queries[0], 10, bitset=everything_off).visited > 0

    def test_empty_cells(self, data, queries):
        # Train on everything, add only rows near two of the centroids.
        index = IVFFlatIndex(dim=16, nlist=20, seed=0)
        index.train(data)
        near = np.isin(assign_to_centroids(data, index._centroids), [0, 1])
        index, oracle = _ivf_pair(data, [data[near][:5], data[near][5:]], nlist=20)
        assert sum(ids.size == 0 for ids in oracle.cell_ids) >= 10
        _assert_matches_oracle(index, oracle, queries, nprobes=(1, 3, 20))

    def test_exact_ties_keep_probe_order(self):
        # Rows v and -v sit in different cells at exactly the same distance
        # from the zero query, so the top-k tie-break sees candidate order.
        rng = np.random.default_rng(11)
        half = rng.normal(size=(100, 16)).astype(np.float32)
        rows = np.concatenate([half, -half, half])
        index, oracle = _ivf_pair(rows, [rows[:150], rows[150:]], nlist=20)
        zero = np.zeros((1, 16), dtype=np.float32)
        _assert_matches_oracle(index, oracle, zero, nprobes=(4, 12, 20))
        want = oracle.search_with_filter(zero[0], 10, nprobe=12)
        for got in index.search_batch(np.repeat(zero, 2, axis=0), 10, nprobe=12):
            assert_byte_identical(got, want)

    def test_nprobe_at_least_nlist(self, data, queries, split):
        index, oracle = _ivf_pair(data, split, nlist=20)
        _assert_matches_oracle(index, oracle, queries, nprobes=(20, 25))

    def test_tiny_segment_nlist_fallback(self, data, queries):
        index, oracle = _ivf_pair(data[:5], [data[:3], data[3:5]], nlist=64)
        assert index.nlist == 5
        _assert_matches_oracle(index, oracle, queries, nprobes=(1, 2, 64))

    def test_untrained_and_empty_payloads(self, data):
        untrained = IVFFlatIndex(dim=16, nlist=8)
        restored = deserialize_index(serialize_index(untrained))
        assert serialize_index(restored) == serialize_index(untrained)
        index, oracle = _ivf_pair(data, [], nlist=8)
        assert serialize_index(index) == oracle.payload_bytes()
        assert index.memory_bytes() == oracle.memory_bytes()

    def test_payload_round_trip_keeps_layout(self, data, queries, split):
        index, _ = _ivf_pair(data, split, nlist=20)
        restored = deserialize_index(serialize_index(index))
        assert restored._vectors.flags.c_contiguous
        assert restored._offsets.tobytes() == index._offsets.tobytes()
        assert serialize_index(restored) == serialize_index(index)
        for query in queries:
            assert_byte_identical(
                restored.search_with_filter(query, 10), index.search_with_filter(query, 10)
            )

    def test_search_batch_matches_search_with_filter(self, data, queries, split):
        index, oracle = _ivf_pair(data, split, nlist=20)
        bitset = np.ones(data.shape[0], dtype=bool)
        bitset[::3] = False
        for mask in (None, bitset):
            for nprobe in (1, 8, 20):
                batch = index.search_batch(queries, 10, bitset=mask, nprobe=nprobe)
                for query, got in zip(queries, batch):
                    want = oracle.search_with_filter(query, 10, bitset=mask, nprobe=nprobe)
                    assert_byte_identical(got, want)
                    assert got.visited == want.visited
                    single = index.search_with_filter(query, 10, bitset=mask, nprobe=nprobe)
                    assert_byte_identical(got, single)

    @pytest.mark.parametrize("metric", ["ip", "cosine"])
    def test_inner_product_metrics_agree_to_rounding(self, data, queries, split, metric):
        # One matrix-vector product over the gathered rows may round the
        # last ulp differently from one product per cell (BLAS blocking);
        # the l2 kernel reduces each row on its own and is exact.
        index, oracle = _ivf_pair(data, split, nlist=20, metric=metric)
        for query in queries:
            got = index.search_with_filter(query, 10, nprobe=8)
            want = oracle.search_with_filter(query, 10, nprobe=8)
            np.testing.assert_allclose(got.distances, want.distances, rtol=1e-5, atol=1e-5)
            assert got.visited == want.visited
        assert serialize_index(index) == oracle.payload_bytes()
