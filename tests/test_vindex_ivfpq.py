"""Tests for IVFPQ / IVFPQFS."""

import numpy as np
import pytest

from repro.errors import IndexNotTrainedError, IndexParameterError
from repro.vindex.ivfpq import IVFPQFastScanIndex, IVFPQIndex


def clustered(n=500, dim=16, k=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, dim)).astype(np.float32)
    points = centers[rng.integers(0, k, size=n)] + rng.normal(
        scale=0.3, size=(n, dim)
    ).astype(np.float32)
    return points


@pytest.fixture
def data():
    return clustered()


def build(cls, data, refine=True, **kwargs):
    idx = cls(dim=16, nlist=8, m=4, seed=0, **kwargs)
    idx.train(data)
    idx.add_with_ids(data, np.arange(data.shape[0]))
    if refine:
        idx.set_refiner(lambda ids: data[np.asarray(ids, dtype=np.int64)])
    return idx


class TestBuild:
    def test_requires_training(self, data):
        idx = IVFPQIndex(dim=16, nlist=8, m=4)
        with pytest.raises(IndexNotTrainedError):
            idx.add_with_ids(data, np.arange(data.shape[0]))

    def test_l2_only(self):
        with pytest.raises(IndexParameterError):
            IVFPQIndex(dim=16, metric="ip")

    def test_ntotal(self, data):
        idx = build(IVFPQIndex, data)
        assert idx.ntotal == data.shape[0]

    def test_retrain_resets_ntotal(self, data):
        idx = build(IVFPQIndex, data, refine=False)
        idx.train(data)
        assert idx.ntotal == 0
        assert len(idx.search_with_filter(data[0], 5)) == 0
        idx.add_with_ids(data[:10], np.arange(10))
        assert idx.ntotal == 10
        # The bitset has to cover the rows indexed now, not before.
        result = idx.search_with_filter(
            data[0], 5, nprobe=idx.nlist, bitset=np.ones(10, dtype=bool)
        )
        assert set(result.ids.tolist()) <= set(range(10))


class TestSearchQuality:
    def test_refined_recall_high(self, data):
        idx = build(IVFPQIndex, data)
        rng = np.random.default_rng(1)
        queries = data[rng.choice(len(data), 20, replace=False)] + 0.05
        hits = 0
        for q in queries:
            truth = set(np.argsort(np.linalg.norm(data - q, axis=1))[:10].tolist())
            got = idx.search_with_filter(q, 10, nprobe=8, refine_factor=4)
            hits += len(set(got.ids.tolist()) & truth)
        assert hits / (10 * len(queries)) > 0.9

    def test_unrefined_worse_than_refined(self, data):
        refined = build(IVFPQIndex, data, refine=True)
        raw = build(IVFPQIndex, data, refine=False)
        rng = np.random.default_rng(2)
        queries = data[rng.choice(len(data), 25, replace=False)] + 0.05

        def recall(idx):
            hits = 0
            for q in queries:
                truth = set(np.argsort(np.linalg.norm(data - q, axis=1))[:10].tolist())
                got = idx.search_with_filter(q, 10, nprobe=8)
                hits += len(set(got.ids.tolist()) & truth)
            return hits / (10 * len(queries))

        assert recall(refined) >= recall(raw)

    def test_fastscan_memory_smaller(self, data):
        pq8 = build(IVFPQIndex, data)
        pq4 = build(IVFPQFastScanIndex, data)
        assert pq4.memory_bytes() < pq8.memory_bytes()

    def test_bitset_filter(self, data):
        idx = build(IVFPQIndex, data)
        bitset = np.zeros(data.shape[0], dtype=bool)
        bitset[::2] = True
        got = idx.search_with_filter(data[0], 10, nprobe=8, bitset=bitset)
        assert all(i % 2 == 0 for i in got.ids.tolist())


class TestPersistence:
    def test_roundtrip_keeps_codes(self, data):
        from repro.vindex.registry import deserialize_index, serialize_index

        idx = build(IVFPQIndex, data, refine=False)
        restored = deserialize_index(serialize_index(idx))
        a = idx.search_with_filter(data[3], 5, nprobe=4)
        b = restored.search_with_filter(data[3], 5, nprobe=4)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_refiner_not_persisted(self, data):
        from repro.vindex.registry import deserialize_index, serialize_index

        idx = build(IVFPQIndex, data, refine=True)
        restored = deserialize_index(serialize_index(idx))
        assert restored._refiner is None  # must be re-attached by the engine

    def test_fastscan_type_tag(self, data):
        idx = build(IVFPQFastScanIndex, data, refine=False)
        assert idx.to_payload()["index_type"] == "IVFPQFS"
