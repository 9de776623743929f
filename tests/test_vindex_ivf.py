"""Tests for IVF_FLAT."""

import numpy as np
import pytest

from repro.errors import IndexNotTrainedError, IndexParameterError
from repro.vindex.flat import FlatIndex
from repro.vindex.ivf import IVFFlatIndex


def clustered(n=400, dim=16, k=8, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=4.0, size=(k, dim)).astype(np.float32)
    points = centers[rng.integers(0, k, size=n)] + rng.normal(
        scale=0.3, size=(n, dim)
    ).astype(np.float32)
    return points


@pytest.fixture
def data():
    return clustered()


@pytest.fixture
def index(data):
    idx = IVFFlatIndex(dim=16, nlist=8, seed=0)
    idx.train(data)
    idx.add_with_ids(data, np.arange(data.shape[0]))
    return idx


class TestTraining:
    def test_add_before_train_rejected(self, data):
        idx = IVFFlatIndex(dim=16, nlist=8)
        with pytest.raises(IndexNotTrainedError):
            idx.add_with_ids(data, np.arange(data.shape[0]))

    def test_nlist_shrinks_for_tiny_data(self):
        idx = IVFFlatIndex(dim=4, nlist=100)
        tiny = np.random.default_rng(0).normal(size=(5, 4)).astype(np.float32)
        idx.train(tiny)
        assert idx.nlist == 5

    def test_invalid_nlist(self):
        with pytest.raises(IndexParameterError):
            IVFFlatIndex(dim=8, nlist=0)

    def test_retrain_resets_ntotal(self, index, data):
        index.train(data)
        assert index.ntotal == 0
        assert len(index.search_with_filter(data[0], 5)) == 0
        index.add_with_ids(data[:10], np.arange(10))
        assert index.ntotal == 10
        # The bitset has to cover the rows indexed now, not before.
        result = index.search_with_filter(
            data[0], 5, nprobe=index.nlist, bitset=np.ones(10, dtype=bool)
        )
        assert set(result.ids.tolist()) <= set(range(10))


class TestSearch:
    def test_full_probe_is_exact(self, index, data):
        exact = FlatIndex(dim=16)
        exact.add_with_ids(data, np.arange(data.shape[0]))
        query = data[10] + 0.05
        full = index.search_with_filter(query, 10, nprobe=index.nlist)
        truth = exact.search_with_filter(query, 10)
        np.testing.assert_array_equal(full.ids, truth.ids)

    def test_recall_improves_with_nprobe(self, index, data):
        rng = np.random.default_rng(1)
        queries = data[rng.choice(len(data), 20, replace=False)] + 0.05
        truth = [
            set(np.argsort(np.linalg.norm(data - q, axis=1))[:10].tolist())
            for q in queries
        ]

        def recall(nprobe):
            hits = 0
            for q, want in zip(queries, truth):
                got = index.search_with_filter(q, 10, nprobe=nprobe)
                hits += len(set(got.ids.tolist()) & want)
            return hits / (10 * len(queries))

        assert recall(8) >= recall(1)
        assert recall(8) > 0.9

    def test_visited_scales_with_nprobe(self, index, data):
        few = index.search_with_filter(data[0], 5, nprobe=1)
        many = index.search_with_filter(data[0], 5, nprobe=8)
        assert many.visited > few.visited

    def test_bitset_filter(self, index, data):
        bitset = np.zeros(data.shape[0], dtype=bool)
        bitset[: len(data) // 2] = True
        result = index.search_with_filter(data[0], 10, nprobe=8, bitset=bitset)
        assert all(i < len(data) // 2 for i in result.ids.tolist())

    def test_empty_index(self):
        idx = IVFFlatIndex(dim=4, nlist=2)
        idx.train(np.random.default_rng(0).normal(size=(10, 4)).astype(np.float32))
        result = idx.search_with_filter(np.zeros(4, dtype=np.float32), 3)
        assert len(result) == 0


class TestPersistence:
    def test_roundtrip(self, index, data):
        from repro.vindex.registry import deserialize_index, serialize_index

        restored = deserialize_index(serialize_index(index))
        a = index.search_with_filter(data[3], 5, nprobe=4)
        b = restored.search_with_filter(data[3], 5, nprobe=4)
        np.testing.assert_array_equal(a.ids, b.ids)

    def test_memory_accounts_vectors(self, index, data):
        assert index.memory_bytes() >= data.nbytes
