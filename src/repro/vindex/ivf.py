"""IVF_FLAT: inverted file over k-means cells with exact in-cell scan.

Training clusters the data into ``nlist`` cells; each vector is posted to
its nearest cell.  A search probes the ``nprobe`` nearest cells and
computes exact distances within them.  ``nprobe / nlist`` is the paper's
``β`` (proportion of tuples visited by the ANN scan, Table II).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import IndexNotTrainedError, IndexParameterError
from repro.vindex.api import (
    SearchResult,
    VectorIndex,
    pairwise_distance,
    pairwise_distance_batch,
    top_k_from_distances,
)
from repro.vindex.kmeans import assign_to_centroids, kmeans

DEFAULT_NLIST = 64
DEFAULT_NPROBE = 8


class IVFFlatIndex(VectorIndex):
    """Inverted-file index storing exact vectors per cell.

    Parameters
    ----------
    nlist:
        Number of k-means cells (the paper's ``K_IVF``).
    seed:
        Training determinism.
    """

    index_type = "IVFFLAT"
    requires_training = True
    supports_batch = True

    def __init__(
        self, dim: int, metric: str = "l2", nlist: int = DEFAULT_NLIST, seed: int = 0
    ) -> None:
        super().__init__(dim, metric)
        if nlist <= 0:
            raise IndexParameterError(f"nlist must be positive, got {nlist}")
        self.nlist = nlist
        self.seed = seed
        self._centroids: Optional[np.ndarray] = None
        # Posting lists in one cell-sorted (CSR) layout: the rows of cell
        # ``c`` are ``_vectors[_offsets[c]:_offsets[c + 1]]`` (and the
        # same slice of ``_ids``), in insertion order within the cell.
        self._vectors = np.empty((0, dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        self._offsets = np.zeros(1, dtype=np.int64)
        self._ntotal = 0

    @property
    def ntotal(self) -> int:
        return self._ntotal

    @property
    def is_trained(self) -> bool:
        return self._centroids is not None

    def train(self, vectors: np.ndarray) -> None:
        vectors = self._check_vectors(vectors)
        if vectors.shape[0] < self.nlist:
            # Fall back to fewer cells rather than refusing tiny segments;
            # per-segment indexing routinely sees small L0 segments.
            self.nlist = max(1, vectors.shape[0])
        result = kmeans(vectors, self.nlist, seed=self.seed)
        self._centroids = result.centroids
        self._vectors = np.empty((0, self.dim), dtype=np.float32)
        self._ids = np.empty(0, dtype=np.int64)
        self._offsets = np.zeros(self.nlist + 1, dtype=np.int64)
        self._ntotal = 0
        self.stats.train_points = int(vectors.shape[0])

    def add_with_ids(self, vectors: np.ndarray, ids: np.ndarray) -> None:
        if self._centroids is None:
            raise IndexNotTrainedError("IVFFLAT requires train() before add_with_ids()")
        vectors = self._check_vectors(vectors)
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.shape[0] != vectors.shape[0]:
            raise IndexParameterError(
                f"{ids.shape[0]} ids for {vectors.shape[0]} vectors"
            )
        cells = assign_to_centroids(vectors, self._centroids)
        order = np.argsort(cells, kind="stable")
        counts = np.bincount(cells, minlength=self.nlist)
        # Each new row goes in at the end of its cell, so a cell lists its
        # old rows, then its new ones, each in insertion order.
        at = np.repeat(self._offsets[1:], counts)
        self._vectors = np.insert(self._vectors, at, vectors[order], axis=0)
        self._ids = np.insert(self._ids, at, ids[order])
        self._offsets = np.concatenate(([0], self._offsets[1:] + np.cumsum(counts)))
        self._ntotal += int(vectors.shape[0])

    def _cell_rows(self, cells: np.ndarray) -> np.ndarray:
        """Row positions of ``cells``' postings, cell after cell, in order."""
        starts = self._offsets[cells]
        lengths = self._offsets[cells + 1] - starts
        total = int(lengths.sum())
        # Shift each cell's run so that position ``i`` of the output maps
        # to ``starts[cell] + (i - first output position of that cell)``.
        shift = starts - (np.cumsum(lengths) - lengths)
        return np.repeat(shift, lengths) + np.arange(total, dtype=np.int64)

    def _probe_order(self, query: np.ndarray) -> np.ndarray:
        """Cell indices sorted by centroid distance to the query."""
        assert self._centroids is not None
        centroid_dist = pairwise_distance(query, self._centroids, "l2")
        return np.argsort(centroid_dist, kind="stable")

    def search_with_filter(
        self,
        query: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        nprobe: int = DEFAULT_NPROBE,
        **search_params: Any,
    ) -> SearchResult:
        self._require_trained()
        query = self._check_query(query)
        bitset = self._check_bitset(bitset, self.ntotal)
        if self.ntotal == 0 or k <= 0:
            return SearchResult.empty()
        nprobe = max(1, min(int(nprobe), self.nlist))
        probe = self._probe_order(query)[:nprobe]

        # One gather over the probed cells in probe order: the candidate
        # order, and so top-k tie-breaking, is that of a cell-by-cell scan.
        rows = self._cell_rows(probe)
        ids = self._ids[rows]
        visited = int(rows.size)  # the bitmap test touches every posting
        if bitset is not None:
            allowed = bitset[ids]
            rows = rows[allowed]
            ids = ids[allowed]
        if rows.size == 0:
            return SearchResult.empty(visited=visited)
        distances = pairwise_distance(query, self._vectors[rows], self.metric)
        return top_k_from_distances(ids, distances, k, visited=visited)

    def search_batch(
        self,
        queries: np.ndarray,
        k: int,
        bitset: Optional[np.ndarray] = None,
        nprobe: int = DEFAULT_NPROBE,
        **search_params: Any,
    ) -> List[SearchResult]:
        """Vectorized multi-query search.

        The centroid probe is one ``(nq, nlist)`` distance matrix, and
        each touched cell computes one ``(nq_cell, n_cell)`` block for
        every query probing it.  Per query, cell blocks are consumed in
        probe (nearest-centroid-first) order so candidate concatenation
        — and therefore tie-breaking in the top-k — matches
        :meth:`search_with_filter` exactly.
        """
        self._require_trained()
        queries = np.asarray(queries, dtype=np.float32)
        if queries.ndim == 1:
            queries = queries.reshape(1, -1)
        if queries.shape[1] != self.dim:
            raise IndexParameterError(
                f"query dimension {queries.shape[1]} != index dimension {self.dim}"
            )
        bitset = self._check_bitset(bitset, self.ntotal)
        nq = int(queries.shape[0])
        if self.ntotal == 0 or k <= 0:
            return [SearchResult.empty() for _ in range(nq)]
        nprobe = max(1, min(int(nprobe), self.nlist))
        assert self._centroids is not None
        centroid_dist = pairwise_distance_batch(queries, self._centroids, "l2")
        probe = np.argsort(centroid_dist, axis=1, kind="stable")[:, :nprobe]

        # cell -> (query rows probing it, filtered ids, distance block).
        blocks: Dict[int, tuple] = {}
        offsets = self._offsets
        for cell in np.unique(probe):
            lo, hi = offsets[cell], offsets[cell + 1]
            if lo == hi:
                blocks[int(cell)] = None
                continue
            ids = self._ids[lo:hi]
            vectors = self._vectors[lo:hi]
            if bitset is not None:
                allowed = bitset[ids]
                if not allowed.any():
                    blocks[int(cell)] = None
                    continue
                ids = ids[allowed]
                vectors = vectors[allowed]
            rows = np.flatnonzero((probe == cell).any(axis=1))
            row_index = {int(row): i for i, row in enumerate(rows)}
            distances = pairwise_distance_batch(queries[rows], vectors, self.metric)
            blocks[int(cell)] = (row_index, ids, distances)

        results: List[SearchResult] = []
        for row in range(nq):
            gathered_ids: List[np.ndarray] = []
            gathered_dist: List[np.ndarray] = []
            visited = 0
            for cell in probe[row]:
                # The bitmap test touches every posting, like the
                # sequential path.
                visited += int(offsets[cell + 1] - offsets[cell])
                block = blocks[int(cell)]
                if block is None:
                    continue
                row_index, ids, distances = block
                gathered_ids.append(ids)
                gathered_dist.append(distances[row_index[row]])
            if not gathered_ids:
                results.append(SearchResult.empty(visited=visited))
                continue
            all_ids = np.concatenate(gathered_ids)
            all_dist = np.concatenate(gathered_dist)
            results.append(top_k_from_distances(all_ids, all_dist, k, visited=visited))
        return results

    def memory_bytes(self) -> int:
        total = 0 if self._centroids is None else int(self._centroids.nbytes)
        # Centroids and postings only: ``_offsets`` (8 bytes per cell) is
        # left out so the size equals that of the persisted per-cell lists.
        # Worker index caches are sized in these bytes.
        return total + int(self._vectors.nbytes) + int(self._ids.nbytes)

    def to_payload(self) -> Dict[str, Any]:
        cells = list(zip(self._offsets[:-1], self._offsets[1:]))
        return {
            "index_type": self.index_type,
            "dim": self.dim,
            "metric": self.metric,
            "nlist": self.nlist,
            "seed": self.seed,
            "centroids": self._centroids,
            # Persisted per cell, so saved bytes do not depend on the
            # in-memory layout.
            "cell_vectors": [self._vectors[lo:hi] for lo, hi in cells],
            "cell_ids": [self._ids[lo:hi] for lo, hi in cells],
            "ntotal": self._ntotal,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "IVFFlatIndex":
        index = cls(
            payload["dim"], payload["metric"], nlist=payload["nlist"], seed=payload["seed"]
        )
        index._centroids = payload["centroids"]
        cell_ids = list(payload["cell_ids"])
        if cell_ids:
            index._vectors = np.concatenate(payload["cell_vectors"])
            index._ids = np.concatenate(cell_ids)
        index._offsets = np.cumsum([0] + [len(ids) for ids in cell_ids], dtype=np.int64)
        index._ntotal = payload["ntotal"]
        return index
