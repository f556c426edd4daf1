"""CSR graph representation (paper Fig. 6); blocks are written by :mod:`repro.disk.store`.

The paper stores the graph as an *Index File* plus a *CSR File*, sequentially
partitioned into blocks (contiguous vertex-id ranges). Because blocks are
contiguous ranges, a block's CSR slice is literally a slice of the global
CSR — we build the global arrays once with a Spark sort and slice per block.

``keys`` is the sorted array of ``src * n + dst`` arc codes; binary-searching
it answers "is z a neighbor of u?" — the second-order hop classification
(Node2vec's ``h_uz``) that in the real system is answered from whichever
in-memory block contains u.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from repro.graphs.generators import to_directed


@dataclass
class CSR:
    """Global CSR of a directed graph (undirected graphs store both arcs)."""

    n: int
    indptr: np.ndarray  # int64, length n+1
    indices: np.ndarray  # int64, sorted within each row
    _keys: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_arcs(self) -> int:
        return len(self.indices)

    @property
    def deg(self) -> np.ndarray:
        return self.indptr[1:] - self.indptr[:-1]

    @property
    def keys(self) -> np.ndarray:
        """Sorted arc codes src*n+dst; lazily built, cached."""
        if self._keys is None:
            src = np.repeat(np.arange(self.n, dtype=np.int64), self.deg)
            self._keys = src * np.int64(self.n) + self.indices
        return self._keys

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def has_arc(self, u: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Vectorized membership test: is (u[i], z[i]) an arc?"""
        k = np.asarray(u, dtype=np.int64) * np.int64(self.n) + np.asarray(z, dtype=np.int64)
        pos = np.searchsorted(self.keys, k)
        pos = np.minimum(pos, len(self.keys) - 1)
        return (self.keys[pos] == k) if len(self.keys) else np.zeros(len(k), dtype=bool)


def build_csr(edges: DataFrame, n: int) -> CSR:
    """Build the global CSR from a canonical undirected edge DataFrame.

    The (src, dst) sort runs in Spark (Catalyst); the driver only assembles
    the final arrays.
    """
    pdf = to_directed(edges).orderBy("src", "dst").toPandas()
    src = pdf["src"].to_numpy(np.int64)
    dst = pdf["dst"].to_numpy(np.int64)
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSR(n=n, indptr=indptr, indices=dst)


def csr_from_arrays(n: int, src: np.ndarray, dst: np.ndarray) -> CSR:
    """Build a CSR directly from directed arc arrays (tests, toy graphs)."""
    order = np.lexsort((dst, src))
    src = np.asarray(src, dtype=np.int64)[order]
    dst = np.asarray(dst, dtype=np.int64)[order]
    counts = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSR(n=n, indptr=indptr, indices=dst)
