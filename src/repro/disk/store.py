"""Block store: the partitioned graph on disk (paper Fig. 2 / Fig. 6).

A :class:`BlockStore` owns the global CSR plus a :class:`Partition` and
derives per-block byte sizes exactly as the paper does (4-byte index entry
per vertex + 4 bytes per neighbor). When given a directory it also
*physically* writes one ``.npz`` per block (Index-File + CSR-File slice),
and :meth:`BlockStore.read_block` reads blocks back from there. Engines do
not read blocks: reported I/O time comes from the deterministic
:class:`~repro.disk.iosim.DiskSim` model.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.disk.iosim import IOParams
from repro.graphs.csr import CSR
from repro.graphs.partition import Partition


@dataclass
class BlockSlice:
    """One block's CSR slice: local index file + CSR file (paper Fig. 6)."""

    bid: int
    start_vertex: int
    end_vertex: int  # exclusive
    indptr: np.ndarray  # local, length nv+1, offset-relative
    indices: np.ndarray

    @property
    def n_vertices(self) -> int:
        return self.end_vertex - self.start_vertex


class BlockStore:
    """Partitioned CSR graph with per-block byte accounting."""

    def __init__(
        self,
        csr: CSR,
        part: Partition,
        *,
        params: IOParams | None = None,
        physical_dir: str | Path | None = None,
    ) -> None:
        if part.n_vertices != csr.n:
            raise ValueError("partition and CSR disagree on vertex count")
        self.csr = csr
        self.part = part
        self.params = params or IOParams()
        self.dir = Path(physical_dir) if physical_dir is not None else None
        vb = self.params.value_bytes
        s = part.block_starts
        nv = s[1:] - s[:-1]
        ne = csr.indptr[s[1:]] - csr.indptr[s[:-1]]
        # Index-file slice (nv+1 entries) + CSR-file slice (ne values).
        self._block_bytes = (vb * (nv + 1) + vb * ne).astype(np.int64)
        # Per vertex: two index entries (start/end offset) + the neighbor list.
        self.seg_bytes = (2 * vb + vb * csr.deg).astype(np.int64)
        # Dense vertex→block map, built once. The extra last entry is -1, so
        # indexing with prev = -1 (a walk yet to step) yields block -1.
        self.block_map = np.append(part.block_of(np.arange(csr.n)), -1).astype(np.int64)
        if self.dir is not None:
            self.write_blocks()

    # -- geometry -----------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        return self.part.n_blocks

    @property
    def n(self) -> int:
        return self.csr.n

    def block_of(self, v) -> np.ndarray:
        """Block id of each vertex id in ``v`` (-1 for -1): one gather from
        :attr:`block_map`. Engine loops index that array directly."""
        return self.block_map[v]

    def block_bytes(self, b: int) -> int:
        return int(self._block_bytes[b])

    def block_bytes_of(self, bids: np.ndarray) -> np.ndarray:
        """:meth:`block_bytes` of each block id in ``bids``."""
        return self._block_bytes[bids]

    def vertex_seg_bytes(self, vs: np.ndarray) -> np.ndarray:
        """Bytes of each vertex's CSR segment fetched by a light vertex I/O
        (:attr:`seg_bytes`)."""
        return self.seg_bytes[np.asarray(vs)]

    # -- physical layer -----------------------------------------------------
    def _block_path(self, b: int) -> Path:
        assert self.dir is not None
        return self.dir / f"block_{b:04d}.npz"

    def write_blocks(self) -> None:
        """Materialize each block's Index/CSR slice as a file on disk."""
        assert self.dir is not None
        self.dir.mkdir(parents=True, exist_ok=True)
        for b in range(self.n_blocks):
            lo, hi = self.part.block_slice(b)
            base = self.csr.indptr[lo]
            np.savez(
                self._block_path(b),
                start_vertex=lo,
                end_vertex=hi,
                indptr=self.csr.indptr[lo : hi + 1] - base,
                indices=self.csr.indices[self.csr.indptr[lo] : self.csr.indptr[hi]],
            )

    def read_block(self, b: int) -> BlockSlice:
        """Return block ``b``'s CSR slice, from disk if the store has a
        ``physical_dir``."""
        if self.dir is not None:
            with np.load(self._block_path(b)) as z:
                return BlockSlice(
                    bid=b,
                    start_vertex=int(z["start_vertex"]),
                    end_vertex=int(z["end_vertex"]),
                    indptr=z["indptr"],
                    indices=z["indices"],
                )
        lo, hi = self.part.block_slice(b)
        base = self.csr.indptr[lo]
        return BlockSlice(
            bid=b,
            start_vertex=lo,
            end_vertex=hi,
            indptr=self.csr.indptr[lo : hi + 1] - base,
            indices=self.csr.indices[self.csr.indptr[lo] : self.csr.indptr[hi]],
        )
