"""Tests for the on-disk block store (repro.disk.store)."""
import numpy as np
import pytest

from repro.disk.iosim import IOParams
from repro.disk.store import BlockStore
from repro.graphs.partition import Partition

from .helpers import even_partition, random_csr


@pytest.fixture
def store():
    csr = random_csr(60, 220, seed=0)
    return BlockStore(csr, even_partition(60, 5))


class TestGeometry:
    def test_block_bytes_sum_to_total(self, store):
        vb = store.params.value_bytes
        total = sum(store.block_bytes(b) for b in range(store.n_blocks))
        # per block: (nv+1) index entries + ne values
        expect = vb * (store.n + store.n_blocks) + vb * store.csr.n_arcs
        assert total == expect

    def test_block_bytes_formula(self, store):
        b = 2
        lo, hi = store.part.block_slice(b)
        ne = int(store.csr.indptr[hi] - store.csr.indptr[lo])
        vb = store.params.value_bytes
        assert store.block_bytes(b) == vb * (hi - lo + 1) + vb * ne

    def test_vertex_seg_bytes(self, store):
        vs = np.array([0, 5, 10])
        vb = store.params.value_bytes
        deg = store.csr.deg[vs]
        assert np.array_equal(store.vertex_seg_bytes(vs), 2 * vb + vb * deg)

    def test_block_of(self, store):
        assert list(store.block_of(np.array([0, 11, 12, 59]))) == [0, 0, 1, 4]

    def test_mismatched_partition_rejected(self):
        csr = random_csr(30, 60, seed=1)
        with pytest.raises(ValueError):
            BlockStore(csr, Partition(np.array([0, 10, 20])))  # 20 != 30


class TestBlockSlices:
    def test_slice_matches_global(self, store):
        for b in range(store.n_blocks):
            sl = store.read_block(b)
            lo, hi = store.part.block_slice(b)
            assert sl.start_vertex == lo and sl.end_vertex == hi
            assert sl.indptr[0] == 0
            assert len(sl.indptr) == sl.n_vertices + 1
            g = store.csr
            assert np.array_equal(
                sl.indices, g.indices[g.indptr[lo] : g.indptr[hi]]
            )
            # local indptr reproduces per-vertex degrees
            assert np.array_equal(
                np.diff(sl.indptr), g.deg[lo:hi]
            )

    def test_physical_roundtrip(self, tmp_path):
        csr = random_csr(40, 120, seed=2)
        store = BlockStore(csr, even_partition(40, 4), physical_dir=tmp_path)
        files = sorted(tmp_path.glob("block_*.npz"))
        assert len(files) == 4
        for b in range(4):
            disk = store.read_block(b)
            mem = BlockStore(csr, even_partition(40, 4)).read_block(b)
            assert np.array_equal(disk.indices, mem.indices)
            assert np.array_equal(disk.indptr, mem.indptr)

    def test_physical_blocks_tile_the_graph(self, tmp_path):
        csr = random_csr(50, 140, seed=3)
        store = BlockStore(csr, even_partition(50, 5), physical_dir=tmp_path)
        rebuilt = np.concatenate(
            [store.read_block(b).indices for b in range(5)]
        )
        assert np.array_equal(rebuilt, csr.indices)

    def test_custom_params(self):
        csr = random_csr(20, 40, seed=4)
        p = IOParams(value_bytes=8)
        store = BlockStore(csr, even_partition(20, 2), params=p)
        assert store.block_bytes(0) % 8 == 0
