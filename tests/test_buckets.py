"""Tests for bucket-based walk management (repro.walks.buckets, Eq. 4)."""
import numpy as np

from repro.walks.buckets import ExtensionBuffers, collect_buckets
from repro.walks.state import Walks, split_by_key


def _mk(prev_b, cur_b):
    """Walks whose prev/cur encode the given block ids directly (block size 1)."""
    n = len(prev_b)
    return Walks(
        wid=np.arange(n),
        src=np.zeros(n, dtype=np.int64),
        prev=np.asarray(prev_b, dtype=np.int64),
        cur=np.asarray(cur_b, dtype=np.int64),
        hop=np.ones(n, dtype=np.int64),
    )


def _buckets(walks, prev_b, cur_b, b):
    """{bucket id: walks} from the per-walk Eq. 4 keys."""
    key = collect_buckets(prev_b, cur_b, b)
    assert key.shape == (len(walks),)
    return dict(split_by_key(walks, key))


class TestCollectBuckets:
    def test_eq4_rule(self):
        """Bucket = B(cur) when prev is in the current block, else B(prev)."""
        prev_b = np.array([2, 2, 5, 7, -1])
        cur_b = np.array([4, 6, 2, 2, 2])
        walks = _mk(prev_b, cur_b)
        buckets = _buckets(walks, prev_b, cur_b, b=2)
        assert set(buckets) == {4, 6, 5, 7, 2}
        assert buckets[4].wid.tolist() == [0]
        assert buckets[6].wid.tolist() == [1]
        assert buckets[5].wid.tolist() == [2]
        assert buckets[7].wid.tolist() == [3]
        assert buckets[2].wid.tolist() == [4]  # hop-0 self-bucket

    def test_triangular_property(self):
        """With skewed storage (min(B(u),B(v)) = b), every bucket id >= b."""
        rng = np.random.default_rng(0)
        b = 3
        other = rng.integers(4, 10, 50)
        flip = rng.random(50) < 0.5
        prev_b = np.where(flip, b, other)
        cur_b = np.where(flip, other, b)
        walks = _mk(prev_b, cur_b)
        buckets = _buckets(walks, prev_b, cur_b, b=b)
        assert all(k > b for k in buckets)
        assert sum(len(w) for w in buckets.values()) == 50

    def test_partition_complete(self):
        prev_b = np.array([1, 1, 2, -1, 3])
        cur_b = np.array([2, 3, 1, 1, 1])
        walks = _mk(prev_b, cur_b)
        buckets = _buckets(walks, prev_b, cur_b, b=1)
        got = sorted(w for ws in buckets.values() for w in ws.wid.tolist())
        assert got == [0, 1, 2, 3, 4]


class TestExtensionBuffers:
    def test_add_and_drain(self):
        ext = ExtensionBuffers()
        walks = _mk([1, 1, 1], [4, 5, 4])
        ext.add(np.array([4, 5, 4]), walks)
        d4 = ext.drain(4)
        assert sorted(d4.wid.tolist()) == [0, 2]
        d5 = ext.drain(5)
        assert d5.wid.tolist() == [1]
        assert ext.is_empty()

    def test_drain_empty(self):
        ext = ExtensionBuffers()
        assert len(ext.drain(9)) == 0
        assert ext.is_empty()

    def test_multiple_adds_merge(self):
        ext = ExtensionBuffers()
        ext.add(np.array([3]), _mk([1], [3]))
        ext.add(np.array([3]), _mk([1], [3]))
        assert len(ext.drain(3)) == 2

    def test_pending_ids(self):
        ext = ExtensionBuffers()
        ext.add(np.array([7, 2]), _mk([0, 0], [7, 2]))
        assert ext.pending_ids() == [2, 7]
