"""Tests for the walk-routing primitives: the walk table, the sort-based
group-by, lazy walk groups, the dense block map and the fused step split.

The ownership tests pin the rule that makes in-place ``advance`` safe: a
batch the engine updates never shares memory with walks still held in a
pool or an extension buffer.
"""
import numpy as np
import pytest

from repro.disk.iosim import DiskSim
from repro.engines.base import WalkPools, split_done, split_step
from repro.walks.buckets import ExtensionBuffers, collect_buckets
from repro.walks.models import WalkTask, advance
from repro.walks.state import CUR, HOP, PREV, SRC, WID, WalkGroups, Walks, split_by_key

from .helpers import all_vertex_starts, path_graph_csr, toy_store


def _walks(n: int, seed: int = 0) -> Walks:
    rng = np.random.default_rng(seed)
    return Walks(
        wid=np.arange(n),
        src=rng.integers(0, 50, n),
        prev=rng.integers(-1, 50, n),
        cur=rng.integers(0, 50, n),
        hop=rng.integers(0, 9, n),
    )


def _eager_groups(walks: Walks, keys: np.ndarray) -> dict[int, list[int]]:
    """Reference grouping: one boolean mask per key, input order kept."""
    return {int(k): walks.wid[keys == k].tolist() for k in np.unique(keys)}


class TestWalkTable:
    def test_columns_round_trip(self):
        names = ("wid", "src", "prev", "cur", "hop")
        cols = {f: np.arange(6) * (j + 1) - j for j, f in enumerate(names)}
        w = Walks(**cols)
        assert w.data.shape == (6, 5) and w.data.dtype == np.int64
        for f, col in cols.items():
            assert np.array_equal(getattr(w, f), col), f
        for j, f in zip((WID, SRC, PREV, CUR, HOP), cols):
            assert np.array_equal(w.data[:, j], cols[f])

    def test_column_assignment_writes_the_table(self):
        w = Walks.from_sources(np.arange(4), np.array([5, 6, 7, 8]))
        w.prev = w.cur
        w.cur = np.array([1, 2, 3, 4])
        w.hop = w.hop + 1
        assert w.data[:, PREV].tolist() == [5, 6, 7, 8]
        assert w.data[:, CUR].tolist() == [1, 2, 3, 4]
        assert w.hop.tolist() == [1, 1, 1, 1]

    def test_select_mask_and_index_are_fresh(self):
        w = _walks(10)
        by_mask = w.select(w.hop > 3)
        by_index = w.select(np.flatnonzero(w.hop > 3))
        assert np.array_equal(by_mask.data, by_index.data)
        assert np.array_equal(by_mask.wid, w.wid[w.hop > 3])
        assert not np.shares_memory(by_mask.data, w.data)
        assert not np.shares_memory(by_index.data, w.data)

    def test_rows_is_a_view(self):
        w = _walks(10)
        v = w.rows(2, 5)
        assert len(v) == 3 and np.shares_memory(v.data, w.data)
        assert v.wid.tolist() == [2, 3, 4]

    def test_concat_is_fresh_even_for_one_part(self):
        w = _walks(5)
        c = Walks.concat([Walks.empty(), w])
        assert np.array_equal(c.data, w.data)
        assert not np.shares_memory(c.data, w.data)


class TestSplitByKey:
    def test_unsorted_keys_stable_within_key(self):
        w = _walks(200, seed=1)
        keys = np.random.default_rng(2).integers(0, 7, 200)
        groups = split_by_key(w, keys)
        assert [k for k, _ in groups] == sorted(set(keys.tolist()))
        assert {k: g.wid.tolist() for k, g in groups} == _eager_groups(w, keys)

    def test_groups_are_disjoint_ranges_of_one_table(self):
        w = _walks(30)
        keys = np.tile([2, 0, 1], 10)
        groups = split_by_key(w, keys)
        base = groups[0][1].data.base
        assert base is not None and all(g.data.base is base for _, g in groups)
        assert not np.shares_memory(base, w.data)
        assert sum(len(g) for _, g in groups) == 30

    def test_single_key_returns_input(self):
        w = _walks(8)
        (k, g), = split_by_key(w, np.full(8, 4))
        assert k == 4 and g is w

    def test_single_walk(self):
        w = _walks(1)
        assert [(k, len(g)) for k, g in split_by_key(w, np.array([3]))] == [(3, 1)]

    def test_empty_input(self):
        assert split_by_key(Walks.empty(), np.empty(0, dtype=np.int64)) == []


class TestWalkGroups:
    def test_lazy_grouping_keeps_add_order(self):
        g = WalkGroups()
        rng = np.random.default_rng(3)
        adds = []
        for a in range(5):
            w = _walks(20, seed=10 + a)
            w.wid = np.arange(20) + 100 * a
            keys = rng.integers(0, 4, 20)
            g.add(keys, w)
            adds.append((keys, w.wid.copy()))
        for k in range(4):
            want = [int(x) for keys, wid in adds for x in wid[keys == k]]
            got = [int(x) for part in g.pop(k) for x in part.wid]
            assert got == want
        assert g.keys() == []

    def test_reads_see_adds_made_between_them(self):
        g = WalkGroups()
        g.add(np.array([1, 2]), _walks(2))
        assert g.keys() == [1, 2]
        g.add(np.array([2, 3]), _walks(2, seed=1))
        assert g.keys() == [1, 2, 3]
        assert sum(len(p) for p in g.pop(2)) == 2
        assert g.keys() == [1, 3]

    def test_empty_add_is_ignored(self):
        g = WalkGroups()
        g.add(np.empty(0, dtype=np.int64), Walks.empty())
        assert g.keys() == []


class TestOwnership:
    def test_popped_pool_is_fresh_memory(self):
        pools = WalkPools(DiskSim(), 3)
        w = _walks(9)
        keys = np.array([0, 1, 2] * 3)
        kept = {b: w.select(keys == b).data for b in (1, 2)}
        pools.add_grouped(keys, w)
        popped = pools.pop(0)
        popped.data[:] = -7  # what an in-place advance could do
        for b in (1, 2):
            assert np.array_equal(pools.pop(b).data, kept[b])

    def test_single_chunk_pop_does_not_alias(self):
        pools = WalkPools(DiskSim(), 2)
        w = _walks(4)
        pools.add_grouped(np.zeros(4, dtype=np.int64), w)
        assert pools.counts.tolist() == [4, 0]
        popped = pools.pop(0)
        assert not np.shares_memory(popped.data, w.data)

    def test_advancing_a_bucket_leaves_pools_and_buffers_alone(self):
        csr = path_graph_csr(12)
        task = WalkTask(max_len=6, seed=3)
        walks = Walks(
            wid=np.arange(6), src=np.arange(6), prev=np.array([-1, 1, 2, 3, 4, 5]),
            cur=np.array([1, 2, 3, 4, 5, 6]), hop=np.ones(6, dtype=np.int64),
        )
        pb = np.array([-1, 0, 1, 1, 2, 2])
        cb = np.array([0, 1, 1, 2, 2, 3])
        buckets = dict(split_by_key(walks, collect_buckets(pb, cb, b=0)))
        ext = ExtensionBuffers()
        pools = WalkPools(DiskSim(), 4)
        staged = buckets[1].select(np.array([0, 1, 0]))
        pooled = buckets[2].select(np.array([0, 1]))
        snap_ext = {2: staged.select(np.array([0, 2])).data, 3: staged.select(np.array([1])).data}
        snap_pool = {3: pooled.select(np.array([0])).data, 1: pooled.select(np.array([1])).data}
        ext.add(np.array([2, 3, 2]), staged)
        pools.add_grouped(np.array([3, 1]), pooled)
        snap_other = buckets[2].data.copy()
        for _ in range(3):
            advance(csr, task, buckets[1], None)
        assert np.array_equal(buckets[2].data, snap_other)
        for k, d in snap_ext.items():
            assert np.array_equal(ext.drain(k).data, d)
        for k, d in snap_pool.items():
            assert np.array_equal(pools.pop(k).data, d)

    def test_drained_buffer_is_fresh_memory(self):
        ext = ExtensionBuffers()
        w = _walks(4)
        kept = w.select(np.array([1, 3])).data
        ext.add(np.array([4, 5, 4, 5]), w)
        drained = ext.drain(4)
        drained.data[:] = -1
        assert np.array_equal(ext.drain(5).data, kept)
        assert ext.is_empty()


class TestBlockMap:
    def test_dense_map_equals_partition_search(self):
        store, _ = toy_store(n=60, n_blocks=7)
        v = np.arange(store.n)
        assert np.array_equal(store.block_map[:-1], store.part.block_of(v))
        assert np.array_equal(store.block_of(v), store.part.block_of(v))

    def test_minus_one_maps_to_minus_one(self):
        store, _ = toy_store()
        assert int(store.block_of(-1)) == -1
        assert store.block_of(np.array([-1, 0])).tolist() == [-1, 0]


class TestSplitStep:
    @staticmethod
    def _stepped(alpha, n_blocks=5, max_len=4):
        store, _ = toy_store(n=60, n_blocks=n_blocks)
        task = WalkTask(max_len=max_len, alpha=alpha, seed=11)
        _, walks = split_done(task, store.csr, all_vertex_starts(store.csr, 3))
        advance(store.csr, task, walks, None)
        return store, task, walks

    @pytest.mark.parametrize("pair", [(1, 1), (1, 3)])
    @pytest.mark.parametrize("alpha", [None, 0.6])
    def test_matches_split_done_then_block_masks(self, pair, alpha):
        store, task, walks = self._stepped(alpha)
        b, i = pair
        finished, alive = split_done(task, store.csr, walks)
        curb = store.block_of(walks.cur)
        done, out, blocks = split_step(task, store.csr, store.block_map, walks, b, i)
        assert np.array_equal(walks.select(done).data, finished.data)
        assert np.array_equal(walks.select(~done).data, alive.data)
        assert np.array_equal(blocks, curb)
        assert not (done & out).any()
        assert np.array_equal(out[~done], (curb[~done] != b) & (curb[~done] != i))

    @pytest.mark.parametrize("alpha", [None, 0.6])
    def test_per_walk_bucket(self, alpha):
        """Each walk leaves when it is outside ``b`` and its own bucket."""
        store, task, walks = self._stepped(alpha)
        bucket = np.random.default_rng(5).integers(1, 5, len(walks))
        done, out, curb = split_step(task, store.csr, store.block_map, walks, 1, bucket)
        for j in range(len(walks)):
            want = (curb[j] != 1) & (curb[j] != bucket[j]) & ~done[j]
            assert out[j] == want, j
        assert out.any() and (~out & ~done).any()

    def test_nothing_leaves_returns_batch(self):
        """With one block no walk can leave: ``out`` is all False, so the
        whole batch stays but for its finished walks."""
        store, task, walks = self._stepped(None, n_blocks=1, max_len=50)
        done, out, curb = split_step(task, store.csr, store.block_map, walks, 0, 0)
        assert not out.any() and not done.any() and not curb.any()
