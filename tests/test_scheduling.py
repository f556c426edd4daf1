"""Tests for current-block scheduling strategies (Appendix A)."""
import numpy as np
import pytest

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import WalkPools
from repro.engines.first_order import run_first_order
from repro.engines.scheduling import (
    SCHEDULERS,
    AlphabetScheduler,
    GraphWalkerScheduler,
    IterationScheduler,
    MaxSumScheduler,
    MinHeightScheduler,
    make_scheduler,
)
from repro.walks.models import WalkTask
from repro.walks.state import Walks

from .helpers import all_vertex_starts, even_partition, random_csr


def _pools(counts, hops=None):
    sim = DiskSim()
    pools = WalkPools(sim, len(counts))
    for b, c in enumerate(counts):
        if c:
            h = np.full(c, (hops or {}).get(b, 1), dtype=np.int64)
            w = Walks(
                wid=np.arange(c), src=np.zeros(c, dtype=np.int64),
                prev=np.zeros(c, dtype=np.int64), cur=np.zeros(c, dtype=np.int64),
                hop=h,
            )
            pools.add_grouped(np.full(c, b), w)
    return pools


class TestStrategies:
    def test_max_sum_picks_largest(self):
        assert MaxSumScheduler().pick(_pools([1, 5, 3])) == 1

    def test_max_sum_tie_smallest_id(self):
        assert MaxSumScheduler().pick(_pools([4, 4, 1])) == 0

    def test_min_height_picks_lowest_hop(self):
        pools = _pools([2, 2, 2], hops={0: 9, 1: 3, 2: 7})
        assert MinHeightScheduler().pick(pools) == 1

    def test_iteration_skips_empty(self):
        s = IterationScheduler()
        pools = _pools([0, 2, 0, 3])
        assert s.pick(pools) == 1
        assert s.pick(pools) == 3
        assert s.pick(pools) == 1  # wraps around

    def test_alphabet_does_not_skip(self):
        s = AlphabetScheduler()
        pools = _pools([0, 2, 0, 3])
        assert [s.pick(pools) for _ in range(4)] == [0, 1, 2, 3]

    def test_all_return_none_when_done(self):
        pools = _pools([0, 0, 0])
        for name in SCHEDULERS:
            assert make_scheduler(name).pick(pools) is None

    def test_graphwalker_mixes(self):
        s = GraphWalkerScheduler(p=0.8, seed=1)
        pools = _pools([5, 1, 1], hops={0: 9, 1: 1, 2: 5})
        picks = {s.pick(pools) for _ in range(100)}
        assert picks == {0, 1}  # max-sum → 0, min-height → 1

    def test_graphwalker_deterministic(self):
        a = GraphWalkerScheduler(seed=3)
        b = GraphWalkerScheduler(seed=3)
        pools = _pools([2, 3, 1], hops={0: 2, 1: 5, 2: 1})
        assert [a.pick(pools) for _ in range(20)] == [b.pick(pools) for _ in range(20)]

    def test_make_scheduler_unknown(self):
        with pytest.raises(ValueError):
            make_scheduler("nope")


class TestTable8Shape:
    """Appendix A: Iteration beats Alphabet (skips empty loads) and, on most
    graphs, the other heuristics in block I/O count."""

    @pytest.fixture(scope="class")
    def setting(self):
        csr = random_csr(150, 500, seed=20)
        store = BlockStore(csr, even_partition(150, 8))
        task = WalkTask(max_len=15, first_order=True, seed=20)
        return store, task

    def _count(self, setting, sched):
        store, task = setting
        sim = DiskSim(params=store.params)
        run_first_order(
            store, task, all_vertex_starts(store.csr, 2), sim=sim, scheduler=sched
        )
        return sim.block_io_num

    def test_iteration_not_worse_than_alphabet(self, setting):
        assert self._count(setting, "iteration") <= self._count(setting, "alphabet")

    def test_min_height_worst_here(self, setting):
        it = self._count(setting, "iteration")
        mh = self._count(setting, "min_height")
        assert mh >= it

    def test_all_strategies_complete(self, setting):
        store, task = setting
        for name in SCHEDULERS:
            sim = DiskSim(params=store.params)
            res = run_first_order(
                store, task, all_vertex_starts(store.csr, 1), sim=sim,
                scheduler=name, record_paths=True,
            )
            assert ((res.recorder.paths >= 0).sum(axis=1) - 1 == task.max_len).all()
