"""Bucket-at-a-time reference for the two bucket engines (bi-block and PB).

A test-only copy of the engine loop in which each Eq. 4 bucket of a time
slot runs alone: its walks advance until every one has finished or left the
resident pair ``{b, i}``, and every charge is made the moment it happens.
The engines in ``repro.engines`` step all buckets of a slot as one batch and
replay the bucket-order charges afterwards; ``tests/test_slot_lockstep.py``
checks that both give the same counters, load logs and paths.

Only the stable pieces of the program are reused: the pools, the block
loader, the schedulers, the sampler, the Eq. 4 grouping and the extension
buffers. The routing rules (Eq. 4 bucket keys, the residency split and
Algorithm 2's exit cases) are copied here, so the oracle does not move when
the program's versions of them do.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, WalkPools, make_recorder
from repro.engines.loading import FULL, ONDEMAND, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import IterationScheduler, Scheduler, make_scheduler
from repro.walks.buckets import ExtensionBuffers
from repro.walks.models import Recorder, WalkTask, advance, done_mask
from repro.walks.state import Walks, skewed_block_of, split_by_key


def split_step(task: WalkTask, csr, block_map, walks: Walks, b: int, i: int):
    """(staying, leaving, blocks of the leaving walks) right after a step;
    finished walks are dropped."""
    done = done_mask(task, csr, walks)
    curb = block_map[walks.cur]
    out = (curb != b) & (curb != i) & ~done
    return walks.select(~(done | out)), walks.select(out), curb[out]


def classify_exits(block_map, pools: WalkPools, ext: ExtensionBuffers, leaving: Walks,
                   curb: np.ndarray, b: int, i: int) -> None:
    """Algorithm 2: cur < b → pool[cur]; b < cur < i → pool[b] if prev∈b
    else pool[cur]; cur > i → extend to bucket[cur] if prev∈b else pool[i]."""
    prev_in_b = block_map[leaving.prev] == b
    target = np.where(curb < b, curb, np.where(curb < i, np.where(prev_in_b, b, curb), i))
    extend = (curb > i) & prev_in_b
    if extend.any():
        ext.add(curb[extend], leaving.select(extend))
    if not extend.all():
        pools.add_grouped(target[~extend], leaving.select(~extend))


class PBPolicy:
    """Walks pooled with their current block; buckets by previous block,
    ancillaries fully loaded in ascending id; exits pooled by current block."""

    def __init__(self, store: BlockStore, sim: DiskSim) -> None:
        self.store, self.sim, self.bmap = store, sim, store.block_map

    def pool_of(self, walks: Walks) -> np.ndarray:
        return self.bmap[walks.cur]

    def buckets(self, b: int, walks: Walks) -> Iterator[tuple[int, Walks]]:
        prev_b = self.bmap[walks.prev]
        prev_b[prev_b < 0] = b
        for i, bucket in split_by_key(walks, prev_b):
            if i != b:
                self.sim.charge_block_load(i, self.store.block_bytes(i))
            yield i, bucket

    def before_step(self, active: Walks, b: int, i: int) -> None:
        pass

    def route(self, pools, leaving, curb, b, i) -> None:
        pools.add_grouped(curb, leaving)


class BiBlockPolicy(PBPolicy):
    """Skewed storage, Eq. 4 buckets in triangular order, extension buffers,
    ancillaries through a :class:`BlockLoader`."""

    def __init__(self, store: BlockStore, sim: DiskSim, loader: BlockLoader) -> None:
        super().__init__(store, sim)
        self.loader = loader
        self.ext = ExtensionBuffers()

    def pool_of(self, walks: Walks) -> np.ndarray:
        return skewed_block_of(self.bmap[walks.prev], self.bmap[walks.cur])

    def buckets(self, b: int, walks: Walks) -> Iterator[tuple[int, Walks]]:
        bmap, loader, ext = self.bmap, self.loader, self.ext
        pb, cb = bmap[walks.prev], bmap[walks.cur]
        key = np.where(pb < 0, b, np.where(pb == b, cb, pb))
        buckets = dict(split_by_key(walks, key))
        for i in range(b, self.store.n_blocks):
            bucket = buckets.pop(i, None)
            if i in ext:
                staged = ext.drain(i)
                bucket = staged if bucket is None else Walks.concat([bucket, staged])
            if bucket is None:
                continue
            if i != b:
                activated = np.concatenate([
                    bucket.prev[bmap[bucket.prev] == i], bucket.cur[bmap[bucket.cur] == i]
                ])
                loader.load(i, len(bucket), activated)
            yield i, bucket
            if i != b:
                loader.finish()
        assert ext.is_empty()

    def before_step(self, active: Walks, b: int, i: int) -> None:
        if self.loader.partial:
            self.loader.ensure(active.cur[self.bmap[active.cur] == i])
            self.loader.ensure(active.prev[self.bmap[active.prev] == i])

    def route(self, pools, leaving, curb, b, i) -> None:
        classify_exits(self.bmap, pools, self.ext, leaving, curb, b, i)


def run_engine(store: BlockStore, task: WalkTask, starts: Walks, sched: Scheduler | str,
               policy, rec: Recorder | None, name: str) -> EngineResult:
    """Each slot: pop the picked pool, load its block, then run its buckets
    one at a time, each until its walks leave ``{b, i}`` or finish."""
    csr, bmap, sim = store.csr, store.block_map, policy.sim
    sched = make_scheduler(sched) if isinstance(sched, str) else sched
    sched.reset()
    pools = WalkPools(sim, store.n_blocks)
    live = starts.select(~done_mask(task, csr, starts))
    pools.add_grouped(policy.pool_of(live), live)
    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        walks = pools.pop(b)
        sim.charge_block_load(b, store.block_bytes(b))
        sim.time_slots += 1
        if not len(walks):
            continue
        for i, active in policy.buckets(b, walks):
            sim.bucket_execs += 1
            while len(active):
                policy.before_step(active, b, i)
                advance(csr, task, active, rec)
                sim.steps += len(active)
                active, leaving, curb = split_step(task, csr, bmap, active, b, i)
                if len(leaving):
                    policy.route(pools, leaving, curb, b, i)
    return EngineResult(name=name, sim=sim, recorder=rec)


def run_bi_block(store: BlockStore, task: WalkTask, starts: Walks, *, sim: DiskSim,
                 loading: str = FULL, load_model: LearnedLoadModel | None = None,
                 load_logs: LoadLogs | None = None, record_paths: bool = False) -> EngineResult:
    rec = make_recorder(store.csr, task, starts, record_paths)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)
    policy = BiBlockPolicy(store, sim, loader)
    return run_engine(store, task, starts, IterationScheduler(), policy, rec, "GraSorw")


def run_plain_bucket(store: BlockStore, task: WalkTask, starts: Walks, *, sim: DiskSim,
                     scheduler: str = "max_sum", record_paths: bool = False) -> EngineResult:
    rec = make_recorder(store.csr, task, starts, record_paths)
    return run_engine(store, task, starts, scheduler, PBPolicy(store, sim), rec, "PB")


def train_load_model(store: BlockStore, task: WalkTask, starts: Walks,
                     new_sim) -> tuple[LearnedLoadModel, LoadLogs]:
    """§5.2.2 on the oracle: one full-load and one on-demand run, then the fit."""
    logs = LoadLogs()
    for mode in (FULL, ONDEMAND):
        run_bi_block(store, task, starts, sim=new_sim(), loading=mode, load_logs=logs)
    return LearnedLoadModel.fit(logs, store.n_blocks), logs
