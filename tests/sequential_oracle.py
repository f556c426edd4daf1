"""Bucket-at-a-time reference for every engine.

A test-only copy of the engine loop in which each bucket of a time slot runs
alone: its walks advance until every one has finished or left the resident
pair ``{b, i}``, and every charge is made the moment it happens. Bi-block and
PB split a slot into Eq. 4 / previous-block buckets; SOGW, SGSC and the
first-order engines run a slot as the one bucket ``b``, fetching previous
vertices (SOGW/SGSC) or on-demand current vertices (first-order) and writing
exits step by step. The engines in ``repro.engines`` step all buckets of a
slot as one batch and replay the bucket-order charges afterwards;
``tests/test_slot_lockstep.py`` checks that both give the same counters,
load logs and paths.

Only the stable pieces of the program are reused: the pools, the block
slots, the schedulers, the sampler, the static cache, the Eq. 4 grouping and
the extension buffers. The routing rules (Eq. 4 bucket keys, the residency
split and Algorithm 2's exit cases), the charge rules and the block loader
with its learned mode choice are copied here, so the oracle does not move
when the program's versions of them do.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import BlockSlots, EngineResult, WalkPools, make_recorder
from repro.engines.loading import FULL, LEARNED, ONDEMAND, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import IterationScheduler, Scheduler, make_scheduler
from repro.engines.sgsc import build_static_cache
from repro.walks.buckets import ExtensionBuffers
from repro.walks.models import Recorder, WalkTask, advance, done_mask
from repro.walks.state import Walks, skewed_block_of, split_by_key


def choose(model: LearnedLoadModel, bid: int, eta: float) -> str:
    """The learned mode choice, one block at a time: the cheaper predicted
    mode, full load on a tie and for blocks without on-demand data."""
    a_f, b_f, a_o, b_o = model.coef[bid]
    if not np.isfinite(a_o):
        return FULL
    return FULL if a_f * eta + b_f <= a_o * eta + b_o else ONDEMAND


class BlockLoader:
    """Loads one block at a time, fully or on demand. On demand, it tracks
    which vertices of the block are resident, so each ``ensure`` fetches
    (and charges) only the newly activated ones."""

    def __init__(self, store: BlockStore, sim: DiskSim, *, mode: str = FULL,
                 model: LearnedLoadModel | None = None, logs: LoadLogs | None = None) -> None:
        self.store, self.sim, self.mode, self.model, self.logs = store, sim, mode, model, logs
        self._bid: int | None = None
        self._loaded: np.ndarray | None = None  # None = fully loaded
        self._lo = 0
        self._t_start = 0.0
        self._eta = 0.0
        self._chosen = FULL

    def load(self, bid: int, walks_count: int, activated: np.ndarray) -> str:
        lo, hi = self.store.part.block_slice(bid)
        eta = walks_count / max(1, hi - lo)
        chosen = choose(self.model, bid, eta) if self.mode == LEARNED else self.mode
        self._bid, self._lo, self._eta, self._chosen = bid, lo, eta, chosen
        self._t_start = self.sim.block_io_s + self.sim.ondemand_io_s
        if chosen == FULL:
            self.sim.charge_block_load(bid, self.store.block_bytes(bid))
            self._loaded = None
        else:
            self._loaded = np.zeros(hi - lo, dtype=bool)
            self.ensure(activated)
        return chosen

    @property
    def partial(self) -> bool:
        return self._loaded is not None

    def ensure(self, vs: np.ndarray) -> None:
        if self._loaded is None or len(vs) == 0:
            return
        local = np.unique(np.asarray(vs, dtype=np.int64)) - self._lo
        need = local[~self._loaded[local]]
        if len(need):
            self.sim.charge_vertex_fetch(
                self.store.vertex_seg_bytes(need + self._lo), kind="ondemand")
            self._loaded[need] = True

    def finish(self) -> None:
        """Close the bucket execution: record the (η, t) observation."""
        if self.logs is not None and self._bid is not None:
            t = (self.sim.block_io_s + self.sim.ondemand_io_s) - self._t_start
            self.logs.add(self._bid, self._eta, t, self._chosen)
        self._bid = None
        self._loaded = None


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

    def load_current(self, b: int, walks: Walks) -> None:
        self.sim.charge_block_load(b, self.store.block_bytes(b))

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


class SOGWPolicy(PBPolicy):
    """One bucket per slot, two LRU block slots, and a vertex I/O per step
    whose previous vertex is neither resident nor in ``static_cache``."""

    def __init__(self, store: BlockStore, sim: DiskSim, task: WalkTask,
                 static_cache: np.ndarray | None) -> None:
        super().__init__(store, sim)
        self.slots = BlockSlots(store, sim, n_slots=2)
        self.second_order = not task.first_order
        self.static_cache = static_cache

    def load_current(self, b: int, walks: Walks) -> None:
        self.slots.ensure(b)

    def buckets(self, b: int, walks: Walks) -> Iterator[tuple[int, Walks]]:
        yield b, walks

    def before_step(self, active: Walks, b: int, i: int) -> None:
        if not self.second_order:
            return
        prev_b = self.bmap[active.prev]
        need = (prev_b >= 0) & ~self.slots.has_block(prev_b)
        if self.static_cache is not None:
            need &= ~self.static_cache[np.maximum(active.prev, 0)]
        self.sim.charge_vertex_fetch(self.store.vertex_seg_bytes(active.prev[need]))


class FirstOrderPolicy(PBPolicy):
    """One bucket per slot in the one block slot, filled by a
    :class:`BlockLoader`; on demand, each step fetches its current vertices."""

    def __init__(self, store: BlockStore, sim: DiskSim, loader: BlockLoader) -> None:
        super().__init__(store, sim)
        self.loader = loader

    def load_current(self, b: int, walks: Walks) -> None:
        if len(walks):
            self.loader.load(b, len(walks), walks.cur)
        else:
            super().load_current(b, walks)

    def buckets(self, b: int, walks: Walks) -> Iterator[tuple[int, Walks]]:
        yield b, walks
        self.loader.finish()

    def before_step(self, active: Walks, b: int, i: int) -> None:
        if self.loader.partial:
            self.loader.ensure(active.cur)


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
        policy.load_current(b, walks)
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


def run_sogw(store: BlockStore, task: WalkTask, starts: Walks, *, sim: DiskSim,
             scheduler: str = "max_sum", static_cache: np.ndarray | None = None,
             record_paths: bool = False, name: str = "SOGW") -> EngineResult:
    rec = make_recorder(store.csr, task, starts, record_paths)
    policy = SOGWPolicy(store, sim, task, static_cache)
    return run_engine(store, task, starts, scheduler, policy, rec, name)


def run_sgsc(store: BlockStore, task: WalkTask, starts: Walks, *, sim: DiskSim,
             scheduler: str = "max_sum", record_paths: bool = False) -> EngineResult:
    cache = build_static_cache(store, sim)
    return run_sogw(store, task, starts, sim=sim, scheduler=scheduler, static_cache=cache,
                    record_paths=record_paths, name="SGSC")


def run_first_order(store: BlockStore, task: WalkTask, starts: Walks, *, sim: DiskSim,
                    scheduler: str = "graphwalker", loading: str = FULL,
                    load_model: LearnedLoadModel | None = None,
                    load_logs: LoadLogs | None = None,
                    record_paths: bool = False) -> EngineResult:
    rec = make_recorder(store.csr, task, starts, record_paths)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)
    policy = FirstOrderPolicy(store, sim, loader)
    return run_engine(store, task, starts, scheduler, policy, rec, "GraphWalker")


def train_load_model(store: BlockStore, task: WalkTask, starts: Walks, new_sim,
                     first_order: bool = False) -> tuple[LearnedLoadModel, LoadLogs]:
    """§5.2.2 on the oracle: one full-load and one on-demand run, then the fit
    (first-order: on the one-block engine under Iteration-based scheduling)."""
    logs = LoadLogs()
    for mode in (FULL, ONDEMAND):
        if first_order:
            run_first_order(store, task, starts, sim=new_sim(), scheduler="iteration",
                            loading=mode, load_logs=logs)
        else:
            run_bi_block(store, task, starts, sim=new_sim(), loading=mode, load_logs=logs)
    return LearnedLoadModel.fit(logs, store.n_blocks), logs
