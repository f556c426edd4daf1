"""Plain Bucket (PB) engine — the bi-block ablation of §7.3.

Buckets without the triangular schedule or skewed storage: walks live with
their *current* block (traditional storage); the current block is picked by
GraphWalker's state-aware strategy; the current walks are split into buckets
by *previous* block; ancillary blocks are visited in ascending bucket id
starting from 0 — which makes most ancillary loads random, not sequential.
Two block slots (current + ancillary) are kept in memory, so like the
bi-block engine it performs no light vertex I/Os; the difference Table 3
measures is purely scheduling: roughly twice the block I/Os and random
rather than sequential ancillary loads.
"""
from __future__ import annotations

import time

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import (
    EngineResult,
    WalkPools,
    make_recorder,
    split_done,
    split_step,
)
from repro.engines.scheduling import Scheduler, make_scheduler
from repro.walks.models import WalkTask, advance
from repro.walks.state import Walks, split_by_key


def run_plain_bucket(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: Scheduler | str = "max_sum",
    record_paths: bool = False,
    record_visits: bool = False,
) -> EngineResult:
    csr = store.csr
    sim = sim or DiskSim(params=store.params)
    sched = make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    sched.reset()
    rec = make_recorder(csr, task, starts, record_paths, record_visits)
    pools = WalkPools(sim, store.n_blocks)

    bmap = store.block_map
    _, live = split_done(task, csr, starts)
    pools.add_grouped(bmap[live.cur], live)

    last_current = -1
    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        if b != last_current:
            if store.physical:
                store.read_block(b)
            sim.charge_block_load(b, store.block_bytes(b))
        last_current = b
        sim.time_slots += 1
        walks = pools.pop(b)
        if not len(walks):
            continue
        # Buckets by previous block; hop-0 walks form the self-bucket b.
        prev_b = bmap[walks.prev]
        prev_b[prev_b < 0] = b
        for i, bucket in split_by_key(walks, prev_b):
            if i != b:  # self-bucket needs no ancillary block
                if store.physical:
                    store.read_block(i)
                sim.charge_block_load(i, store.block_bytes(i))
            sim.bucket_execs += 1
            active = bucket
            while len(active):
                t0 = time.perf_counter()
                advance(csr, task, active, rec)
                sim.steps += len(active)
                sim.exec_real_s += time.perf_counter() - t0
                active, leaving, curb = split_step(task, csr, bmap, active, b, i)
                pools.add_grouped(curb, leaving)
    return EngineResult(name="PB", sim=sim, recorder=rec)
