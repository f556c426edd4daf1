"""First-order (single-block) walk engine — GraphWalker and GraSorw's
first-order mode (paper §7.8, Appendix A).

First-order walks need only the current vertex, so one block slot suffices
and no vertex I/Os ever occur. What varies — and what Tables 7 and 8
measure — is the current-block scheduling strategy and the block loading
method:

* **GraphWalker**: state-aware scheduling (Max-Sum/Min-Height mix), full load;
* **GraSorw-No-LBL**: Iteration-based scheduling, full load;
* **GraSorw**: Iteration-based scheduling + learning-based block loading.
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
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import Scheduler, make_scheduler
from repro.walks.models import WalkTask, advance
from repro.walks.state import Walks


def run_first_order(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: Scheduler | str = "graphwalker",
    loading: str = FULL,
    load_model: LearnedLoadModel | None = None,
    load_logs: LoadLogs | None = None,
    record_paths: bool = False,
    record_visits: bool = False,
    name: str = "GraphWalker",
) -> EngineResult:
    if not task.first_order:
        raise ValueError("run_first_order requires a first-order task")
    csr = store.csr
    sim = sim or DiskSim(params=store.params)
    sched = make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    sched.reset()
    rec = make_recorder(csr, task, starts, record_paths, record_visits)
    pools = WalkPools(sim, store.n_blocks)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)

    bmap = store.block_map
    _, live = split_done(task, csr, starts)
    pools.add_grouped(bmap[live.cur], live)

    last = -1
    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        sim.time_slots += 1
        active = pools.pop(b)
        if b == last and not len(active):
            continue
        if not len(active):
            # Alphabet pays for loading a walk-less block.
            if store.physical:
                store.read_block(b)
            sim.charge_block_load(b, store.block_bytes(b))
            last = b
            continue
        loader.load(b, len(active), active.cur)
        last = b
        sim.bucket_execs += 1
        while len(active):
            if loader.partial:
                loader.ensure(active.cur)  # every active walk is in block b
            t0 = time.perf_counter()
            advance(csr, task, active, rec)
            sim.steps += len(active)
            sim.exec_real_s += time.perf_counter() - t0
            active, leaving, curb = split_step(task, csr, bmap, active, b, b)
            pools.add_grouped(curb, leaving)
        loader.finish()
    return EngineResult(name=name, sim=sim, recorder=rec)


def graphwalker_engine(store, task, starts, **kw) -> EngineResult:
    """GraphWalker baseline: state-aware scheduling, full load."""
    return run_first_order(
        store, task, starts, scheduler="graphwalker", loading=FULL,
        name="GraphWalker", **kw,
    )


def grasorw_first_order(
    store,
    task,
    starts,
    *,
    load_model: LearnedLoadModel | None = None,
    **kw,
) -> EngineResult:
    """GraSorw first-order mode: Iteration scheduling (+ optional LBL)."""
    loading = "learned" if load_model is not None else FULL
    name = "GraSorw" if load_model is not None else "GraSorw-No-LBL"
    return run_first_order(
        store, task, starts, scheduler="iteration", loading=loading,
        load_model=load_model, name=name, **kw,
    )
