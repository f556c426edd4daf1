"""SOGW baseline: Second-Order GraphWalker (paper §7.1).

GraphWalker's block-centric engine run on a second-order model: walks live
in the pool of their *current* block; a state-aware scheduler picks the
block with the most walks; walks update asynchronously while they stay in
the current block. The second-order twist is the problem the paper attacks:
classifying a candidate against N(prev) needs the *previous* vertex's
adjacency, and when B(prev) is not among the (two) resident blocks the
engine issues a light random vertex I/O — one per step taken with a
non-resident previous vertex.

``static_cache`` turns this into SGSC (see :mod:`repro.engines.sgsc`).
"""
from __future__ import annotations

import time

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import (
    BlockSlots,
    EngineResult,
    WalkPools,
    make_recorder,
    split_done,
    split_step,
)
from repro.engines.scheduling import Scheduler, make_scheduler
from repro.walks.models import WalkTask, advance
from repro.walks.state import Walks


def run_sogw(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    scheduler: Scheduler | str = "max_sum",
    static_cache: np.ndarray | None = None,
    record_paths: bool = False,
    record_visits: bool = False,
    name: str = "SOGW",
) -> EngineResult:
    """Run the SOGW engine to completion.

    ``static_cache`` is a boolean per-vertex array: True = the vertex's
    adjacency is pinned in memory, so no vertex I/O is needed for it.
    """
    csr = store.csr
    sim = sim or DiskSim(params=store.params)
    sched = make_scheduler(scheduler) if isinstance(scheduler, str) else scheduler
    sched.reset()
    rec = make_recorder(csr, task, starts, record_paths, record_visits)
    pools = WalkPools(sim, store.n_blocks)
    slots = BlockSlots(store, sim, n_slots=2)

    bmap = store.block_map
    _, live = split_done(task, csr, starts)
    pools.add_grouped(bmap[live.cur], live)

    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        slots.ensure(b)
        sim.time_slots += 1
        if pools.counts[b] == 0:
            continue  # Alphabet may schedule (and pay for) an empty block
        active = pools.pop(b)
        sim.bucket_execs += 1
        while len(active):
            t0 = time.perf_counter()
            # Light vertex I/Os: previous vertex not resident and not cached.
            if not task.first_order:
                prev_b = bmap[active.prev]
                need = (prev_b >= 0) & ~slots.has_block(prev_b)
                if static_cache is not None:
                    need &= ~static_cache[np.maximum(active.prev, 0)]
                sim.charge_vertex_fetch(store.vertex_seg_bytes(active.prev[need]))
            advance(csr, task, active, rec)
            sim.steps += len(active)
            sim.exec_real_s += time.perf_counter() - t0
            active, leaving, curb = split_step(task, csr, bmap, active, b, b)
            pools.add_grouped(curb, leaving)
    return EngineResult(name=name, sim=sim, recorder=rec)
