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

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import BlockSlots, EnginePolicy, EngineResult, make_recorder, run_engine
from repro.engines.scheduling import Scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


class SOGWPolicy(EnginePolicy):
    """Two LRU block slots; a light vertex I/O per step whose previous
    vertex is neither resident nor in ``static_cache``."""

    charges_live = True

    def __init__(
        self, store: BlockStore, sim: DiskSim, task: WalkTask, static_cache: np.ndarray | None
    ) -> None:
        super().__init__(store, sim)
        self.slots = BlockSlots(store, sim, n_slots=2)
        self.second_order = not task.first_order
        self.static_cache = static_cache

    def load_current(self, b: int, n: int, cur: np.ndarray) -> None:
        self.slots.ensure(b)

    def before_step(self, active: Walks, b: np.ndarray | int, bucket: np.ndarray) -> None:
        if not self.second_order:
            return
        prev_b = self.bmap[active.prev]
        need = (prev_b >= 0) & ~self.slots.has_block(prev_b)
        if self.static_cache is not None:
            need &= ~self.static_cache[np.maximum(active.prev, 0)]
        self.sim.charge_vertex_fetch(self.store.vertex_seg_bytes(active.prev[need]))


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
    sim = sim or DiskSim(params=store.params)
    rec = make_recorder(store.csr, task, starts, record_paths, record_visits)
    policy = SOGWPolicy(store, sim, task, static_cache)
    return run_engine(store, task, starts, scheduler, policy, rec, name)
