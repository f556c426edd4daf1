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

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EnginePolicy, EngineResult, SlotLog, make_recorder, run_engine
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import Scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


class FirstOrderPolicy(EnginePolicy):
    """One block slot, filled by a :class:`BlockLoader`."""

    def __init__(self, store: BlockStore, sim: DiskSim, loader: BlockLoader) -> None:
        super().__init__(store, sim)
        self.loader = loader

    def load_current(self, b: int, walks: Walks) -> None:
        if len(walks):
            self.loader.load(b, len(walks), walks.cur)
        else:
            super().load_current(b, walks)  # Alphabet pays for a walk-less block

    def before_step(self, active: Walks, b: int, bucket: np.ndarray | int) -> None:
        if self.loader.partial:
            self.loader.ensure(active.cur)  # every active walk is in block b

    def close_slot(self, b: int, log: SlotLog | None) -> None:
        self.loader.finish()


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
    sim = sim or DiskSim(params=store.params)
    rec = make_recorder(store.csr, task, starts, record_paths, record_visits)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)
    policy = FirstOrderPolicy(store, sim, loader)
    return run_engine(store, task, starts, scheduler, policy, rec, name)
