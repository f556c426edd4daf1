"""First-order (single-block) walk engine — GraphWalker and GraSorw's
first-order mode (paper §7.8, Appendix A).

First-order walks need only the current vertex, so one block slot suffices
and no vertex I/Os ever occur. What varies — and what Tables 7 and 8
measure — is the current-block scheduling strategy and the block loading
method:

* **GraphWalker**: state-aware scheduling (Max-Sum/Min-Height mix), full load;
* **GraSorw-No-LBL**: Iteration-based scheduling, full load;
* **GraSorw**: Iteration-based scheduling + learning-based block loading.

A slot is one bucket, the current block ``b`` alone. Under Iteration-based
scheduling the walks run as one hop-synchronous pass
(:func:`~repro.engines.base.walk_sweeps`): a walk that moves to a block
above its slot's joins that block's slot in the same sweep, and one that
moves down waits for the next. Under the other schedulers the engine runs
one slot at a time. Either way the slot's record keeps the current vertices
its steps touch (the first local step touches the load's activated
vertices) and its exits, and is charged once the slot's walks are known:
the policy's :class:`~repro.engines.loading.BlockLoader` then loads block
``b`` as it loads a bi-block ancillary, fully or on demand. The counters
are those of the slot-at-a-time run of ``tests/sequential_oracle.py``, the
executable spec of block-by-block execution.
"""
from __future__ import annotations

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EnginePolicy, EngineResult, make_recorder, run_engine
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import Scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


class FirstOrderPolicy(EnginePolicy):
    """One block slot, filled by the policy's :class:`BlockLoader`."""

    loads_current = True

    def load_current(self, b: int, n: int) -> None:
        if not n:
            super().load_current(b, n)  # Alphabet pays for a walk-less block


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
    """Run the first-order engine to completion; ``loading`` as for
    :func:`~repro.engines.bi_block.run_bi_block`."""
    if not task.first_order:
        raise ValueError("run_first_order requires a first-order task")
    sim = sim or DiskSim(params=store.params)
    rec = make_recorder(store.csr, task, starts, record_paths, record_visits)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)
    policy = FirstOrderPolicy(store, sim, loader)
    return run_engine(store, task, starts, scheduler, policy, rec, name)
