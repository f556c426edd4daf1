"""Plain Bucket (PB) engine — the bi-block ablation of §7.3.

Buckets without the triangular schedule or skewed storage: walks live with
their *current* block (traditional storage); the current block is picked by
GraphWalker's state-aware strategy; the current walks are split into buckets
by *previous* block; ancillary blocks are visited in ascending bucket id
starting from 0 — which makes most ancillary loads random, not sequential.
Two block slots (current + ancillary) are kept in memory, so like the
bi-block engine it performs no light vertex I/Os; the difference Table 3
measures is purely scheduling: roughly twice the block I/Os and random
rather than sequential ancillary loads. A slot's buckets step together and
are charged in ascending id; under Iteration-based scheduling the walks run
as one hop-synchronous pass (:func:`~repro.engines.base.walk_sweeps`).
"""
from __future__ import annotations

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, EnginePolicy, make_recorder, run_engine
from repro.engines.scheduling import Scheduler
from repro.walks.models import WalkTask
from repro.walks.state import Walks


class PBPolicy(EnginePolicy):
    """Buckets by previous block, ancillaries fully loaded in ascending id."""

    def bucket_of(self, b: np.ndarray | int, prevb: np.ndarray, curb: np.ndarray) -> np.ndarray:
        return np.where(prevb < 0, b, prevb)  # hop-0 walks form the self-bucket b


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
    sim = sim or DiskSim(params=store.params)
    rec = make_recorder(store.csr, task, starts, record_paths, record_visits)
    return run_engine(store, task, starts, scheduler, PBPolicy(store, sim), rec, "PB")
