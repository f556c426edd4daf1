"""GraSorw's bi-block execution engine (paper §4, Algorithms 1 and 2).

The current block id iterates 0..N_B-1 (Iteration-based scheduling, §4.1),
skipping blocks whose skewed-storage pool is empty. For each current block
``b`` the pooled walks are keyed into buckets (Eq. 4, self-bucket ``b`` for
walks that have not stepped yet — the paper's initialization stage,
executed in-line); every bucket key ``i`` is ``>= b``, so ancillary blocks
are visited strictly upward (``i = b+1 .. N_B-1``) — the *triangular*
schedule, made correct by skewed storage (walks with min-block ``b`` are
exactly those whose "other" block has a larger id).

All buckets of a slot step together as one batch, as the paper's executing
stage keeps many walks in flight; each walk moves while both its vertices
stay inside ``{b, i}`` for its own bucket ``i``. On exit, walks are
re-associated per Algorithm 2, including the *bucket-extending* case: a walk
whose previous vertex is in ``b`` and whose current block is a later
ancillary is re-keyed in place to that bucket and keeps moving within the
same slot.

Ancillary blocks are loaded through a :class:`~repro.engines.loading.BlockLoader`
(full / on-demand / learned), which is where the §5 model plugs in. Their
loads, on-demand fetches and exit writes are recorded while the batch runs
and replayed at slot end in ascending bucket order
(:class:`~repro.engines.base.SlotLog`), so the counters are those of a
bucket-at-a-time run.
"""
from __future__ import annotations

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import BucketPolicy, EngineResult, make_recorder, run_engine
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import IterationScheduler
from repro.walks.buckets import collect_buckets
from repro.walks.models import WalkTask
from repro.walks.state import Walks, skewed_block_of


class BiBlockPolicy(BucketPolicy):
    """Skewed storage, Eq. 4 buckets in triangular order, bucket extension,
    and ancillary blocks through a :class:`BlockLoader`."""

    def pool_of(self, walks: Walks) -> np.ndarray:
        """Skewed storage rule (§4.3.1). For a walk leaving bucket ``i`` it
        gives Algorithm 2's pool: cur < b → pool[cur]; b < cur < i →
        pool[b] if prev∈b, else pool[cur]; cur > i (prev∈i) → pool[i]."""
        return skewed_block_of(self.bmap[walks.prev], self.bmap[walks.cur])

    def bucket_of(self, b: int, walks: Walks) -> np.ndarray:
        return collect_buckets(self.bmap[walks.prev], self.bmap[walks.cur], b)

    def extends(self, walks: Walks, curb: np.ndarray, b: int, bucket: np.ndarray) -> np.ndarray:
        """Algorithm 2, line 14: previous vertex in ``b``, current block
        above the bucket's ancillary."""
        return (curb > bucket) & (self.bmap[walks.prev] == b)


def run_bi_block(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    *,
    sim: DiskSim | None = None,
    loading: str = FULL,
    load_model: LearnedLoadModel | None = None,
    load_logs: LoadLogs | None = None,
    record_paths: bool = False,
    record_visits: bool = False,
    name: str = "Bi-Block",
) -> EngineResult:
    """Run the bi-block engine to completion. ``loading`` selects the
    ancillary block loading method: "full", "ondemand" or "learned"."""
    sim = sim or DiskSim(params=store.params)
    rec = make_recorder(store.csr, task, starts, record_paths, record_visits)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)
    policy = BiBlockPolicy(store, sim, loader)
    return run_engine(store, task, starts, IterationScheduler(), policy, rec, name)

