"""GraSorw's bi-block execution engine (paper §4, Algorithms 1 and 2).

The current block id iterates 0..N_B-1 (Iteration-based scheduling, §4.1),
skipping blocks whose skewed-storage pool is empty. For each current block
``b`` the pooled walks are collected into buckets (Eq. 4, self-bucket ``b``
for walks that have not stepped yet — the paper's initialization stage,
executed in-line); ancillary blocks are then visited strictly upward
(``i = b+1 .. N_B-1``) — the *triangular* schedule, made correct by skewed
storage (walks with min-block ``b`` are exactly those whose "other" block
has a larger id). Walks update asynchronously while both their vertices
stay inside the two resident blocks; on exit they are re-associated per
Algorithm 2, including the *bucket-extending* case (a walk whose previous
vertex is in ``b`` and whose current block is a later ancillary joins that
bucket through an extension buffer and keeps moving within the same slot).

Ancillary blocks are loaded through a :class:`~repro.engines.loading.BlockLoader`
(full / on-demand / learned), which is where the §5 model plugs in.
"""
from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import (
    EnginePolicy,
    EngineResult,
    WalkPools,
    make_recorder,
    run_engine,
)
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import IterationScheduler
from repro.walks.buckets import ExtensionBuffers, collect_buckets
from repro.walks.models import WalkTask
from repro.walks.state import Walks, skewed_block_of


class BiBlockPolicy(EnginePolicy):
    """Skewed storage, Eq. 4 buckets in triangular order, extension
    buffers, and ancillary blocks through a :class:`BlockLoader`."""

    def __init__(self, store: BlockStore, sim: DiskSim, loader: BlockLoader) -> None:
        super().__init__(store, sim)
        self.loader = loader
        self.ext = ExtensionBuffers()

    def pool_of(self, walks: Walks) -> np.ndarray:
        """Skewed storage rule (§4.3.1)."""
        return skewed_block_of(self.bmap[walks.prev], self.bmap[walks.cur])

    def buckets(self, b: int, walks: Walks) -> Iterator[tuple[int, Walks]]:
        bmap, loader = self.bmap, self.loader
        buckets = collect_buckets(walks, bmap[walks.prev], bmap[walks.cur], b)
        ext = self.ext  # empty: every slot drains it
        for i in range(b, self.store.n_blocks):  # i == b is the hop-0 self-bucket
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
        assert ext.is_empty(), "extension buffers must drain within the slot"

    def before_step(self, active: Walks, b: int, i: int) -> None:
        if self.loader.partial:
            # On-demand residency for vertices used this step.
            self.loader.ensure(active.cur[self.bmap[active.cur] == i])
            self.loader.ensure(active.prev[self.bmap[active.prev] == i])

    def route(self, pools: WalkPools, leaving: Walks, curb: np.ndarray, b: int, i: int) -> None:
        _classify_exits(self.bmap, pools, self.ext, leaving, curb, b, i)


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


def _classify_exits(
    block_map: np.ndarray,
    pools: WalkPools,
    ext: ExtensionBuffers,
    leaving: Walks,
    curb: np.ndarray,
    b: int,
    i: int,
) -> None:
    """Algorithm 2: re-associate walks that moved out of the resident pair.

    ``leaving`` walks have prev in {b, i} and cur in block ``curb``, outside
    the pair. Cases: cur < b → pool[cur]; b < cur < i → pool[b] if prev∈b
    else pool[cur]; cur > i → bucket-extend to bucket[cur] if prev∈b else
    pool[i]. Every pool target equals min(B(prev), B(cur)) — the skewed
    storage invariant.
    """
    prev_in_b = block_map[leaving.prev] == b
    target = np.where(curb < b, curb, np.where(curb < i, np.where(prev_in_b, b, curb), i))
    extend = (curb > i) & prev_in_b
    if not extend.any():
        pools.add_grouped(target, leaving)
    elif extend.all():
        ext.add(curb, leaving)
    else:
        ext.add(curb[extend], leaving.select(extend))
        rest = ~extend
        pools.add_grouped(target[rest], leaving.select(rest))
