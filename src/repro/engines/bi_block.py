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

import time

import numpy as np

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
from repro.walks.buckets import ExtensionBuffers, collect_buckets
from repro.walks.models import WalkTask, advance
from repro.walks.state import Walks, skewed_block_of


def _skewed_add(pools: WalkPools, block_map: np.ndarray, walks: Walks) -> None:
    """Persist walks into pools under the skewed storage rule (§4.3.1)."""
    if not len(walks):
        return
    pools.add_grouped(skewed_block_of(block_map[walks.prev], block_map[walks.cur]), walks)


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
    csr = store.csr
    nb = store.n_blocks
    bmap = store.block_map
    sim = sim or DiskSim(params=store.params)
    rec = make_recorder(csr, task, starts, record_paths, record_visits)
    pools = WalkPools(sim, nb)
    loader = BlockLoader(store, sim, mode=loading, model=load_model, logs=load_logs)

    _, live = split_done(task, csr, starts)
    _skewed_add(pools, bmap, live)

    while pools.total():
        for b in range(nb):
            if pools.counts[b] == 0:
                continue
            walks = pools.pop(b)
            buckets = collect_buckets(walks, bmap[walks.prev], bmap[walks.cur], b)
            ext = ExtensionBuffers()
            if store.physical:
                store.read_block(b)
            sim.charge_block_load(b, store.block_bytes(b))  # current: always full
            sim.time_slots += 1

            for i in range(b, nb):  # i == b is the hop-0 self-bucket
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
                sim.bucket_execs += 1
                active = bucket
                while len(active):
                    if loader.partial:
                        # On-demand residency for vertices used this step.
                        loader.ensure(active.cur[bmap[active.cur] == i])
                        loader.ensure(active.prev[bmap[active.prev] == i])
                    t0 = time.perf_counter()
                    advance(csr, task, active, rec)
                    sim.steps += len(active)
                    sim.exec_real_s += time.perf_counter() - t0
                    active, leaving, curb = split_step(task, csr, bmap, active, b, i)
                    if len(leaving):
                        _classify_exits(bmap, pools, ext, leaving, curb, b, i)
                if i != b:
                    loader.finish()
            assert ext.is_empty(), "extension buffers must drain within the slot"
    return EngineResult(name=name, sim=sim, recorder=rec)


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
