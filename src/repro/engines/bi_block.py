"""GraSorw's bi-block execution engine (paper §4, Algorithms 1 and 2).

Iteration-based scheduling (§4.1) sweeps the current blocks in ascending
order, skipping blocks whose skewed-storage pool is empty; one sweep is the
paper's iteration. For each current block ``b`` the walks are keyed into
buckets (Eq. 4, self-bucket ``b`` for walks that have not stepped yet — the
paper's initialization stage, executed in-line); every bucket key ``i`` is
``>= b``, so ancillary blocks are visited strictly upward
(``i = b+1 .. N_B-1``) — the *triangular* schedule, made correct by skewed
storage (walks with min-block ``b`` are exactly those whose "other" block
has a larger id).

Under Iteration-based scheduling the walks are not run slot by slot: one
hop-synchronous pass (:func:`~repro.engines.base.walk_sweeps`) steps every
live walk, and each walk's slot and bucket follow from its own blocks. A
walk moves while both its vertices stay inside ``{b, i}`` for its slot
``b`` and bucket ``i``. On exit it is re-associated per Algorithm 2,
including the *bucket-extending* case: a walk whose previous vertex is in
``b`` and whose current block is a later ancillary moves on to that bucket
of the same slot. Every other walk goes to its skewed pool, whose slot the
iteration takes later in the same sweep if that block is above ``b`` and in
the next sweep otherwise.

Ancillary blocks are loaded through a :class:`~repro.engines.loading.BlockLoader`
(full / on-demand / learned), which is where the §5 model plugs in. The
pass records each slot's bucket entries, exits and on-demand touches, and
the charges are made from those records in slot order and ascending bucket
order, one array call per clock (:func:`~repro.engines.base.charge_slots`),
so the counters are those of a slot-at-a-time, bucket-at-a-time run; ``tests/sequential_oracle.py``
stays the executable spec of that block-by-block execution.
"""
from __future__ import annotations

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, EnginePolicy, make_recorder, run_engine
from repro.engines.loading import FULL, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.scheduling import IterationScheduler
from repro.walks.buckets import collect_buckets
from repro.walks.models import WalkTask
from repro.walks.state import Walks, skewed_block_of


class BiBlockPolicy(EnginePolicy):
    """Skewed storage and Eq. 4 buckets in triangular order, ancillary
    blocks through a :class:`BlockLoader`. A walk whose skewed pool is its
    own slot has its previous vertex there, and moves on to bucket
    ``B(cur)`` if that runs later in the slot: Algorithm 2's extension."""

    def pool_of(self, prevb: np.ndarray, curb: np.ndarray) -> np.ndarray:
        """Skewed storage rule (§4.3.1). For a walk leaving bucket ``i`` it
        gives Algorithm 2's pool: cur < b → pool[cur]; b < cur < i →
        pool[b] if prev∈b, else pool[cur]; cur > i (prev∈i) → pool[i]."""
        return skewed_block_of(prevb, curb)

    def bucket_of(self, b: np.ndarray | int, prevb: np.ndarray, curb: np.ndarray) -> np.ndarray:
        return collect_buckets(prevb, curb, b)


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

