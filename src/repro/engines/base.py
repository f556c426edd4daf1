"""Shared engine machinery: the engine loop, walk pools, block slots.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). All state an engine keeps beyond the
two in-memory blocks lives in :class:`WalkPools` — the on-disk walk pools of
the paper (one per block) — and every pool load/persist is charged to the
I/O simulator as sequential walk I/O.

Every engine is the one loop of :func:`run_engine` — pick a pool, load its
block, split it into buckets, load each ancillary block, step walks until
they leave the resident pair, route the exits — under an
:class:`EnginePolicy` that sets the five choices the engines differ in.
"""
from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.scheduling import Scheduler, make_scheduler
from repro.graphs.csr import CSR
from repro.walks.models import Recorder, WalkTask, advance, done_mask
from repro.walks.state import WalkGroups, Walks


class WalkPools:
    """Per-block walk pools stored "on disk" (charged as walk I/O).

    Tracks per-pool walk counts (for the state-aware schedulers) and exposes
    per-pool minimum hop (for the Min-Height scheduler). Walks added between
    two reads are grouped into their pools together (:class:`WalkGroups`),
    while each add is still charged as its own walk write.
    """

    def __init__(self, sim: DiskSim, n_blocks: int) -> None:
        self._sim = sim
        self._pools = WalkGroups()
        self.counts = np.zeros(n_blocks, dtype=np.int64)

    def add_grouped(self, block_per_walk: np.ndarray, walks: Walks) -> None:
        """Persist walks into pools keyed by ``block_per_walk`` (one walk
        I/O charge per call). The pools take ownership of ``walks``."""
        if not len(walks):
            return
        self._sim.charge_walk_io(len(walks))
        self.counts += np.bincount(block_per_walk, minlength=len(self.counts))
        self._pools.add(block_per_walk, walks)

    def pop(self, b: int) -> Walks:
        """Load and clear pool ``b`` (charged as sequential walk I/O). The
        result is a fresh table that shares no memory with any pool."""
        out = Walks.concat(self._pools.pop(b))
        self.counts[b] = 0
        self._sim.charge_walk_io(len(out))
        return out

    def total(self) -> int:
        return int(self.counts.sum())

    def min_hop(self, b: int) -> int:
        chunks = self._pools.get(b)
        if not chunks:
            return np.iinfo(np.int64).max
        return int(min(int(c.hop.min()) for c in chunks))


class BlockSlots:
    """LRU block slots in memory; loading an absent block charges block I/O."""

    def __init__(self, store: BlockStore, sim: DiskSim, n_slots: int) -> None:
        self.store = store
        self.sim = sim
        self.n_slots = n_slots
        self.resident: list[int] = []  # MRU last

    def ensure(self, b: int) -> bool:
        """Make block ``b`` resident; returns True if a load was charged."""
        if b in self.resident:
            self.resident.remove(b)
            self.resident.append(b)
            return False
        if len(self.resident) >= self.n_slots:
            self.resident.pop(0)
        self.sim.charge_block_load(b, self.store.block_bytes(b))
        self.resident.append(b)
        return True

    def has_block(self, bids: np.ndarray) -> np.ndarray:
        out = np.zeros(len(bids), dtype=bool)
        for r in self.resident:  # at most n_slots compares
            out |= bids == r
        return out


@dataclass
class EngineResult:
    """Outcome of one engine run: I/O counters + walk artifacts."""

    name: str
    sim: DiskSim
    recorder: Recorder | None

    @property
    def metrics(self) -> dict:
        return {"engine": self.name, **self.sim.snapshot()}


def split_done(task: WalkTask, csr: CSR, walks: Walks) -> tuple[Walks, Walks]:
    """(finished, live) split by the deterministic termination rule."""
    if not len(walks):
        return walks, walks
    d = done_mask(task, csr, walks)
    return walks.select(d), walks.select(~d)


def split_step(
    task: WalkTask, csr: CSR, block_map: np.ndarray, walks: Walks, b: int, i: int
) -> tuple[Walks, Walks, np.ndarray]:
    """Route a batch right after ``advance``: (staying, leaving, blocks).

    Finished walks are dropped. A live walk leaves when its current block is
    neither ``b`` nor ``i`` (pass ``i == b`` for one resident block);
    ``blocks`` holds the leaving walks' current blocks. The done mask and
    the current blocks are computed once, and each output is one gather
    (none when every walk stays).
    """
    done = done_mask(task, csr, walks)
    curb = block_map[walks.cur]
    out = (curb != b) & (curb != i) & ~done
    if not out.any():
        return (walks.select(~done) if done.any() else walks), Walks.empty(), curb[:0]
    return walks.select(~(done | out)), walks.select(out), curb[out]


def make_recorder(
    csr: CSR,
    task: WalkTask,
    starts: Walks,
    record_paths: bool,
    record_visits: bool = False,
) -> Recorder | None:
    """Recorder for the requested artifacts, or None (fast path)."""
    if not (record_paths or record_visits):
        return None
    rec = Recorder(
        csr.n, len(starts), task.max_len,
        record_paths=record_paths, record_visits=record_visits,
    )
    rec.on_start(starts)
    return rec


class EnginePolicy:
    """The choices that tell one engine from another (paper §4, §7.3).

    The defaults are the plainest engine: walks pooled with their current
    block, which is fully loaded; one bucket per slot; no per-step reads;
    exits pooled with their new current block. Engines override the hooks
    they change; :func:`run_engine` calls them in a fixed order.
    """

    def __init__(self, store: BlockStore, sim: DiskSim) -> None:
        self.store = store
        self.sim = sim
        self.bmap = store.block_map

    def pool_of(self, walks: Walks) -> np.ndarray:
        """Pool (block id) each walk is stored in: its current block."""
        return self.bmap[walks.cur]

    def load_current(self, b: int, walks: Walks) -> None:
        """Bring current block ``b`` in for its pooled ``walks``, which may be
        empty when the scheduler picks a walk-less block."""
        self.sim.charge_block_load(b, self.store.block_bytes(b))

    def buckets(self, b: int, walks: Walks) -> Iterator[tuple[int, Walks]]:
        """Yield ``(i, bucket)`` per bucket execution, with ancillary block
        ``i`` loaded (``i == b``: the current block alone). Code after a
        ``yield`` runs once that bucket's walks have all left or finished."""
        yield b, walks

    def before_step(self, active: Walks, b: int, i: int) -> None:
        """Charge the reads that make this step's vertices resident."""

    def route(self, pools: WalkPools, leaving: Walks, curb: np.ndarray, b: int, i: int) -> None:
        """Persist walks that left the resident pair (current blocks ``curb``)."""
        pools.add_grouped(curb, leaving)


def run_engine(
    store: BlockStore,
    task: WalkTask,
    starts: Walks,
    sched: Scheduler | str,
    policy: EnginePolicy,
    rec: Recorder | None,
    name: str,
) -> EngineResult:
    """Run ``task`` from ``starts`` to completion under ``policy``.

    Each time slot pops the pool the scheduler picks, loads its block and
    executes its buckets; within a bucket the walks advance in lock step
    until each finishes or leaves blocks ``{b, i}``. Counters go to
    ``policy.sim``.
    """
    csr, bmap, sim = store.csr, store.block_map, policy.sim
    sched = make_scheduler(sched) if isinstance(sched, str) else sched
    sched.reset()
    pools = WalkPools(sim, store.n_blocks)
    _, live = split_done(task, csr, starts)
    pools.add_grouped(policy.pool_of(live), live)

    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        walks = pools.pop(b)
        policy.load_current(b, walks)
        sim.time_slots += 1
        if not len(walks):
            continue  # Alphabet may schedule (and pay for) an empty block
        for i, active in policy.buckets(b, walks):
            sim.bucket_execs += 1
            while len(active):
                policy.before_step(active, b, i)
                t0 = time.perf_counter()
                advance(csr, task, active, rec)
                sim.steps += len(active)
                sim.exec_real_s += time.perf_counter() - t0
                active, leaving, curb = split_step(task, csr, bmap, active, b, i)
                if len(leaving):
                    policy.route(pools, leaving, curb, b, i)
    return EngineResult(name=name, sim=sim, recorder=rec)
