"""Shared engine machinery: walk pools, block slots, result container.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). All state an engine keeps beyond the
two in-memory blocks lives in :class:`WalkPools` — the on-disk walk pools of
the paper (one per block) — and every pool load/persist is charged to the
I/O simulator as sequential walk I/O.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.graphs.csr import CSR
from repro.walks.models import Recorder, WalkTask, done_mask
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
        if self.store.physical:
            self.store.read_block(b)  # genuine disk read (fidelity path)
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
