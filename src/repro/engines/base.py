"""Shared engine machinery: the engine loop, walk pools, block slots.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). All state an engine keeps beyond the
two in-memory blocks lives in :class:`WalkPools` — the on-disk walk pools of
the paper (one per block) — and every pool load/persist is charged to the
I/O simulator as sequential walk I/O.

Every engine is the one loop of :func:`run_engine` — pick a pool, load its
block, step all of its buckets as one batch, each walk until it leaves the
current block and its bucket's ancillary block, route the exits — under an
:class:`EnginePolicy` that sets the choices the engines differ in. Where a
slot has several buckets, the charges that depend on bucket order are
recorded in a :class:`SlotLog` while the batch runs and replayed at slot end
in bucket order, as a bucket-at-a-time engine makes them.
"""
from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.loading import FULL, BlockLoader
from repro.engines.scheduling import Scheduler, make_scheduler
from repro.graphs.csr import CSR
from repro.walks.models import Recorder, WalkTask, advance, done_mask
from repro.walks.state import WalkGroups, Walks

_NONE = np.empty(0, dtype=np.int64)


class WalkPools:
    """Per-block walk pools stored "on disk" (charged as walk I/O).

    Tracks per-pool walk counts (for the state-aware schedulers) and exposes
    per-pool minimum hop (for the Min-Height scheduler). Walks added between
    two reads are grouped into their pools together (:class:`WalkGroups`).
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
        self.put(block_per_walk, walks)

    def put(self, block_per_walk: np.ndarray, walks: Walks) -> None:
        """:meth:`add_grouped` without the charge, for a caller that charges
        the write itself (a :class:`SlotLog` replay)."""
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
    task: WalkTask,
    csr: CSR,
    block_map: np.ndarray,
    walks: Walks,
    b: int,
    bucket: np.ndarray | int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of a batch right after ``advance``: (done, out, blocks).

    ``done`` marks finished walks. ``out`` marks live walks whose current
    block is neither ``b`` nor their bucket's block ``bucket`` (an array
    with one id per walk, or one id for all). ``blocks`` holds every walk's
    current block.
    """
    done = done_mask(task, csr, walks)
    curb = block_map[walks.cur]
    return done, (curb != b) & (curb != bucket) & ~done, curb


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


def _grouped(pairs: list[tuple[np.ndarray, np.ndarray]]) -> dict[int, np.ndarray]:
    """{key: values} from (keys, values) chunks."""
    if not pairs:
        return {}
    keys = np.concatenate([k for k, _ in pairs])
    if not len(keys):
        return {}
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], np.concatenate([v for _, v in pairs])[order]
    cuts = (np.flatnonzero(keys[1:] != keys[:-1]) + 1).tolist()
    return {int(keys[lo]): vals[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(keys)])}


class SlotLog:
    """The charges of one time slot that depend on bucket order.

    A slot's buckets step as one batch, so a walk of a later bucket may step
    before one of an earlier bucket has finished. What a bucket-at-a-time
    engine would charge in bucket order is therefore recorded as the batch
    runs: the walks entering each bucket (and, with ``vertices``, their
    vertices inside its ancillary block), the pool-bound exits of each
    (bucket, local step), and, with ``vertices``, the current vertices each
    (bucket, local step) has in its ancillary block. :meth:`buckets` gives
    them back in bucket order, then local-step order, so a replay sums every
    float counter in the order a bucket-at-a-time run does. A walk's local
    step counts its steps since it entered its bucket; ``width`` bounds it.
    """

    def __init__(self, block_map: np.ndarray, width: int, vertices: bool) -> None:
        self.bmap = block_map
        self.width = width
        self.vertices = vertices
        self._entered: list[np.ndarray] = []
        self._activated: list[tuple[np.ndarray, np.ndarray]] = []  # (bucket, vertex)
        self._exits: list[np.ndarray] = []  # step key per pool-bound exit
        self._touched: list[tuple[np.ndarray, np.ndarray]] = []  # (step key, vertex)

    def enter(self, bucket: np.ndarray, walks: Walks) -> None:
        """``walks`` enter buckets ``bucket`` at local step 0. The log keeps
        ``bucket``, so the caller must not write into it afterwards."""
        self._entered.append(bucket)
        if self.vertices:
            for v in (walks.prev, walks.cur):
                inside = self.bmap[v] == bucket
                self._activated.append((bucket[inside], v[inside]))

    def touch(self, cur: np.ndarray, bucket: np.ndarray, local: np.ndarray) -> None:
        """Walks about to take local step ``local`` of ``bucket`` from ``cur``."""
        inside = self.bmap[cur] == bucket
        self._touched.append((bucket[inside] * self.width + local[inside], cur[inside]))

    def exit(self, bucket: np.ndarray, local: np.ndarray) -> None:
        """Walks that left ``bucket`` for a pool on local step ``local``."""
        self._exits.append(bucket * self.width + local)

    def buckets(self) -> Iterator[tuple[int, int, np.ndarray, list[tuple[int, np.ndarray]]]]:
        """Per bucket, ascending: (id, walks entered, their ancillary
        vertices, steps), where ``steps`` holds (pool-bound exits, ancillary
        current vertices) for each local step with either, ascending."""
        w = self.width
        n_in = np.bincount(np.concatenate(self._entered))
        ids = np.flatnonzero(n_in)
        activated, touched = _grouped(self._activated), _grouped(self._touched)
        keys, n_out = np.unique(np.concatenate([*self._exits, _NONE]), return_counts=True)
        exits = dict(zip(keys.tolist(), n_out.tolist()))
        steps = np.array(sorted(exits.keys() | touched.keys()), dtype=np.int64)
        lo, hi = np.searchsorted(steps, ids * w), np.searchsorted(steps, ids * w + w)
        steps = steps.tolist()
        for i, a, z in zip(ids.tolist(), lo.tolist(), hi.tolist()):
            yield i, int(n_in[i]), activated.get(i, _NONE), [
                (exits.get(k, 0), touched.get(k, _NONE)) for k in steps[a:z]
            ]


class EnginePolicy:
    """The choices that tell one engine from another (paper §4, §7.3).

    The defaults are the plainest engine: walks pooled with their current
    block, which is fully loaded; one bucket per slot, charged as it runs;
    no per-step reads; exits pooled with their new current block. Engines
    override the hooks they change; :func:`run_engine` calls them in a fixed
    order.
    """

    #: Record each bucket's vertices inside its ancillary block (for an
    #: on-demand replay) in the :class:`SlotLog`.
    log_vertices = False

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

    def bucket_of(self, b: int, walks: Walks) -> np.ndarray | None:
        """Bucket of each walk of slot ``b``: the ancillary block it runs
        with (``b``: the current block alone). None: the slot is the one
        bucket ``b``, and its charges are made as they happen."""
        return None

    def before_step(self, active: Walks, b: int, bucket: np.ndarray | int) -> None:
        """Charge the reads that make this step's vertices resident;
        ``bucket`` holds each active walk's bucket (the int ``b`` when the
        slot is one bucket)."""

    def extends(
        self, walks: Walks, curb: np.ndarray, b: int, bucket: np.ndarray
    ) -> np.ndarray | bool:
        """Mask of walks that, on leaving their bucket, move on to bucket
        ``curb`` within this slot instead of a pool (False: none do). Asked
        only in slots that :meth:`bucket_of` splits into buckets."""
        return False

    def close_slot(self, b: int, log: SlotLog | None) -> None:
        """End slot ``b``; ``log`` holds its recorded charges (None for a
        slot of one bucket)."""


class BucketPolicy(EnginePolicy):
    """Two resident blocks: the current block and, per bucket, an ancillary
    block brought in by a :class:`BlockLoader`. Buckets are recorded in a
    :class:`SlotLog` and charged at slot end, bucket by bucket."""

    def __init__(self, store: BlockStore, sim: DiskSim, loader: BlockLoader) -> None:
        super().__init__(store, sim)
        self.loader = loader
        self.log_vertices = loader.mode != FULL

    def close_slot(self, b: int, log: SlotLog | None) -> None:
        sim, loader = self.sim, self.loader
        for i, n_in, activated, steps in log.buckets():
            sim.bucket_execs += 1
            if i != b:  # bucket b needs no ancillary block
                loader.load(i, n_in, activated)
            for n_out, touched in steps:
                if loader.partial:  # loaded on demand: fetch what steps touch
                    loader.ensure(touched)
                sim.charge_walk_io(n_out)
            if i != b:
                loader.finish()


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
    steps all of its walks in lock step. A walk leaves the batch when it
    finishes or its current vertex leaves block ``b`` and its bucket's
    block; a walk the policy extends is re-keyed to its new bucket instead,
    its local step starting again at 0. Counters go to ``policy.sim``.
    """
    csr, bmap, sim = store.csr, store.block_map, policy.sim
    sched = make_scheduler(sched) if isinstance(sched, str) else sched
    sched.reset()
    pools = WalkPools(sim, store.n_blocks)
    _, live = split_done(task, csr, starts)
    pools.add_grouped(policy.pool_of(live), live)
    width = task.max_len + 1  # local steps per bucket are < max_len

    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        active = pools.pop(b)
        policy.load_current(b, active)
        sim.time_slots += 1
        if not len(active):
            continue  # Alphabet may schedule (and pay for) an empty block
        bucket = policy.bucket_of(b, active)
        if bucket is None:  # one bucket, charged as it runs
            bucket, log = b, None
            sim.bucket_execs += 1
        else:
            log = SlotLog(bmap, width, policy.log_vertices)
            log.enter(bucket, active)
            entered = np.zeros(len(active), dtype=np.int64)  # slot step of bucket entry
        t = 0
        while len(active):
            policy.before_step(active, b, bucket)
            if log is not None and log.vertices:
                log.touch(active.cur, bucket, t - entered)
            t0 = time.perf_counter()
            advance(csr, task, active, rec)
            sim.steps += len(active)
            sim.exec_real_s += time.perf_counter() - t0
            done, out, curb = split_step(task, csr, bmap, active, b, bucket)
            if out.any():
                if log is None:  # one bucket: exits are charged as they happen
                    leaving = active.select(out)
                    pools.add_grouped(policy.pool_of(leaving), leaving)
                else:
                    ext = policy.extends(active, curb, b, bucket) & out
                    if ext.any():
                        # Re-key in place; fresh arrays, as the log keeps bucket ones.
                        bucket = np.where(ext, curb, bucket)
                        entered = np.where(ext, t + 1, entered)
                        log.enter(bucket[ext], active.select(ext))
                        out &= ~ext
                    leaving = active.select(out)
                    pools.put(policy.pool_of(leaving), leaving)
                    log.exit(bucket[out], t - entered[out])
            keep = ~(done | out)
            if not keep.all():
                active = active.select(keep)
                if log is not None:
                    bucket, entered = bucket[keep], entered[keep]
            t += 1
        policy.close_slot(b, log)
    return EngineResult(name=name, sim=sim, recorder=rec)
