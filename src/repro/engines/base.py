"""Shared engine machinery: the engine loop, walk pools, block slots.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). All state an engine keeps beyond the
two in-memory blocks lives in :class:`WalkPools` — the on-disk walk pools of
the paper (one per block) — and every pool load/persist is charged to the
I/O simulator as sequential walk I/O.

Every engine is the one loop of :func:`run_engine` — pick a pool, load its
block, step all of its buckets as one batch, each walk until it leaves the
current block and its bucket's ancillary block, route the exits — under an
:class:`EnginePolicy` that sets the choices the engines differ in. A slot of
one bucket (SOGW, SGSC, first-order) is the same protocol with bucket ``b``
alone. The charges that depend on bucket order are recorded in a
:class:`SlotLog` while the batch runs and replayed at slot end in bucket
order, as a bucket-at-a-time engine makes them: a full-load slot in a short
loop, a slot that may load on demand from arrays, one call per clock.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.loading import FULL, ONDEMAND, BlockLoader
from repro.engines.scheduling import Scheduler, make_scheduler
from repro.graphs.csr import CSR
from repro.walks.models import Recorder, WalkTask, advance, done_mask, draw_keys
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
        # Pool ids in the narrowest unsigned type that holds them (uint8 up
        # to 256 blocks), so grouping them is numpy's O(n) radix sort.
        self._key_dtype = np.min_scalar_type(max(n_blocks - 1, 0))

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
        self._pools.add(block_per_walk.astype(self._key_dtype), walks)

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


def split_done(
    task: WalkTask, csr: CSR, walks: Walks, keys: dict | None = None
) -> tuple[Walks, Walks]:
    """(finished, live) split by the deterministic termination rule
    (``keys`` as for :func:`~repro.walks.models.done_mask`)."""
    if not len(walks):
        return walks, walks
    d = done_mask(task, csr, walks, keys)
    return walks.select(d), walks.select(~d)


def split_step(
    task: WalkTask,
    csr: CSR,
    block_map: np.ndarray,
    walks: Walks,
    b: int,
    bucket: np.ndarray,
    keys: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of a batch right after ``advance``: (done, out, blocks).

    ``done`` marks finished walks (``keys`` as for
    :func:`~repro.walks.models.done_mask`). ``out`` marks live walks whose
    current block is neither ``b`` nor their bucket's block ``bucket`` (one
    id per walk). ``blocks`` holds every walk's current block.
    """
    done = done_mask(task, csr, walks, keys)
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


class SlotLog:
    """The charges of one time slot that depend on bucket order.

    A slot's buckets step as one batch, so a walk of a later bucket may step
    before one of an earlier bucket has finished. What a bucket-at-a-time
    engine would charge in bucket order is therefore recorded as the batch
    runs: the walks entering each bucket (and, with ``vertices``, their
    vertices inside its ancillary block when that is not the current block
    ``b``, whose buckets load nothing), the pool-bound exits of each
    (bucket, local step), and, with ``vertices``, the current vertices each
    (bucket, local step) has in its ancillary block. :meth:`replay` makes
    them in bucket order, then local-step order, so every float counter is
    summed in the order a bucket-at-a-time run sums it. A walk's local step
    counts its steps since it entered its bucket; ``width`` bounds it, and
    its step key ``bucket·width + local step`` orders the charges.

    With ``vertices`` (a loader that may load on demand), the activations
    and touches are the raw material of one first-touch pass: the vertices
    a bucket's on-demand load pays for are the first touch of each, at its
    activation or at the first local step that reaches it.
    """

    def __init__(self, b: int, block_map: np.ndarray, width: int, vertices: bool) -> None:
        self.b = b
        self.bmap = block_map
        self.width = width
        self.vertices = vertices
        self._entered: list[np.ndarray] = []
        # (charge position, vertex) of each activation and each touch: a
        # touch at the step keyed k sits at k, and its bucket's activation at
        # the bucket's first key - 1, a key no step takes (local steps stay
        # below width - 1), so it sorts after every step of the bucket before.
        self._activated: list[tuple[np.ndarray, np.ndarray]] = []
        self._exits: list[np.ndarray] = []  # step key per pool-bound exit
        self._touched: list[tuple[np.ndarray, np.ndarray]] = []

    def enter(self, bucket: np.ndarray, walks: Walks) -> np.ndarray:
        """``walks`` enter buckets ``bucket`` at local step 0; returns their
        step keys. The log keeps ``bucket``, so the caller must not write
        into it afterwards."""
        self._entered.append(bucket)
        key = bucket * self.width
        if self.vertices:
            ancillary = bucket != self.b
            for v in (walks.prev, walks.cur):
                inside = ancillary & (self.bmap[v] == bucket)
                self._activated.append((key[inside] - 1, v[inside]))
        return key

    def touch(self, cur: np.ndarray, bucket: np.ndarray, key: np.ndarray) -> None:
        """Walks of ``bucket`` about to take the step keyed ``key`` from ``cur``."""
        inside = self.bmap[cur] == bucket
        self._touched.append((key[inside], cur[inside]))

    def exit(self, key: np.ndarray) -> None:
        """Walks that left their bucket for a pool on the steps keyed ``key``."""
        self._exits.append(key)

    def replay(self, sim: DiskSim, loader: BlockLoader) -> None:
        """Charge slot ``b``'s buckets in ascending id: each bucket's
        execution, its ancillary load (none for bucket ``b``), then per local
        step with exits or ancillary vertices, ascending, the on-demand
        fetches and the pool write, and last the close of the load."""
        b, w = self.b, self.width
        n_in = np.bincount(np.concatenate(self._entered))
        ids = np.flatnonzero(n_in)
        lo = int(ids[0]) * w  # every step key lies in [lo, (ids[-1] + 1)·w)
        n_out = np.bincount(
            np.concatenate([*self._exits, _NONE]) - lo, minlength=int(ids[-1]) * w + w - lo
        )
        sim.bucket_execs += len(ids)
        if self.vertices:
            self._replay_arrays(sim, loader, ids, n_in, n_out, lo)
            return
        # Full loads only: a short loop, cheaper than array calls for the
        # one or few buckets and exit steps most such slots have.
        steps = np.flatnonzero(n_out)
        cuts = [*np.searchsorted(steps, ids * w - lo).tolist(), len(steps)]
        n_out = n_out[steps].tolist()
        for j, i in enumerate(ids.tolist()):
            if i != b:  # bucket b needs no ancillary block
                loader.load(i, int(n_in[i]), _NONE)
            for k in range(cuts[j], cuts[j + 1]):
                sim.charge_walk_io(n_out[k])
            loader.finish()

    def _replay_arrays(
        self,
        sim: DiskSim,
        loader: BlockLoader,
        ids: np.ndarray,
        n_in: np.ndarray,
        n_out: np.ndarray,
        lo: int,
    ) -> None:
        """:meth:`replay` for a loader that may load on demand, one array
        call per clock. Each clock is a sum of its own (only block seeks
        carry state, chained in bucket order), so charging each clock's run
        in order gives the counters of the bucket-by-bucket charges; the
        ``LoadLogs`` times are read off the clocks' prefix values."""
        b, w, store = self.b, self.width, loader.store
        anc = ids[ids != b]  # the buckets whose ancillary block the replay loads
        eta, full = loader.full_loads(anc, n_in[anc])
        if loader.shadow is not None:  # a full-load run loads every ancillary block
            loader.shadow_loads(anc, eta)
        block_clock = sim.charge_block_loads(anc[full], store.block_bytes_of(anc[full]))
        on_demand = np.zeros(store.n_blocks, dtype=bool)
        on_demand[anc[~full]] = True
        # First-order's current block b was loaded on demand as the slot
        # started. Its fetched vertices take bucket b's activation position,
        # which no bi-block activation uses, and are charged nothing.
        on_demand[b] = seeded = loader.partial
        seed = loader.fetched() if seeded else _NONE
        entries = [*self._activated, *self._touched]
        vs = np.concatenate([seed, *(v for _, v in entries)])
        pos = np.concatenate([np.full(len(seed), b * w - 1), *(p for p, _ in entries)])
        keep = on_demand[self.bmap[vs]]
        # The first touch of each vertex: a vertex lies in one block, so only
        # that block's bucket fetches it, at its earliest position. Positions
        # are taken relative to the slot's first, lo - 1.
        span = len(n_out)
        v, rel = np.divmod(np.sort(vs[keep] * span + (pos[keep] - (lo - 1))), span)
        new = np.empty(len(v), dtype=bool)
        new[:1] = True
        np.not_equal(v[1:], v[:-1], out=new[1:])
        new &= rel != b * w - lo  # the seed
        v, rel = v[new], rel[new]
        n = np.bincount(rel, minlength=span)
        at = np.flatnonzero(n)
        # float64 sums of whole byte counts: exact while below 2**53.
        nbytes = np.bincount(rel, weights=store.seg_bytes[v], minlength=span)[at]
        od_clock = sim.charge_vertex_fetches(n[at], nbytes, kind="ondemand")
        sim.charge_walk_ios(n_out[n_out > 0])
        if loader.logs is not None and len(anc):
            nb = np.cumsum(full)  # block loads up to and including each bucket
            o0, o1 = np.searchsorted(at, [anc * w - lo, anc * w + w - lo])
            t = (block_clock[nb] + od_clock[o1]) - (block_clock[nb - full] + od_clock[o0])
            modes = np.where(full, FULL, ONDEMAND)
            loader.logs.extend(anc.tolist(), eta.tolist(), t.tolist(), modes.tolist())
        loader.finish()  # closes a load made as the slot started


class EnginePolicy:
    """The choices that tell one engine from another (paper §4, §7.3).

    The defaults are the plainest engine: walks pooled with their current
    block, which is fully loaded; one bucket per slot; no per-step reads;
    exits pooled with their new current block. ``loader`` brings in the
    current block and each bucket's ancillary block (by default fully); the
    replay of every slot's :class:`SlotLog` drives the latter. Engines
    override the hooks they change;
    :func:`run_engine` calls them in a fixed order.
    """

    def __init__(
        self, store: BlockStore, sim: DiskSim, loader: BlockLoader | None = None
    ) -> None:
        self.store = store
        self.sim = sim
        self.bmap = store.block_map
        self.loader = BlockLoader(store, sim) if loader is None else loader

    def pool_of(self, walks: Walks) -> np.ndarray:
        """Pool (block id) each walk is stored in: its current block."""
        return self.bmap[walks.cur]

    def load_current(self, b: int, walks: Walks) -> None:
        """Bring current block ``b`` in for its pooled ``walks``, which may be
        empty when the scheduler picks a walk-less block."""
        self.loader.load_whole(b)

    def bucket_of(self, b: int, walks: Walks) -> np.ndarray:
        """Bucket of each walk of slot ``b``: the ancillary block it runs
        with (``b``: the current block alone, the default for every walk)."""
        return np.full(len(walks), b, dtype=np.int64)

    def before_step(self, active: Walks, b: int, bucket: np.ndarray) -> None:
        """Charge the reads that make this step's vertices resident, as they
        happen; ``bucket`` holds each active walk's bucket."""

    def extends(
        self, walks: Walks, curb: np.ndarray, b: int, bucket: np.ndarray
    ) -> np.ndarray | bool:
        """Mask of walks that, on leaving their bucket, move on to bucket
        ``curb`` within this slot instead of a pool (False: none do)."""
        return False


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
    its local step starting again at 0. At slot end the :class:`SlotLog`
    replays the bucket-order charges. Counters go to ``policy.sim``.
    """
    csr, bmap, sim = store.csr, store.block_map, policy.sim
    sched = make_scheduler(sched) if isinstance(sched, str) else sched
    sched.reset()
    pools = WalkPools(sim, store.n_blocks)
    draws = draw_keys(task, starts)  # one premix per walk and salt, not per draw
    _, live = split_done(task, csr, starts, draws)
    pools.add_grouped(policy.pool_of(live), live)
    width = task.max_len + 1  # local steps per bucket are < max_len
    vertices = policy.loader.mode != FULL  # an on-demand replay needs them

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
        log = SlotLog(b, bmap, width, vertices)
        key = log.enter(bucket, active)  # each walk's next step, keyed for the log
        while len(active):
            policy.before_step(active, b, bucket)
            if vertices:
                log.touch(active.cur, bucket, key)
            t0 = time.perf_counter()
            advance(csr, task, active, rec, draws)
            sim.steps += len(active)
            sim.exec_real_s += time.perf_counter() - t0
            done, out, curb = split_step(task, csr, bmap, active, b, bucket, draws)
            if out.any():
                ext = policy.extends(active, curb, b, bucket) & out
                if ext.any():
                    # A fresh bucket array, as the log keeps the old one.
                    bucket = np.where(ext, curb, bucket)
                    # - 1: this step's += 1 makes it the new bucket's step 0.
                    key[ext] = log.enter(bucket[ext], active.select(ext)) - 1
                    out &= ~ext
                leaving = active.select(out)
                pools.put(policy.pool_of(leaving), leaving)
                log.exit(key[out])
            keep = ~(done | out)
            if not keep.all():
                active = active.select(keep)
                bucket, key = bucket[keep], key[keep]
            key += 1
        log.replay(sim, policy.loader)
    return EngineResult(name=name, sim=sim, recorder=rec)
