"""Shared engine machinery: two walk producers, one charge layer, walk
pools, block slots.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). Walks between slots live in
:class:`WalkPools`, the paper's on-disk pools, charged as sequential walk I/O.

Under Iteration-based scheduling a policy that charges nothing live
(bi-block, GraSorw-FO, PB under Iteration) is run by :func:`walk_sweeps`:
one hop-synchronous pass over every live walk, as the reference walker
makes. Draws are keyed by (walk, hop), so each walk's sweep, slot, bucket
and local step follow from its own blocks; the pass records per key what a
block-by-block run charges (:class:`SweepLog`), and :func:`charge_slots`
charges all its slots at once. Every other run (the state-aware schedulers,
Alphabet, and SOGW and SGSC, whose reads are charged live) is
:func:`run_engine`'s one-slot loop, which charges the rest of each slot
from its :class:`SlotLog`. Either way the charges are a slot-at-a-time,
bucket-at-a-time engine's, and every on-demand fetch, first-order's current
block included, comes from the records. ``tests/sequential_oracle.py``
stays the executable spec of that block-by-block execution.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.loading import FULL, ONDEMAND, BlockLoader
from repro.engines.scheduling import IterationScheduler, Scheduler, make_scheduler
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
    b: np.ndarray | int,
    bucket: np.ndarray,
    keys: dict | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masks of a batch right after ``advance``: (done, out, blocks).

    ``done`` marks finished walks (``keys`` as for
    :func:`~repro.walks.models.done_mask`). ``out`` marks live walks whose
    current block is neither their slot's ``b`` nor their bucket's block
    ``bucket``. ``blocks`` holds every walk's current block.
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


def _enter_marks(log, bucket: np.ndarray, own, key: np.ndarray, walks: Walks) -> None:
    """Walks entering buckets ``bucket`` of slots ``own`` at step keys
    ``key``: the activation marks of an ancillary bucket, at the key before
    its first step, for their vertices inside its block. A slot's own
    bucket needs none, even when loaded on demand: its activated vertices
    are its walks' current vertices, which its first local step touches."""
    ancillary = bucket != own
    for v in (walks.prev, walks.cur):
        inside = ancillary & (log.bmap[v] == bucket)
        log.marks.append((key[inside] - 1, v[inside]))


def _touch_marks(log, cur: np.ndarray, own, bucket: np.ndarray, key: np.ndarray) -> None:
    """Walks of buckets ``bucket`` of slots ``own`` about to take the step
    keyed ``key`` from ``cur``: a mark for each ``cur`` inside the bucket's
    block (outside a slot's own bucket unless ``log.current``)."""
    inside = log.bmap[cur] == bucket
    if not log.current:
        inside &= bucket != own
    log.marks.append((key[inside], cur[inside]))


def _concat(chunks: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """(keys, vertices) of a list of such chunks, as two arrays."""
    if not chunks:
        return _NONE, _NONE
    return tuple(np.concatenate(c) for c in zip(*chunks))  # type: ignore[return-value]


def _tally(keys: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys of ``keys``, ascending, and how often each occurs."""
    n = np.bincount(np.concatenate([_NONE, *keys], dtype=np.int64))
    at = np.flatnonzero(n)
    return at, n[at]


class SlotLog:
    """The bucket-order charges of one time slot of :func:`run_engine`.

    A slot's buckets step as one batch, so what a bucket-at-a-time engine
    charges is recorded as the batch runs: the walks entering each bucket
    and the pool-bound exits of each step key (bucket ``i``'s keys are
    ``i·width`` plus the local step, the steps since the walk entered it).
    With ``vertices`` (a loader that may load on demand) it also keeps the
    (position, vertex) marks of each activation and touch of an ancillary
    block, the first-touch pass's input; with ``current`` (the loader
    loads current block ``b`` too: first-order) the touches of bucket ``b``
    too.
    """

    def __init__(self, b: int, block_map: np.ndarray, width: int, vertices: bool,
                 n_blocks: int, current: bool) -> None:
        self.b = b
        self.bmap = block_map
        self.width = width
        self.vertices = vertices
        self.current = current
        self.n_blocks = n_blocks
        self._entered: list[np.ndarray] = []
        self._exits: list[np.ndarray] = []
        self.marks: list[tuple[np.ndarray, np.ndarray]] = []

    def enter(self, bucket: np.ndarray, walks: Walks) -> np.ndarray:
        """``walks`` enter buckets ``bucket`` at local step 0; returns their
        step keys."""
        self._entered.append(bucket)
        key = bucket * self.width
        if self.vertices:
            _enter_marks(self, bucket, self.b, key, walks)
        return key

    def touch(self, cur: np.ndarray, bucket: np.ndarray, key: np.ndarray) -> None:
        """Walks of ``bucket`` about to take the step keyed ``key`` from ``cur``."""
        _touch_marks(self, cur, self.b, bucket, key)

    def exit(self, key: np.ndarray) -> None:
        """Walks that left their bucket for a pool on the steps keyed
        ``key``. The log keeps ``key``, so the caller must not write into it
        afterwards."""
        self._exits.append(key)

    def replay(self, sim: DiskSim, loader: BlockLoader) -> None:
        """Charge the slot's buckets, whose pool read and current block the
        one-slot loop charged live. Call it once no walk of the slot is
        left in the batch. With a loader that may load on demand the slot
        is :func:`charge_slots`' one slot. A full-load slot replays in a
        short loop, cheaper than array calls for the one or few buckets and
        exit steps most such slots have: buckets in ascending id, each with
        its execution, its block load (none for bucket ``b`` unless
        ``current``), its pool writes by ascending local step, and the close
        of the load."""
        n_in = np.bincount(np.concatenate(self._entered), minlength=self.n_blocks)
        steps, n_out = _tally(self._exits)
        if loader.mode != FULL:
            charge_slots(sim, loader, self.width, np.array([self.b]), _NONE, n_in, steps, n_out,
                         *_concat(self.marks), self.current)
            return
        ids = np.flatnonzero(n_in)
        sim.bucket_execs += len(ids)
        cuts = [*np.searchsorted(steps, ids * self.width).tolist(), len(steps)]
        n_out = n_out.tolist()
        for j, i in enumerate(ids.tolist()):
            if i != self.b or self.current:
                loader.load(i, int(n_in[i]), _NONE)
            for k in range(cuts[j], cuts[j + 1]):
                sim.charge_walk_io(n_out[k])
            loader.finish()


def _merge(k0: np.ndarray, v0: np.ndarray, k1: np.ndarray, v1: np.ndarray) -> tuple:
    """(keys, values) of two runs of distinct ascending keys ``k0``, ``k1``
    with their values, merged in key order."""
    if not len(k0):
        return k1, v1
    order = np.argsort(np.concatenate((k0, k1)), kind="stable")
    return np.concatenate((k0, k1))[order], np.concatenate((v0, v1))[order]


def charge_slots(sim: DiskSim, loader: BlockLoader, w: int, blocks: np.ndarray,
                 reads: np.ndarray, n_in: np.ndarray, keys: np.ndarray, n_out: np.ndarray,
                 pos: np.ndarray, vs: np.ndarray, current: bool) -> None:
    """Charge recorded time slots ``0, 1, ...`` as a slot-at-a-time,
    bucket-at-a-time engine does, one array call per ``DiskSim`` clock.
    Slot ``s`` reads ``reads[s]`` walks from its pool and, if any, loads
    current block ``blocks[s]`` whole unless ``current`` (then ``loader``
    loads it as bucket ``blocks[s]``). Bucket ``i`` of slot ``s`` (id
    ``s·N_B + i``, step keys ``id·w`` + local step) follows in ascending id
    with ``n_in[id]`` walks: its load through ``loader``, then per local
    step its on-demand fetches and pool write. ``keys`` holds the step keys
    with exits, ascending, and ``n_out`` their exits; ``pos`` and ``vs``
    the (step key, vertex) marks of activations (one key before a bucket's
    first) and touches. Each clock is a sum of its own, and only block
    loads carry state from one charge to the next, so each clock's run in
    that order gives the counters of the charges made one by one; the
    ``LoadLogs`` times are read off the clocks' prefix values."""
    store, nb = loader.store, loader.store.n_blocks
    span = nb * w  # step keys per slot
    sid, bid = np.flatnonzero(reads), np.flatnonzero(n_in)
    sim.time_slots += len(sid)
    sim.bucket_execs += len(bid)
    anc = bid if current else bid[bid % nb != blocks[bid // nb]]
    eta, full = loader.full_loads(anc % nb, n_in[anc])
    # Block clock: each slot's current block (key 2·s·N_B), then its fully
    # loaded buckets (key 2·id + 1).
    cur, loaded = _NONE if current else sid, anc[full]
    bkey, blk = _merge(cur * 2 * nb, blocks[cur], loaded * 2 + 1, loaded % nb)
    block_clock = sim.charge_block_loads(blk, store.block_bytes_of(blk))
    # Walk clock: each slot's pool read (key 2·s·N_B·w), then its exits
    # (key 2·step key + 1).
    sim.charge_walk_ios(_merge(sid * 2 * span, reads[sid], keys * 2 + 1, n_out)[1])
    # On-demand clock: a vertex lies in one block, so in each slot only that
    # block's bucket fetches it, at its first touch. Positions run from -1
    # (bucket 0's activation), so shifted by one bucket id's run from id·w.
    on_demand = np.zeros(len(n_in), dtype=bool)
    on_demand[anc[~full]] = True
    pos = pos + 1
    keep = on_demand[pos // w]
    top = len(n_in) * w  # one past the last position
    key = np.sort(vs[keep] * top + pos[keep])
    group = key // span  # vertex·slots + slot
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(group[1:], group[:-1], out=first[1:])
    v, rel = np.divmod(key[first], top)
    n = np.bincount(rel)
    at = np.flatnonzero(n)
    # float64 sums of whole byte counts: exact while below 2**53.
    nbytes = np.bincount(rel, weights=store.seg_bytes[v])[at]
    od_clock = sim.charge_vertex_fetches(n[at], nbytes, kind="ondemand")
    if loader.logs is not None and len(anc):
        k = np.searchsorted(bkey, anc * 2 + 1) + full  # block loads up to and with each
        o0, o1 = np.searchsorted(at, [anc * w, anc * w + w])
        t = (block_clock[k] + od_clock[o1]) - (block_clock[k - full] + od_clock[o0])
        modes = np.where(full, FULL, ONDEMAND)
        loader.logs.extend((anc % nb).tolist(), eta.tolist(), t.tolist(), modes.tolist())


def _add_counts(counts: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``counts`` (indexed by key, grown as needed) plus one per key."""
    n = np.bincount(keys)
    if len(n) > len(counts):
        n[: len(counts)] += counts
        return n
    counts[: len(n)] += n
    return counts


class SweepLog:
    """The records of a :func:`walk_sweeps` pass.

    The slot of block ``c`` in sweep ``k`` (the paper's iteration) has the
    id ``k·N_B + c``, so ids ascend in the order the scheduler runs slots.
    Bucket ``i`` of slot ``s`` has the id ``s·N_B + i`` and the step keys
    ``id·width + local step``. The log counts each slot's pool reads and
    each bucket's entries hop by hop, and keeps the step key of each
    pool-bound exit and :class:`SlotLog`'s marks at these keys.
    """

    def __init__(self, block_map: np.ndarray, n_blocks: int, width: int,
                 vertices: bool, current: bool) -> None:
        self.bmap = block_map
        self.nb = n_blocks
        self.width = width
        self.vertices = vertices
        self.current = current
        self.filled = 0  # walks of the initial pool fill
        self.reads = self.n_in = _NONE  # by slot id, by bucket id
        self._exits: list[np.ndarray] = []
        self.marks: list[tuple[np.ndarray, np.ndarray]] = []
        # Every sweep steps each live walk, so a pass of width - 1 hops has
        # fewer than width sweeps and its step keys stay below top. The
        # charge packs each mark's vertex with its position into one int64.
        top = width * n_blocks * n_blocks * width
        if top * len(block_map) > np.iinfo(np.int64).max:
            raise OverflowError(f"{n_blocks} blocks, {width - 1} hops: step keys overflow int64")
        self._key_dtype = np.min_scalar_type(top)

    def enter(self, sid: np.ndarray, bucket: np.ndarray, walks: Walks,
              pooled: np.ndarray | bool) -> np.ndarray:
        """``walks`` enter buckets ``bucket`` of slots ``sid`` at local step
        0, those ``pooled`` from the slot's pool; returns their step keys."""
        self.reads = _add_counts(self.reads, sid[pooled])
        bid = sid * self.nb + bucket
        self.n_in = _add_counts(self.n_in, bid)
        key = bid * self.width
        if self.vertices:
            _enter_marks(self, bucket, sid % self.nb, key, walks)
        return key

    def exit(self, key: np.ndarray) -> None:
        """Walks that left their bucket for a pool on the steps keyed
        ``key``, kept in the narrowest type that holds every key."""
        self._exits.append(key.astype(self._key_dtype))

    def charge(self, policy: EnginePolicy) -> None:
        """Make every recorded charge on ``policy.sim``: the initial pool
        fill, then every slot in slot-id order (:func:`charge_slots` through
        ``policy.loader``). A log may be charged more than once."""
        policy.sim.charge_walk_io(self.filled)
        n_in = np.zeros(len(self.reads) * self.nb, dtype=np.int64)
        n_in[: len(self.n_in)] = self.n_in
        charge_slots(policy.sim, policy.loader, self.width, np.arange(len(self.reads)) % self.nb,
                     self.reads, n_in, *_tally(self._exits), *_concat(self.marks), self.current)


class EnginePolicy:
    """The choices that tell one engine from another (paper §4, §7.3).

    The defaults are the plainest engine: walks pooled with their current
    block, which is fully loaded; one bucket per slot; no per-step reads.
    ``loader`` brings in the blocks a slot's charge loads, each bucket's
    ancillary and with ``loads_current`` the current block (by default
    fully). Both producers share ``pool_of`` and ``bucket_of``, which see
    block ids, and call ``before_step`` before each step; ``load_current``
    runs only as a slot of :func:`run_engine`'s one-slot loop starts.
    """

    #: True for a policy whose ``before_step`` charges reads as the steps
    #: run, against state that each slot's ``load_current`` sets (SOGW's LRU
    #: block slots): its slots must step one at a time, even under Iteration.
    charges_live = False
    #: True for a policy whose ``loader`` also loads each slot's current
    #: block, as bucket ``b`` of the slot's record, by the loading method
    #: (first-order); ``load_current`` then loads only a walk-less block,
    #: and a pass's charge loads no other current block.
    loads_current = False

    def __init__(
        self, store: BlockStore, sim: DiskSim, loader: BlockLoader | None = None
    ) -> None:
        self.store = store
        self.sim = sim
        self.bmap = store.block_map
        self.loader = BlockLoader(store, sim) if loader is None else loader

    def pool_of(self, prevb: np.ndarray, curb: np.ndarray) -> np.ndarray:
        """Pool (block id) of each walk whose previous and current vertices
        lie in blocks ``prevb`` (-1: none yet) and ``curb``: its current
        block."""
        return curb

    def bucket_of(self, b: np.ndarray | int, prevb: np.ndarray, curb: np.ndarray) -> np.ndarray:
        """Bucket of each walk entering slot ``b`` (one block per walk, or
        one for all) from blocks ``prevb`` and ``curb``: the ancillary block
        it runs with (``b``: the current block alone, the default)."""
        return np.full(len(curb), b, dtype=np.int64)

    def load_current(self, b: int, n: int) -> None:
        """Bring current block ``b`` in for the ``n`` walks its slot reads
        from its pool (none when Alphabet picks a walk-less block)."""
        self.loader.load_whole(b)

    def before_step(self, active: Walks, b: np.ndarray | int, bucket: np.ndarray) -> None:
        """Charge the reads that make this step's vertices resident, as they
        happen; ``b`` is the slot's current block (each walk's, in a
        :func:`walk_sweeps` hop) and ``bucket`` holds each walk's bucket."""


def route(policy: EnginePolicy, prevb, curb, slot, bucket) -> tuple:
    """Algorithm 2 for walks that just stepped from block ``prevb`` to
    ``curb`` out of slot ``slot`` and bucket ``bucket``: (pool, next bucket,
    extends). A walk whose pool is its own slot moves on to its bucket there
    if that runs later in the slot (line 14: a bi-block walk with its
    previous vertex in the slot and its new block above the bucket)."""
    pool = policy.pool_of(prevb, curb)
    nxt = policy.bucket_of(pool, prevb, curb)
    return pool, nxt, (pool == slot) & (nxt > bucket)


def _move(log: SweepLog, policy: EnginePolicy, active: Walks, out: np.ndarray,
          curb: np.ndarray, slot: np.ndarray, bucket: np.ndarray, key: np.ndarray) -> None:
    """Rows ``out`` of ``active`` just stepped into blocks ``curb`` out of
    their slot and bucket: route them (:func:`route`), record their exits
    and entries, and set their slot, bucket and step key in place (the key
    one below its first step, as the hop adds one)."""
    nb = log.nb
    old = slot[out]
    prevb = log.bmap[active.prev[out]]
    pool, nxt, ext = route(policy, prevb, curb[out], old, bucket[out])
    log.exit(key[out[~ext]])
    pool[ext] = old[ext]  # an extended walk keeps its slot
    # A pooled walk enters its pool's slot, in the next sweep unless that is above its slot.
    sid = key[out] // (nb * log.width) + pool - old + nb * ((pool <= old) & ~ext)
    slot[out], bucket[out] = pool, nxt
    walks = active.select(out) if log.vertices else None
    key[out] = log.enter(sid, nxt, walks, ~ext) - 1


def walk_sweeps(store: BlockStore, task: WalkTask, starts: Walks, policy: EnginePolicy,
                rec: Recorder | None) -> SweepLog:
    """Run ``task`` from ``starts`` under Iteration-based scheduling, one
    hop at a time over every live walk; return its records (with on-demand
    marks if ``policy.loader`` may load on demand). Steps and sampler time
    go to ``policy.sim``.

    Each walk carries its slot, its bucket and its step key, which also
    holds its slot id (so its sweep) and its local step. It stays while its
    new block is its slot's or its bucket's; otherwise :func:`route` extends
    it to a new bucket, or it enters the slot of its pool: in the same sweep
    if that block is above its slot, in the next one otherwise.
    """
    csr, bmap, nb, sim = store.csr, store.block_map, store.n_blocks, policy.sim
    vertices = policy.loader.mode != FULL  # an on-demand replay needs them
    draws = draw_keys(task, starts)  # one premix per walk and salt, not per draw
    _, active = split_done(task, csr, starts, draws)
    log = SweepLog(bmap, nb, task.max_len + 1, vertices, policy.loads_current)
    log.filled = len(active)
    prevb, curb = bmap[active.prev], bmap[active.cur]
    slot = policy.pool_of(prevb, curb).copy()  # sweep 0: the slot id is the slot
    bucket = policy.bucket_of(slot, prevb, curb)
    key = log.enter(slot, bucket, active, np.ones(len(slot), dtype=bool))
    while len(active):
        policy.before_step(active, slot, bucket)
        if vertices:
            _touch_marks(log, active.cur, slot, bucket, key)
        t0 = time.perf_counter()
        advance(csr, task, active, rec, draws)
        sim.steps += len(active)
        sim.exec_real_s += time.perf_counter() - t0
        done, out, curb = split_step(task, csr, bmap, active, slot, bucket, draws)
        if out.any():
            _move(log, policy, active, np.flatnonzero(out), curb, slot, bucket, key)
        if done.any():
            keep = ~done
            active = active.select(keep)
            slot, bucket, key = slot[keep], bucket[keep], key[keep]
        key += 1
    return log


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

    Under :class:`IterationScheduler`, a policy that charges nothing live is
    run by :func:`walk_sweeps` and charged from its records. Otherwise each
    time slot reads the pool the scheduler picks and steps all of its walks
    in lock step; a walk leaves the batch when it finishes or its current
    vertex leaves block ``b`` and its bucket's block, and goes to its pool.
    The slot is then charged from its :class:`SlotLog`. Counters go to
    ``policy.sim``.
    """
    csr, bmap, sim = store.csr, store.block_map, policy.sim
    sched = make_scheduler(sched) if isinstance(sched, str) else sched
    if isinstance(sched, IterationScheduler) and not policy.charges_live:
        walk_sweeps(store, task, starts, policy, rec).charge(policy)
        return EngineResult(name=name, sim=sim, recorder=rec)
    vertices = policy.loader.mode != FULL  # an on-demand replay needs them
    sched.reset()
    pools = WalkPools(sim, store.n_blocks)
    draws = draw_keys(task, starts)  # one premix per walk and salt, not per draw
    _, live = split_done(task, csr, starts, draws)
    pools.add_grouped(policy.pool_of(bmap[live.prev], bmap[live.cur]), live)
    del live  # the pools own it
    width = task.max_len + 1  # local steps per bucket are < max_len
    while pools.total():
        b = sched.pick(pools)
        if b is None:
            break
        active = pools.pop(b)
        log = SlotLog(b, bmap, width, vertices, store.n_blocks, policy.loads_current)
        bucket = policy.bucket_of(b, bmap[active.prev], bmap[active.cur])
        key = log.enter(bucket, active)  # each walk's next step, keyed for the log
        policy.load_current(b, len(active))
        sim.time_slots += 1
        if not len(active):
            continue  # a walk-less block that Alphabet picks
        while len(active):
            policy.before_step(active, b, bucket)
            if vertices:
                log.touch(active.cur, bucket, key)
            t0 = time.perf_counter()
            advance(csr, task, active, rec, draws)
            sim.steps += len(active)
            sim.exec_real_s += time.perf_counter() - t0
            done, out, _ = split_step(task, csr, bmap, active, b, bucket, draws)
            if out.any():
                log.exit(key[out])
                leaving = active.select(out)
                pools.put(policy.pool_of(bmap[leaving.prev], bmap[leaving.cur]), leaving)
            keep = ~(done | out)
            if not keep.all():
                active = active.select(keep)
                bucket, key = bucket[keep], key[keep]
            key += 1
        log.replay(sim, policy.loader)
    return EngineResult(name=name, sim=sim, recorder=rec)
