"""Shared engine machinery: the engine loop, walk pools, block slots.

Engines are driver-side schedulers over the :class:`~repro.disk.store.BlockStore`
(the disk image built by Spark jobs). All state an engine keeps beyond the
two in-memory blocks lives in :class:`WalkPools` — the on-disk walk pools of
the paper (one per block) — and every pool load/persist is charged to the
I/O simulator as sequential walk I/O.

Every engine is the one loop of :func:`run_engine` — name a sweep of time
slots, load their pools, step all of their walks as one batch, each walk
until it leaves its slot's current block and its bucket's ancillary block,
route the exits — under an :class:`EnginePolicy` that sets the choices the
engines differ in. Under Iteration-based scheduling a sweep is the paper's
iteration: the ascending run of current blocks between two wraps, whose
later slots take the walks that its earlier ones send up. Under any other
scheduler, and for SOGW and SGSC, whose reads are charged live, a sweep is
one slot. A slot of one bucket (SOGW, SGSC, first-order) is the same
protocol with bucket ``b`` alone. The charges that depend on slot and
bucket order are recorded in a :class:`SlotLog` while the batch runs and
replayed slot by slot, in bucket order, as a slot-at-a-time engine makes
them: a full-load slot in a short loop, a slot that may load on demand from
arrays, one call per clock.
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
        out = self.take(b)
        self._sim.charge_walk_io(len(out))
        return out

    def take(self, b: int) -> Walks:
        """:meth:`pop` without the charge, for a caller that charges the
        read itself."""
        out = Walks.concat(self._pools.pop(b))
        self.counts[b] = 0
        return out

    def take_all(self) -> tuple[Walks, np.ndarray]:
        """Clear every pool without charging the reads: their walks as one
        fresh table, pool after pool in ascending id, and each walk's pool
        (in the pool ids' narrow type)."""
        self.counts[:] = 0
        return self._pools.pop_all()

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
    """The charges of a sweep's time slots that depend on bucket order.

    A sweep's buckets step as one batch, so a walk of a later bucket, or of
    a later slot, may step before one of an earlier bucket has finished.
    What a slot-at-a-time, bucket-at-a-time engine would charge is therefore
    recorded as the batch runs: the walks entering each bucket (and, with
    ``vertices``, their vertices inside its ancillary block when that is not
    the slot's current block, whose buckets load nothing), the pool-bound
    exits of each (bucket, local step), and, with ``vertices``, the current
    vertices each (bucket, local step) has in its ancillary block.
    :meth:`replay` makes one slot's charges in bucket order, then local-step
    order, so every float counter is summed in the order a bucket-at-a-time
    run sums it. A walk's local step counts its steps since it entered its
    bucket; ``width`` bounds it.

    The log's first slot is ``b``, and a walk may enter any slot ``c >= b``
    of the sweep. Keys are slot-qualified: bucket ``i`` of slot ``c`` has
    the id ``(c - b)·N_B + i``, and its step keys start at that id times
    ``width``, so each slot's keys fill one range of ``N_B·width`` and order
    its charges. The log counts the entries per bucket id and the exits per
    step key as they come. With ``vertices`` (a loader that may load on
    demand), it keeps each activation and each touch as a (charge position,
    vertex) mark, the raw material of one first-touch pass: the vertices a
    bucket's on-demand load pays for are the first touch of each, at its
    activation or at the first local step that reaches it. With
    ``current`` (a policy that may load a slot's current block on demand,
    first-order), it also marks the touches of each slot's own bucket and
    keeps the current vertex of each walk entering it, what that load
    activates (:meth:`arrivals`). Marks and arrivals are grouped by slot
    when a slot is read, and a replayed slot's are freed.
    """

    def __init__(
        self,
        b: int,
        block_map: np.ndarray,
        width: int,
        vertices: bool,
        n_blocks: int | None = None,
        current: bool = True,
    ) -> None:
        self.b = b
        self.bmap = block_map
        self.width = width
        self.vertices = vertices
        self.current = current
        self.n_blocks = int(block_map.max()) + 1 if n_blocks is None else n_blocks
        self.stride = self.n_blocks * width  # the step keys of one slot
        self.dtype = np.int32 if self.n_blocks * self.stride < 2**31 else np.int64
        self._last = 0  # the highest slot a walk entered, less b
        # Entries per bucket id and pool-bound exits per step key, counted
        # from the staged ids and keys whenever a slot is read.
        self._n_in = self._n_out = _NONE
        self._entered: list[np.ndarray] = []
        self._exits: list[np.ndarray] = []
        # Marks and arrivals as (key, vertex) chunks, staged as they come,
        # then grouped by slot (less b). A touch at the step keyed k sits at
        # k, and its bucket's activation at the bucket's first key - 1, a
        # key no step takes (local steps stay below width - 1), so it sorts
        # after every step of the bucket before. An arrival is keyed by its
        # bucket id.
        self._marks: list[tuple[np.ndarray, np.ndarray]] = []
        self._arrivals: list[tuple[np.ndarray, np.ndarray]] = []
        self._slots: dict[int, tuple[list, list]] = {}

    def enter(
        self, bucket: np.ndarray, walks: Walks, slot: np.ndarray | None = None
    ) -> np.ndarray:
        """``walks`` enter buckets ``bucket`` of slots ``slot`` (one block
        per walk; ``b`` when None) at local step 0; returns their step keys."""
        if slot is None:
            own, q = self.b, bucket.astype(self.dtype)
        else:
            own, off = slot, np.subtract(slot, self.b, dtype=self.dtype)
            self._last = max(self._last, int(off.max(initial=0)))
            q = (off * self.n_blocks + bucket).astype(self.dtype)
        self._entered.append(q)
        key = q * self.width
        if self.vertices:
            mine = bucket == own
            if self.current:
                self._arrivals.append((q[mine], walks.cur[mine]))
            for v in (walks.prev, walks.cur):
                inside = ~mine & (self.bmap[v] == bucket)
                self._marks.append((key[inside] - 1, v[inside]))
        return key

    def touch(
        self,
        cur: np.ndarray,
        bucket: np.ndarray,
        key: np.ndarray,
        slot: np.ndarray | int | None = None,
    ) -> None:
        """Walks of ``bucket`` of slots ``slot`` (as for :meth:`enter`) about
        to take the step keyed ``key`` from ``cur``."""
        inside = self.bmap[cur] == bucket
        if not self.current:
            inside &= bucket != (self.b if slot is None else slot)
        self._marks.append((key[inside], cur[inside]))

    def exit(self, key: np.ndarray) -> None:
        """Walks that left their bucket for a pool on the steps keyed
        ``key``. The log keeps ``key``, so the caller must not write into it
        afterwards."""
        self._exits.append(key)

    def _group(self, off: int) -> tuple[list, list]:
        """Slot ``b + off``'s (marks, arrivals), each a list of (key,
        vertex) chunks. While no walk has entered a later slot, every record
        is the first slot's, so nothing needs grouping."""
        if not self._last:
            return self._marks, self._arrivals
        for i, chunks in enumerate((self._marks, self._arrivals)):
            if not chunks:
                continue
            key, v = (np.concatenate(c) for c in zip(*chunks))
            chunks.clear()
            if not len(key):
                continue
            # + 1: an activation's position may lie just below its slot's range.
            unit = self.stride if i == 0 else self.n_blocks
            for o, piece in _split_by_slot((key + (i == 0)) // unit, [key, v]):
                self._slots.setdefault(o, ([], []))[i].append(piece)
        return self._slots.setdefault(off, ([], []))

    def arrivals(self, c: int) -> np.ndarray:
        """Current vertices of the walks that entered slot ``c``'s own
        bucket (none without ``vertices``). Call it once every walk of the
        slot has entered; it frees them."""
        if not self.vertices:
            return _NONE
        chunks = self._group(c - self.b)[1]
        out = np.concatenate([v for _, v in chunks]) if chunks else _NONE
        chunks.clear()
        return out

    def replay(self, sim: DiskSim, loader: BlockLoader, slot: int | None = None) -> None:
        """Charge slot ``slot``'s (``b`` when None) buckets in ascending id:
        each bucket's execution, its ancillary load (none for bucket
        ``slot``), then per local step with exits or ancillary vertices,
        ascending, the on-demand fetches and the pool write, and last the
        close of the load. Call it once no walk of the slot is left in the
        batch; it frees the slot's marks."""
        b = self.b if slot is None else slot
        off = b - self.b
        w, base = self.width, off * self.stride
        self._n_in = _add_counts(self._n_in, self._entered)
        self._n_out = _add_counts(self._n_out, self._exits)
        n_in = _window(self._n_in, off * self.n_blocks, self.n_blocks)
        ids = np.flatnonzero(n_in)
        lo = int(ids[0]) * w  # every step key lies in [lo, (ids[-1] + 1)·w)
        n_out = _window(self._n_out, base + lo, int(ids[-1]) * w + w - lo)
        sim.bucket_execs += len(ids)
        if self.vertices:
            marks, _ = self._group(off)
            self._slots.pop(off, None)
            pos, vs = (np.concatenate(c) for c in zip(*marks)) if marks else (_NONE, _NONE)
            marks.clear()
            self._replay_arrays(sim, loader, b, ids, n_in, n_out, lo, pos - base, vs)
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
        b: int,
        ids: np.ndarray,
        n_in: np.ndarray,
        n_out: np.ndarray,
        lo: int,
        pos: np.ndarray,
        vs: np.ndarray,
    ) -> None:
        """:meth:`replay` of slot ``b`` for a loader that may load on demand,
        one array call per clock; ``pos`` and ``vs`` are the slot's marks.
        Each clock is a sum of its own (only block seeks carry state, chained
        in bucket order), so charging each clock's run in order gives the
        counters of the bucket-by-bucket charges; the ``LoadLogs`` times are
        read off the clocks' prefix values."""
        w, store = self.width, loader.store
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
        vs = np.concatenate([seed, vs])
        pos = np.concatenate([np.full(len(seed), b * w - 1), pos])
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
        loader.finish()  # closes a load made as the slot opened


def _add_counts(counts: np.ndarray, chunks: list[np.ndarray]) -> np.ndarray:
    """``counts`` (indexed by key, grown as needed) plus one per key in
    ``chunks``, which it empties."""
    if not chunks:
        return counts
    n = np.bincount(np.concatenate(chunks) if len(chunks) > 1 else chunks[0])
    chunks.clear()
    if len(n) > len(counts):
        n[: len(counts)] += counts
        return n
    counts[: len(n)] += n
    return counts


def _window(counts: np.ndarray, lo: int, size: int) -> np.ndarray:
    """``counts[lo:lo + size]``, zero past the end of ``counts``."""
    out = np.zeros(size, dtype=np.int64)
    got = counts[lo:lo + size]
    out[: len(got)] = got
    return out


def _split_by_slot(off: np.ndarray, cols: list[np.ndarray]) -> list[tuple[int, list]]:
    """``(slot offset, columns)`` of each offset in ``off``, ascending: one
    stable radix sort of the offsets in their narrowest unsigned type."""
    n = np.bincount(off)
    ids = np.flatnonzero(n)
    ends = np.cumsum(n[ids]).tolist()
    order = np.argsort(off.astype(np.min_scalar_type(int(ids[-1]))), kind="stable")
    cols = [c[order] for c in cols]
    return [
        (off_, [c[lo:hi] for c in cols])
        for off_, lo, hi in zip(ids.tolist(), [0, *ends[:-1]], ends)
    ]


class EnginePolicy:
    """The choices that tell one engine from another (paper §4, §7.3).

    The defaults are the plainest engine: walks pooled with their current
    block, which is fully loaded; one bucket per slot; no per-step reads;
    exits pooled with their new current block. ``loader`` brings in the
    current block and each bucket's ancillary block (by default fully); the
    replay of every slot's :class:`SlotLog` drives the latter. Engines
    override the hooks they change; :func:`run_engine` calls them in a fixed
    order. The hooks that see a batch get each walk's slot, the current
    block it steps with, as ``b``: one block per walk, or one for all in a
    sweep of one slot.
    """

    #: True for a policy whose ``before_step`` charges reads as the steps
    #: run, against state that each slot's ``load_current`` sets (SOGW's LRU
    #: block slots): its slots must step one at a time, so its walks never
    #: join a later slot of a sweep.
    charges_live = False
    #: True for a policy whose ``load_current`` may load the current block
    #: on demand (first-order): the vertices its slots' own buckets touch are
    #: then fetched one by one, so the slot log keeps them.
    current_on_demand = False

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

    def load_current(self, b: int, n: int, cur: np.ndarray) -> None:
        """Bring current block ``b`` in for the ``n`` walks its slot reads
        from its pool (none when Alphabet picks a walk-less block); ``cur``
        holds their current vertices as they entered, given only to a
        loader that may load on demand (:meth:`SlotLog.arrivals`)."""
        self.loader.load_whole(b)

    def bucket_of(self, b: np.ndarray | int, walks: Walks) -> np.ndarray:
        """Bucket of each walk entering slot ``b``: the ancillary block it
        runs with (``b``: the current block alone, the default for every
        walk)."""
        return np.full(len(walks), b, dtype=np.int64)

    def before_step(self, active: Walks, b: np.ndarray | int, bucket: np.ndarray) -> None:
        """Charge the reads that make this step's vertices resident, as they
        happen; ``bucket`` holds each active walk's bucket."""

    def extends(
        self, walks: Walks, curb: np.ndarray, b: np.ndarray | int, bucket: np.ndarray
    ) -> np.ndarray | bool:
        """Mask of walks that, on leaving their bucket, move on to bucket
        ``curb`` of the same slot instead of a pool (False: none do)."""
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

    Each sweep takes the pools the scheduler names and steps all of their
    walks in lock step, whatever their slot: one pool, or under
    :class:`IterationScheduler` every pool with walks, for a policy that
    charges nothing live. A walk leaves the batch when it finishes or its
    current vertex leaves its slot's block ``b`` and its bucket's block.
    Two kinds of walk stay, re-keyed with their local step starting again
    at 0: a walk the policy extends to a new bucket of its slot, and, in an
    Iteration sweep, a walk bound for the pool of a block above ``b``,
    which joins that block's slot instead of the pool. The others go to
    their pools for a later sweep.

    The slots are charged one by one, by ascending block, as a slot-at-a-time
    engine charges them. Once no walk of a lower slot is left in the batch,
    a slot's walks are all known: it charges its pool read (the walks it
    started with and those that joined it) and its block load. Once no walk
    of the slot itself is left, its :class:`SlotLog` replays its
    bucket-order charges and is freed. Counters go to ``policy.sim``.
    """
    csr, bmap, sim, nb = store.csr, store.block_map, policy.sim, store.n_blocks
    sched = make_scheduler(sched) if isinstance(sched, str) else sched
    sched.reset()
    pools = WalkPools(sim, nb)
    draws = draw_keys(task, starts)  # one premix per walk and salt, not per draw
    _, live = split_done(task, csr, starts, draws)
    pools.add_grouped(policy.pool_of(live), live)
    del live  # the pools own it
    width = task.max_len + 1  # local steps per bucket are < max_len
    vertices = policy.loader.mode != FULL  # an on-demand replay needs them
    joins = isinstance(sched, IterationScheduler) and not policy.charges_live

    while pools.total():
        # The walks each slot reads from its pool (read only for the sweep's
        # slots). Every slot but a walk-less one that Alphabet names reads some.
        reads = pools.counts.copy()
        if joins:
            named = sched.sweep(pools)  # every pool with walks
            if not len(named):
                break
            top = int(named[0])
            active, slot = pools.take_all()  # and each walk's slot
        else:
            top = sched.pick(pools)
            if top is None:
                break
            active, slot = pools.take(top), top  # one slot for all
        # top: the lowest slot that may still get walks.
        log = SlotLog(top, bmap, width, vertices, nb, policy.current_on_demand)
        bucket = policy.bucket_of(slot, active)
        # Each walk's next step, keyed for the log.
        key = log.enter(bucket, active, slot if joins else None)

        def open_slot(c: int) -> None:
            sim.charge_walk_io(int(reads[c]))
            policy.load_current(c, int(reads[c]), log.arrivals(c))
            sim.time_slots += 1

        def settle(m: int) -> None:
            """Replay every slot below block ``m`` (none has a walk left),
            opening those not open yet, then open slot ``m``."""
            nonlocal top
            later = (top + 1 + np.flatnonzero(reads[top + 1:m])).tolist() if joins else []
            for c in [top, *later]:
                if c != top:
                    open_slot(c)
                if reads[c]:
                    log.replay(sim, policy.loader, c)
            top = m
            if m < nb:
                open_slot(m)

        open_slot(top)
        while len(active):
            policy.before_step(active, slot, bucket)
            if vertices:
                log.touch(active.cur, bucket, key, slot)
            t0 = time.perf_counter()
            advance(csr, task, active, rec, draws)
            sim.steps += len(active)
            sim.exec_real_s += time.perf_counter() - t0
            done, out, curb = split_step(task, csr, bmap, active, slot, bucket, draws)
            if out.any():
                ext = policy.extends(active, curb, slot, bucket) & out
                if ext.any():
                    bucket[ext] = curb[ext]
                    # - 1: this step's += 1 makes it the new bucket's step 0.
                    walks = active.select(ext)
                    key[ext] = log.enter(bucket[ext], walks, slot[ext] if joins else None) - 1
                    out &= ~ext
                log.exit(key[out])
                leaving = active.select(out)
                pool = policy.pool_of(leaving)
                if joins:
                    up = pool > slot[out]
                    if up.any():
                        j, c = np.flatnonzero(out)[up], pool[up]
                        joiners = leaving.select(up)
                        slot[j] = c
                        reads += np.bincount(c, minlength=nb)
                        bucket[j] = policy.bucket_of(c, joiners)
                        key[j] = log.enter(bucket[j], joiners, c) - 1
                        out[j] = False
                        leaving, pool = leaving.select(~up), pool[~up]
                pools.put(pool, leaving)
            keep = ~(done | out)
            if not keep.all():
                active = active.select(keep)
                bucket, key = bucket[keep], key[keep]
                if joins:
                    slot = slot[keep]
            key += 1
            if joins and len(active) and (m := int(slot.min())) > top:
                settle(m)
        settle(nb)
    return EngineResult(name=name, sim=sim, recorder=rec)
