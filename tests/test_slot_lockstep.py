"""Every engine against its bucket-at-a-time oracle, on random graphs.

``tests/sequential_oracle.py`` runs each bucket of a time slot alone and
makes every charge as it happens. The engines step all buckets of a slot
as one batch and replay the charges that depend on bucket order afterwards.
That replay must put every float counter, every ``LoadLogs`` entry and the
fitted load-model coefficients exactly where the oracle puts them. These
hypothesis tests compare them with ``==``, together with the walk paths and
the sequence of simulated charges itself (clock by clock where a run charges
each clock in one array call), across random graphs, partitions
(one block, singleton blocks, even blocks, a hub-dominated graph), the
second-order tasks, every loading mode of the bi-block engine, every
scheduler of PB, SOGW and SGSC, and the first-order engines under every
scheduler and loading mode. The engine runs are also residency-checked
before every step.
"""
from __future__ import annotations

import contextlib

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.grasorw import GraphSystem
from repro.core.tasks import PRNVConfig
from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import SlotLog, charge_slots
from repro.engines.loading import LEARNED, ONDEMAND, BlockLoader, LearnedLoadModel, LoadLogs
from repro.graphs.csr import CSR, csr_from_arrays
from repro.graphs.partition import Partition
from repro.walks.models import WalkTask
from repro.walks.state import Walks

from . import sequential_oracle as oracle
from .helpers import all_vertex_starts, even_partition, random_csr, residency_checked

SCHEDULER_NAMES = ("alphabet", "iteration", "min_height", "max_sum", "graphwalker")
PARTITIONS = ("one_block", "singleton", "even", "hub")
TASKS = ("rwnv_pq1", "rwnv_p.5q2", "prnv")


def _graph(kind: str, n: int, density: float, n_blocks: int, seed: int) -> BlockStore:
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < density
    src, dst = iu[keep], ju[keep]
    if kind == "hub":  # every vertex joined to hub 0, plus the random edges
        src, dst = np.concatenate([np.zeros(n - 1, dtype=np.int64), src]), np.concatenate(
            [np.arange(1, n), dst])
        pairs = np.unique(np.stack([src, dst], axis=1), axis=0)
        src, dst = pairs[:, 0], pairs[:, 1]
    csr: CSR = csr_from_arrays(n, np.concatenate([src, dst]), np.concatenate([dst, src]))
    if kind == "one_block":
        part = even_partition(n, 1)
    elif kind == "singleton":
        part = Partition(block_starts=np.arange(n + 1, dtype=np.int64))
    else:
        part = even_partition(n, min(n_blocks, n))
    return BlockStore(csr, part)


def _task(name: str, csr: CSR, seed: int, max_len: int):
    if name == "prnv":
        cfg = PRNVConfig(n_queries=2, samples_per_query=3 * csr.n, max_len=max_len, seed=seed)
        return cfg.task(), cfg.starts(csr)
    p, q = (1.0, 1.0) if name == "rwnv_pq1" else (0.5, 2.0)
    return WalkTask(max_len=max_len, p=p, q=q, seed=seed), all_vertex_starts(csr, 2)


def _counters(sim) -> dict:
    snap = sim.snapshot()
    del snap["exec_real_s"]
    return snap


def _logs(logs: LoadLogs) -> tuple:
    return logs.bid, logs.eta, logs.t, logs.mode


@contextlib.contextmanager
def _charges():
    """Record every charge that moves a ``DiskSim`` clock, in call order:
    equal sequences give equal float sums, whatever the graph's size. The
    array charges are recorded as the scalar charges they stand for, one
    tuple per charge."""
    calls: list[tuple] = []
    saved = {k: DiskSim.__dict__[k] for k in (
        "charge_block_load", "charge_vertex_fetch", "charge_walk_io",
        "charge_block_loads", "charge_vertex_fetches", "charge_walk_ios",
    )}

    def block(self, bid, nbytes):
        calls.append(("block", bid, nbytes))
        saved["charge_block_load"](self, bid, nbytes)

    def blocks(self, bids, nbytes):
        calls.extend(("block", int(i), int(x)) for i, x in zip(bids, nbytes))
        return saved["charge_block_loads"](self, bids, nbytes)

    def fetch(self, seg_bytes, kind="vertex"):
        if len(seg_bytes):
            calls.append((kind, len(seg_bytes), int(np.sum(seg_bytes))))
        saved["charge_vertex_fetch"](self, seg_bytes, kind)

    def fetches(self, n, nbytes, kind="vertex"):
        calls.extend((kind, int(k), int(x)) for k, x in zip(n, nbytes) if k)
        return saved["charge_vertex_fetches"](self, n, nbytes, kind)

    def walk(self, n_walks):
        if n_walks:
            calls.append(("walk", n_walks))
        saved["charge_walk_io"](self, n_walks)

    def walks(self, n_walks):
        calls.extend(("walk", int(k)) for k in n_walks if k)
        saved["charge_walk_ios"](self, n_walks)

    patched = {
        "charge_block_load": block, "charge_vertex_fetch": fetch, "charge_walk_io": walk,
        "charge_block_loads": blocks, "charge_vertex_fetches": fetches, "charge_walk_ios": walks,
    }
    try:
        for k, fn in patched.items():
            setattr(DiskSim, k, fn)
        yield calls
    finally:
        for k, fn in saved.items():
            setattr(DiskSim, k, fn)


def _by_clock(calls: list[tuple]) -> dict[str, list[tuple]]:
    """The charges of each ``DiskSim`` clock, in call order. Each clock is a
    sum of its own, and only block loads carry state from one charge to the
    next (sequential or random), so equal per-clock sequences give equal
    counters even where an engine charges a slot's pool writes after its
    vertex reads, or each clock's charges of a slot (loading on demand) or
    of a whole hop-synchronous pass in one array call."""
    return {k: [c for c in calls if c[0] == k] for k in ("block", "vertex", "ondemand", "walk")}


def _assert_same(got, want, label: str) -> None:
    assert _counters(got.sim) == _counters(want.sim), label
    assert np.array_equal(got.recorder.paths, want.recorder.paths), label


cases = st.fixed_dictionaries({
    "kind": st.sampled_from(PARTITIONS),
    "n": st.integers(2, 28),
    "density": st.floats(0.05, 0.6),
    "n_blocks": st.integers(2, 7),
    "graph_seed": st.integers(0, 2**16),
    "task": st.sampled_from(TASKS),
    "max_len": st.integers(1, 10),
    "walk_seed": st.integers(0, 2**16),
})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_bi_block_matches_bucket_at_a_time_oracle(case):
    store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"], case["graph_seed"])
    task, starts = _task(case["task"], store.csr, case["walk_seed"], case["max_len"])
    system = GraphSystem(store=store)

    model, train_logs = system.train_load_model(task, starts)
    want_model, want_train_logs = oracle.train_load_model(store, task, starts, system.new_sim)
    assert _logs(train_logs) == _logs(want_train_logs)
    assert np.array_equal(model.coef, want_model.coef)

    for mode in ("full", "ondemand", "learned"):
        kw = {"load_model": model} if mode == "learned" else {}
        logs, want_logs = LoadLogs(), LoadLogs()
        with residency_checked(), _charges() as got_charges:
            got = system.run("GraSorw", task, starts, loading=mode, load_logs=logs,
                             record_paths=True, **kw)
        with _charges() as want_charges:
            want = oracle.run_bi_block(store, task, starts, sim=system.new_sim(),
                                       loading=mode, load_logs=want_logs,
                                       record_paths=True, **kw)
        _assert_same(got, want, mode)
        assert _by_clock(got_charges) == _by_clock(want_charges), mode
        assert _logs(logs) == _logs(want_logs), mode


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_plain_bucket_matches_bucket_at_a_time_oracle(case):
    store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"], case["graph_seed"])
    task, starts = _task(case["task"], store.csr, case["walk_seed"], case["max_len"])
    system = GraphSystem(store=store)
    for sched in SCHEDULER_NAMES:
        with residency_checked(), _charges() as got_charges:
            got = system.run("PB", task, starts, scheduler=sched, record_paths=True)
        with _charges() as want_charges:
            want = oracle.run_plain_bucket(store, task, starts, sim=system.new_sim(),
                                           scheduler=sched, record_paths=True)
        _assert_same(got, want, sched)
        order = _by_clock if sched == "iteration" else list  # see _by_clock
        assert order(got_charges) == order(want_charges), sched


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_sogw_and_sgsc_match_bucket_at_a_time_oracle(case):
    store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"], case["graph_seed"])
    task, starts = _task(case["task"], store.csr, case["walk_seed"], case["max_len"])
    system = GraphSystem(store=store)
    for engine, run in (("SOGW", oracle.run_sogw), ("SGSC", oracle.run_sgsc)):
        for sched in SCHEDULER_NAMES:
            label = f"{engine}/{sched}"
            with residency_checked(), _charges() as got_charges:
                got = system.run(engine, task, starts, scheduler=sched, record_paths=True)
            with _charges() as want_charges:
                want = run(store, task, starts, sim=system.new_sim(), scheduler=sched,
                           record_paths=True)
            _assert_same(got, want, label)
            assert _by_clock(got_charges) == _by_clock(want_charges), label


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_first_order_engines_match_bucket_at_a_time_oracle(case):
    store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"], case["graph_seed"])
    task = WalkTask(max_len=case["max_len"], first_order=True, seed=case["walk_seed"])
    starts = all_vertex_starts(store.csr, 2)
    system = GraphSystem(store=store)

    model, train_logs = system.train_load_model(task, starts, first_order=True)
    want_model, want_train_logs = oracle.train_load_model(
        store, task, starts, system.new_sim, first_order=True)
    assert _logs(train_logs) == _logs(want_train_logs)
    assert np.array_equal(model.coef, want_model.coef, equal_nan=True)

    runs = [("GraphWalker", "graphwalker", "full")]
    runs += [("GraSorw-FO", sched, "full") for sched in SCHEDULER_NAMES]
    runs += [("GraSorw-FO", sched, mode) for sched in ("iteration", "graphwalker")
             for mode in ("ondemand", "learned")]
    for engine, sched, mode in runs:
        label = f"{engine}/{sched}/{mode}"
        kw = {"load_model": model} if mode == "learned" else {}
        logs, want_logs = LoadLogs(), LoadLogs()
        with residency_checked(), _charges() as got_charges:
            if engine == "GraphWalker":
                got = system.run(engine, task, starts, load_logs=logs, record_paths=True)
            else:
                got = system.run(engine, task, starts, scheduler=sched, loading=mode,
                                 load_logs=logs, record_paths=True, **kw)
        with _charges() as want_charges:
            want = oracle.run_first_order(store, task, starts, sim=system.new_sim(),
                                          scheduler=sched, loading=mode, load_logs=want_logs,
                                          record_paths=True, **kw)
        _assert_same(got, want, label)
        order = list if mode == "full" and sched != "iteration" else _by_clock
        assert order(got_charges) == order(want_charges), label
        assert _logs(logs) == _logs(want_logs), label


def _fetch_store() -> BlockStore:
    """40 vertices in 4 blocks of 10: block i holds vertices 10·i .. 10·i + 9."""
    return BlockStore(random_csr(40, 160, seed=5), even_partition(40, 4))


def _slot_fetches(loader: BlockLoader, b: int, buckets: dict,
                  current: bool = False) -> list[tuple]:
    """Replay one slot of current block ``b`` and return its on-demand charges.
    ``buckets`` maps each bucket to the (prev, cur) of the walks entering it
    (one vertex each, or one list each) and the vertices that bucket's walks
    touch at local steps 0, 1, ...; with ``current`` the loader loads block
    ``b`` as bucket ``b``, as first-order's does."""
    store = loader.store
    log = SlotLog(b, store.block_map, 8, True, store.n_blocks, current)
    for i, ((prev, cur), steps) in buckets.items():
        prev, cur = np.atleast_1d(prev), np.atleast_1d(cur)
        walks = Walks(wid=np.arange(len(cur)), src=cur, prev=prev, cur=cur, hop=1)
        key = log.enter(np.full(len(cur), i), walks)
        for s, vs in enumerate(steps):
            vs = np.asarray(vs, dtype=np.int64)
            log.touch(vs, np.full(len(vs), i), np.full(len(vs), key[0] + s))
    with _charges() as calls:
        log.replay(loader.sim, loader)
    return _by_clock(calls)["ondemand"]


def _fetch(store: BlockStore, *vs: int) -> tuple:
    return ("ondemand", len(vs), int(store.vertex_seg_bytes(np.array(vs)).sum()))


class TestSlotFetchPlan:
    """The slot form of ``TestBlockLoader::test_ensure_deduplicates``: an
    on-demand bucket fetches each vertex of its block once, at its bucket's
    activation or at the first local step that touches it."""

    def test_touched_vertex_charged_once_at_its_first_step(self):
        store = _fetch_store()
        loader = BlockLoader(store, DiskSim(params=store.params), mode=ONDEMAND)
        got = _slot_fetches(loader, 0, {2: ((1, 20), [[21], [21, 22], [23, 21, 24, 21]])})
        assert got == [_fetch(store, 20), _fetch(store, 21), _fetch(store, 22),
                       _fetch(store, 23, 24)]

    def test_activated_vertex_never_charged_at_a_step(self):
        store = _fetch_store()
        loader = BlockLoader(store, DiskSim(params=store.params), mode=ONDEMAND)
        got = _slot_fetches(loader, 0, {2: ((25, 20), [[20], [25, 20], [20, 25]])})
        assert got == [_fetch(store, 20, 25)]

    def test_vertex_charged_once_per_bucket(self):
        """Each bucket execution loads its block afresh: two buckets of one
        slot fetch their own vertices in bucket order, and the next slot's
        bucket of the same block fetches a vertex again."""
        store = _fetch_store()
        loader = BlockLoader(store, DiskSim(params=store.params), mode=ONDEMAND)
        got = _slot_fetches(loader, 0, {
            3: ((1, 30), [[31], [31, 32]]),
            2: ((2, 20), [[21], [21]]),
        })
        assert got == [_fetch(store, 20), _fetch(store, 21),
                       _fetch(store, 30), _fetch(store, 31), _fetch(store, 32)]
        got = _slot_fetches(loader, 1, {2: ((11, 20), [[21]])})
        assert got == [_fetch(store, 20), _fetch(store, 21)]

    def test_full_load_bucket_charges_no_fetch(self):
        """Learned mode: bucket 2's block is fully loaded (no on-demand data:
        α_o = inf), bucket 3's on demand; the slot's own bucket 0 loads
        nothing."""
        store = _fetch_store()
        coef = np.array([[0.0, 0.0, np.inf, np.inf]] * 3 + [[0.0, 1.0, 0.0, 0.0]])
        sim = DiskSim(params=store.params)
        loader = BlockLoader(store, sim, mode=LEARNED, model=LearnedLoadModel(coef))
        with _charges() as calls:
            got = _slot_fetches(loader, 0, {
                0: ((-1, 1), [[1], [2]]),
                2: ((1, 20), [[21], [22]]),
                3: ((1, 30), [[31], [32]]),
            })
        assert got == [_fetch(store, 30), _fetch(store, 31), _fetch(store, 32)]
        assert _by_clock(calls)["block"] == [("block", 2, store.block_bytes(2))]

    def test_current_bucket_fetches_entries_then_first_touches(self):
        """First-order: current block 1 is bucket 1 of its slot's record.
        Loaded on demand, it fetches the entering walks' current vertices,
        then each vertex at the first step that touches it."""
        store = _fetch_store()
        loader = BlockLoader(store, DiskSim(params=store.params), mode=ONDEMAND)
        got = _slot_fetches(loader, 1, {1: (([-1, -1], [10, 12]), [[10, 12], [12, 13], [10, 14]])},
                            current=True)
        assert got == [_fetch(store, 10, 12), _fetch(store, 13), _fetch(store, 14)]


def _marks(*chunks: tuple[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """(positions, vertices) of (position, vertices) chunks."""
    pos = [p for p, vs in chunks for _ in vs]
    return np.array(pos, dtype=np.int64), np.array([v for _, vs in chunks for v in vs])


class TestPassCharge:
    """``charge_slots`` over the records of several slots at once, as a
    hop-synchronous pass charges them: slot ``s``'s bucket ``i`` has the id
    ``s·N_B + i`` and the step keys ``id·w`` + local step."""

    W = 8

    def _charge(self, loader: BlockLoader, blocks: list[int], n_in: dict, marks) -> dict:
        store = loader.store
        counts = np.zeros(len(blocks) * store.n_blocks, dtype=np.int64)
        counts[list(n_in)] = list(n_in.values())
        no_exits = np.empty(0, dtype=np.int64)
        with _charges() as calls:
            charge_slots(loader.sim, loader, self.W, np.array(blocks),
                         np.ones(len(blocks), dtype=np.int64), counts, no_exits, no_exits,
                         *marks, False)
        return _by_clock(calls)

    def test_vertex_fetched_once_per_slot_in_slot_order(self):
        """Bucket 2 of slots 0 and 1 (ids 2 and 6) touch vertices 20 and 21,
        each fetched once per slot, slot 0's first, however the records
        are ordered."""
        store = _fetch_store()
        loader = BlockLoader(store, DiskSim(params=store.params), mode=ONDEMAND)
        got = self._charge(loader, [0, 1], {2: 1, 6: 1}, _marks(
            (6 * 8 - 1, [20]), (6 * 8, [21, 20]), (2 * 8 - 1, [20]), (2 * 8 + 1, [21]),
            (2 * 8 + 2, [21, 20])))
        assert got["ondemand"] == [_fetch(store, 20), _fetch(store, 21),
                                   _fetch(store, 20), _fetch(store, 21)]
        assert got["block"] == [("block", b, store.block_bytes(b)) for b in (0, 1)]

    def test_bucket_0_activation_charged_to_its_slot(self):
        """Bucket 0 of slot 1 (id 4) is activated at key 4·8 - 1, the last
        key of slot 0, whose own bucket 0 loads nothing: the fetch of its
        activated vertex 5 belongs to slot 1."""
        store = _fetch_store()
        loader = BlockLoader(store, DiskSim(params=store.params), mode=ONDEMAND)
        got = self._charge(loader, [0, 1], {0: 1, 4: 1},
                           _marks((0 * 8, [1]), (4 * 8 - 1, [5]), (4 * 8, [5, 6])))
        assert got["ondemand"] == [_fetch(store, 5), _fetch(store, 6)]

    def test_learned_load_logs_equal_per_slot_charges(self):
        """Learned mode, two slots with a full-loaded bucket 2 and an
        on-demand bucket 3 each: every ``LoadLogs`` entry and counter equals
        the scalar charges of the slots one at a time (pool read, current
        block, then per bucket its load, its fetches step by step and its
        close)."""
        store = _fetch_store()
        coef = np.array([[0.0, 0.0, np.inf, np.inf]] * 3 + [[0.0, 1.0, 0.0, 0.0]])
        model = LearnedLoadModel(coef)
        slots = [  # per slot: block, then per bucket its walks, activated and touched vertices
            (0, {2: (3, [20, 21], [[22], [23]]), 3: (2, [30], [[31, 30], [32]])}),
            (1, {2: (1, [25], [[26]]), 3: (4, [30, 33], [[34], [31, 34]])}),
        ]
        want_logs, got_logs = LoadLogs(), LoadLogs()
        want = DiskSim(params=store.params)
        loader = BlockLoader(store, want, mode=LEARNED, model=model, logs=want_logs)
        for b, buckets in slots:
            want.charge_walk_io(1)
            want.charge_block_load(b, store.block_bytes(b))
            want.time_slots += 1
            want.bucket_execs += len(buckets)
            for i, (n, act, steps) in buckets.items():
                loader.load(i, n, np.array(act))
                for vs in steps:
                    loader.ensure(np.array(vs))
                loader.finish()
        got = DiskSim(params=store.params)
        loader = BlockLoader(store, got, mode=LEARNED, model=model, logs=got_logs)
        n_in, chunks = {}, []
        for s, (b, buckets) in enumerate(slots):
            for i, (n, act, steps) in buckets.items():
                gid = s * store.n_blocks + i
                n_in[gid] = n
                chunks += [(gid * self.W - 1, act)]
                chunks += [(gid * self.W + k, vs) for k, vs in enumerate(steps)]
        self._charge(loader, [b for b, _ in slots], n_in, _marks(*chunks))
        assert _logs(got_logs) == _logs(want_logs)
        assert want_logs.mode == ["full", "ondemand"] * 2
        assert _counters(got) == _counters(want)
