"""The bucket engines against their bucket-at-a-time oracle, on random graphs.

``tests/sequential_oracle.py`` runs each Eq. 4 bucket of a time slot alone
and makes every charge as it happens. The engines step all buckets of a slot
as one batch and replay the charges that depend on bucket order afterwards.
That replay must put every float counter, every ``LoadLogs`` entry and the
fitted load-model coefficients exactly where the oracle puts them. These
hypothesis tests compare them with ``==``, together with the walk paths and
the sequence of simulated charges itself, across random graphs, partitions
(one block, singleton blocks, even blocks, a hub-dominated graph), the
second-order tasks, every loading mode of the bi-block engine and every
scheduler of PB. The engine runs are also residency-checked before every
step.
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
from repro.engines.loading import LoadLogs
from repro.graphs.csr import CSR, csr_from_arrays
from repro.graphs.partition import Partition
from repro.walks.models import WalkTask

from . import sequential_oracle as oracle
from .helpers import all_vertex_starts, even_partition, residency_checked

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
    equal sequences give equal float sums, whatever the graph's size."""
    calls: list[tuple] = []
    saved = {k: DiskSim.__dict__[k] for k in
             ("charge_block_load", "charge_vertex_fetch", "charge_walk_io")}

    def block(self, bid, nbytes):
        calls.append(("block", bid, nbytes))
        saved["charge_block_load"](self, bid, nbytes)

    def fetch(self, seg_bytes, kind="vertex"):
        if len(seg_bytes):
            calls.append((kind, len(seg_bytes), int(np.sum(seg_bytes))))
        saved["charge_vertex_fetch"](self, seg_bytes, kind)

    def walk(self, n_walks):
        if n_walks:
            calls.append(("walk", n_walks))
        saved["charge_walk_io"](self, n_walks)

    try:
        DiskSim.charge_block_load, DiskSim.charge_vertex_fetch = block, fetch
        DiskSim.charge_walk_io = walk
        yield calls
    finally:
        for k, fn in saved.items():
            setattr(DiskSim, k, fn)


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
        assert got_charges == want_charges, mode
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
        assert got_charges == want_charges, sched
