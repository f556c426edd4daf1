"""Iteration sweeps against the slot-at-a-time oracle, on random graphs.

Under Iteration-based scheduling the engines step every walk in one
hop-synchronous pass, each walk keeping its sweep (the ascending run of
current blocks between two wraps), slot and bucket, and charge the slots
afterwards from the pass's records, sweep by sweep and slot by ascending
block. ``tests/sequential_oracle.py`` runs one slot, and one bucket, at a
time. These hypothesis cases compare both, with ``==``, on
random graphs under one-block, singleton, even and hub partitions: bi-block
in full, on-demand and learned mode plus training, PB, and GraSorw-FO in
every loading mode plus first-order training. They also check the count
identities every engine shares: paths equal ``reference_walk``'s, every
engine takes the same steps, the block engines make no vertex I/O, and each
sweep advances at most ``max_len`` times.
"""
from __future__ import annotations

import contextlib

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.grasorw import GraphSystem
from repro.engines.loading import LoadLogs
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk

from . import sequential_oracle as oracle
from .helpers import all_vertex_starts, residency_checked, slot_trace
from .test_slot_lockstep import _counters, _graph, _logs, _task, cases


@contextlib.contextmanager
def _checked(steps: set, max_len: int):
    """Residency-check a run and trace its slots; on exit, add its steps to
    ``steps`` and check that every step was checked, that the block engines'
    two resident blocks covered every previous vertex, and that each sweep
    advanced at most ``max_len`` times."""
    out: list = []
    with residency_checked() as seen, slot_trace() as trace:
        yield out
    (res,) = out
    assert sum(seen) == res.sim.steps
    assert res.sim.vertex_io_num == 0
    assert trace.advances <= max_len * trace.sweeps()
    steps.add(res.sim.steps)


def _same(got, want, ref: np.ndarray, label: str) -> None:
    assert _counters(got.sim) == _counters(want.sim), label
    assert np.array_equal(got.recorder.paths, ref), label
    assert np.array_equal(want.recorder.paths, ref), label


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_second_order_sweeps_match_slot_at_a_time_oracle(case):
    store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"], case["graph_seed"])
    task, starts = _task(case["task"], store.csr, case["walk_seed"], case["max_len"])
    ref = reference_walk(store.csr, task, starts).paths
    system = GraphSystem(store=store)

    model, train_logs = system.train_load_model(task, starts)
    want_model, want_train_logs = oracle.train_load_model(store, task, starts, system.new_sim)
    assert _logs(train_logs) == _logs(want_train_logs)
    assert np.array_equal(model.coef, want_model.coef)

    steps: set = set()
    for mode in ("full", "ondemand", "learned"):
        kw = {"load_model": model} if mode == "learned" else {}
        logs, want_logs = LoadLogs(), LoadLogs()
        with _checked(steps, task.max_len) as out:
            out.append(system.run("GraSorw", task, starts, loading=mode, load_logs=logs,
                                  record_paths=True, **kw))
        want = oracle.run_bi_block(store, task, starts, sim=system.new_sim(), loading=mode,
                                   load_logs=want_logs, record_paths=True, **kw)
        _same(out[0], want, ref, mode)
        assert _logs(logs) == _logs(want_logs), mode

    with _checked(steps, task.max_len) as out:
        out.append(system.run("PB", task, starts, scheduler="iteration", record_paths=True))
    want = oracle.run_plain_bucket(store, task, starts, sim=system.new_sim(),
                                   scheduler="iteration", record_paths=True)
    _same(out[0], want, ref, "PB")

    sogw = system.run("SOGW", task, starts, scheduler="iteration", record_paths=True)
    assert np.array_equal(sogw.recorder.paths, ref)
    assert steps == {sogw.sim.steps}


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases)
def test_first_order_sweeps_match_slot_at_a_time_oracle(case):
    store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"], case["graph_seed"])
    task = WalkTask(max_len=case["max_len"], first_order=True, seed=case["walk_seed"])
    starts = all_vertex_starts(store.csr, 2)
    ref = reference_walk(store.csr, task, starts).paths
    system = GraphSystem(store=store)

    model, train_logs = system.train_load_model(task, starts, first_order=True)
    want_model, want_train_logs = oracle.train_load_model(
        store, task, starts, system.new_sim, first_order=True)
    assert _logs(train_logs) == _logs(want_train_logs)
    assert np.array_equal(model.coef, want_model.coef, equal_nan=True)

    steps: set = set()
    for mode in ("full", "ondemand", "learned"):
        kw = {"load_model": model} if mode == "learned" else {}
        logs, want_logs = LoadLogs(), LoadLogs()
        with _checked(steps, task.max_len) as out:
            out.append(system.run("GraSorw-FO", task, starts, loading=mode, load_logs=logs,
                                  record_paths=True, **kw))
        want = oracle.run_first_order(store, task, starts, sim=system.new_sim(),
                                      scheduler="iteration", loading=mode, load_logs=want_logs,
                                      record_paths=True, **kw)
        _same(out[0], want, ref, mode)
        assert _logs(logs) == _logs(want_logs), mode

    walker = system.run("GraphWalker", task, starts, record_paths=True)
    assert np.array_equal(walker.recorder.paths, ref)
    assert walker.sim.vertex_io_num == 0
    assert steps == {walker.sim.steps}
