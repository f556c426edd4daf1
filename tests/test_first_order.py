"""Tests for the first-order engine (paper §7.8): GraphWalker,
GraSorw-No-LBL and GraSorw first-order modes, run through
:meth:`GraphSystem.run`."""
import numpy as np
import pytest

from repro.core.grasorw import GraphSystem
from repro.disk.store import BlockStore
from repro.engines.loading import FULL, LearnedLoadModel, LoadLogs
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk

from .helpers import all_vertex_starts, even_partition, random_csr


def _system(n=120, m=480, nb=6, seed=0) -> GraphSystem:
    csr = random_csr(n, m, seed)
    return GraphSystem(store=BlockStore(csr, even_partition(n, nb)))


def test_requires_first_order_task():
    system = _system()
    for engine in ("GraphWalker", "GraSorw-FO"):
        with pytest.raises(ValueError):
            system.run(engine, WalkTask(max_len=5), all_vertex_starts(system.csr, 1))


@pytest.mark.parametrize("engine", ["GraphWalker", "GraSorw-FO"])
def test_parity_with_reference(engine):
    system = _system(seed=1)
    task = WalkTask(max_len=10, first_order=True, seed=1)
    ref = reference_walk(system.csr, task, all_vertex_starts(system.csr, 2))
    res = system.run(engine, task, all_vertex_starts(system.csr, 2), record_paths=True)
    assert np.array_equal(res.recorder.paths, ref.paths)


def test_single_slot_no_vertex_io_full_load():
    system = _system(seed=2)
    task = WalkTask(max_len=8, first_order=True, seed=2)
    sim = system.run("GraphWalker", task, all_vertex_starts(system.csr, 1)).sim
    assert sim.vertex_io_num == 0 and sim.ondemand_io_num == 0
    assert sim.block_io_num > 0


def test_ondemand_mode_charges_ondemand():
    system = _system(seed=3)
    task = WalkTask(max_len=8, first_order=True, seed=3)
    sim = system.run(
        "GraSorw-FO", task, all_vertex_starts(system.csr, 1), loading="ondemand",
        scheduler="graphwalker",
    ).sim
    assert sim.block_io_num == 0 and sim.ondemand_io_num > 0


def test_lbl_training_and_run():
    """Table 7 pipeline: train per-block thresholds from two forced runs,
    then run GraSorw first-order with the learned model."""
    system = _system(n=150, m=600, nb=5, seed=4)
    task = WalkTask(max_len=10, first_order=True, seed=4)
    logs = LoadLogs()
    for mode in (FULL, "ondemand"):
        system.run(
            "GraSorw-FO", task, all_vertex_starts(system.csr, 2), loading=mode,
            load_logs=logs,
        )
    model = LearnedLoadModel.fit(logs, system.store.n_blocks)
    res = system.run(
        "GraSorw-FO", task, all_vertex_starts(system.csr, 2), load_model=model,
        record_paths=True,
    )
    assert res.name == "GraSorw"
    ref = reference_walk(system.csr, task, all_vertex_starts(system.csr, 2))
    assert np.array_equal(res.recorder.paths, ref.paths)


def test_engine_names():
    system = _system(seed=5)
    task = WalkTask(max_len=4, first_order=True, seed=5)
    starts = all_vertex_starts(system.csr, 1)
    assert system.run("GraphWalker", task, starts).name == "GraphWalker"
    assert system.run("GraSorw-FO", task, starts).name == "GraSorw-No-LBL"


def test_iteration_vs_graphwalker_block_io():
    """Table 7's observation: iteration-based scheduling is competitive with
    (or better than) GraphWalker's state-aware mix for first-order walks."""
    system = _system(n=200, m=800, nb=8, seed=6)
    task = WalkTask(max_len=12, first_order=True, seed=6)
    starts = all_vertex_starts(system.csr, 2)
    a = system.run("GraphWalker", task, starts).sim
    b = system.run("GraSorw-FO", task, starts).sim
    assert b.block_io_num <= 1.3 * a.block_io_num
