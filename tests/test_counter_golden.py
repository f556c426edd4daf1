"""Golden simulated counters for every driver engine and loading mode.

The simulated counters are the reproduction's result, so a change to how
walks are stored, split or routed must leave every one of them exactly as
it was. ``tests/data/counter_golden.json`` holds the counters of a grid of
small graphs × engines × tasks; this test recomputes the grid and compares
every ``DiskSim.snapshot()`` field except the host-time ``exec_real_s`` with
``==`` (floats included), plus the ``LoadLogs`` of every block-loader run
and the fitted load-model coefficients. Cells named ``sched/<scheduler>/...``
rerun the scheduler-driven engines (SOGW, SGSC, PB; GraSorw-FO full and
on-demand) under each of the five schedulers, so the Alphabet empty-pool
paths are pinned too. No Spark session is started.

Regenerate (only for an intended change of the simulated model) with::

    PYTHONPATH=src python3 -m tests.test_counter_golden --write
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.grasorw import GraphSystem
from repro.core.tasks import PRNVConfig
from repro.disk.store import BlockStore
from repro.engines.loading import LoadLogs
from repro.graphs.csr import CSR, csr_from_arrays
from repro.graphs.partition import Partition
from repro.walks.models import WalkTask

from .helpers import all_vertex_starts, even_partition, random_csr, random_edges

GOLDEN = Path(__file__).parent / "data" / "counter_golden.json"

SECOND_ORDER = ("SOGW", "SGSC", "PB", "GraSorw-full", "GraSorw-ondemand", "GraSorw-learned")
FIRST_ORDER = ("GraphWalker", "GraSorw-FO-full", "GraSorw-FO-learned")
SCHEDULED = ("SOGW", "SGSC", "PB")
SCHEDULED_FO = ("GraSorw-FO-full", "GraSorw-FO-ondemand")
SCHEDULER_NAMES = ("alphabet", "iteration", "min_height", "max_sum", "graphwalker")


def _hub_csr(n: int = 40, m: int = 30, seed: int = 11) -> CSR:
    """Star around hub 0 plus a few leaf-leaf edges: most walks pass the hub."""
    src, dst = random_edges(n, m, seed)
    keep = (src > 0) & (dst > 0)
    leaves = np.arange(1, n, dtype=np.int64)
    hub = np.zeros(n - 1, dtype=np.int64)
    return csr_from_arrays(
        n, np.concatenate([hub, leaves, src[keep]]), np.concatenate([leaves, hub, dst[keep]])
    )


def _graphs() -> dict[str, tuple[CSR, Partition]]:
    rnd = random_csr(60, 220, seed=3)
    hub = _hub_csr()
    one = random_csr(40, 120, seed=4)
    single = random_csr(16, 40, seed=5)
    return {
        "random": (rnd, even_partition(rnd.n, 5)),
        "hub": (hub, even_partition(hub.n, 4)),
        "one_block": (one, even_partition(one.n, 1)),
        "singleton": (single, Partition(block_starts=np.arange(single.n + 1, dtype=np.int64))),
    }


def _tasks(csr: CSR) -> dict:
    """{task name: (WalkTask, starts, second-order?)}"""
    prnv = PRNVConfig(n_queries=2, samples_per_query=3 * csr.n, seed=7)
    return {
        "rwnv_pq1": (WalkTask(max_len=8, seed=7), all_vertex_starts(csr, 2), True),
        "rwnv_p.5q2": (WalkTask(max_len=8, p=0.5, q=2.0, seed=7), all_vertex_starts(csr, 2), True),
        "prnv": (prnv.task(), prnv.starts(csr), True),
        "deepwalk": (
            WalkTask(max_len=8, first_order=True, seed=7), all_vertex_starts(csr, 2), False,
        ),
    }


def _counters(res) -> dict:
    snap = res.sim.snapshot()
    del snap["exec_real_s"]
    return snap


def _logs(logs: LoadLogs) -> dict:
    return {"bid": logs.bid, "eta": logs.eta, "t": logs.t, "mode": logs.mode}


def _run_case(system: GraphSystem, task: WalkTask, starts, second_order: bool) -> dict:
    """Counters of every engine of one (graph, task) cell, plus training."""
    out = {}
    model, logs = system.train_load_model(task, starts, first_order=not second_order)
    out["train"] = {"coef": model.coef.tolist(), "logs": _logs(logs)}
    engines = SECOND_ORDER if second_order else FIRST_ORDER
    for name in engines:
        logs = LoadLogs()
        if name.startswith("GraSorw"):
            engine, _, mode = name.rpartition("-")
            kw = {"loading": mode, "load_logs": logs}
            if mode == "learned":
                kw["load_model"] = model
            res = system.run(engine, task, starts, **kw)
        else:
            res = system.run(name, task, starts)
        row = _counters(res)
        if logs.bid:
            row["load_logs"] = _logs(logs)
        out[name] = row
    return out


def _run_scheduled(
    system: GraphSystem, task: WalkTask, starts, second_order: bool, scheduler: str
) -> dict:
    """Counters of the scheduler-driven engines under ``scheduler``."""
    out = {}
    for name in SCHEDULED if second_order else SCHEDULED_FO:
        logs = LoadLogs()
        if name.startswith("GraSorw"):
            engine, _, mode = name.rpartition("-")
            res = system.run(
                engine, task, starts, loading=mode, load_logs=logs, scheduler=scheduler
            )
        else:
            res = system.run(name, task, starts, scheduler=scheduler)
        row = _counters(res)
        if logs.bid:
            row["load_logs"] = _logs(logs)
        out[name] = row
    return out


def compute() -> dict:
    out = {}
    for gname, (csr, part) in _graphs().items():
        system = GraphSystem(store=BlockStore(csr, part))
        for tname, (task, starts, second_order) in _tasks(csr).items():
            out[f"{gname}/{tname}"] = _run_case(system, task, starts, second_order)
            for sched in SCHEDULER_NAMES:
                out[f"sched/{sched}/{gname}/{tname}"] = _run_scheduled(
                    system, task, starts, second_order, sched
                )
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def current() -> dict:
    # JSON round trip so both sides hold the same Python types.
    return json.loads(json.dumps(compute()))


def _assert_cell_equal(golden: dict, current: dict, cell: str) -> None:
    for engine, want in golden[cell].items():
        got = current[cell][engine]
        for field in sorted(set(want) | set(got)):
            assert got.get(field) == want.get(field), f"{cell} {engine} {field}"


def test_grid_is_complete(golden, current):
    assert sorted(current) == sorted(golden)
    for cell in golden:
        assert sorted(current[cell]) == sorted(golden[cell]), cell


@pytest.mark.parametrize("graph", ["random", "hub", "one_block", "singleton"])
@pytest.mark.parametrize("task", ["rwnv_pq1", "rwnv_p.5q2", "prnv", "deepwalk"])
def test_counters_equal_golden(golden, current, graph, task):
    _assert_cell_equal(golden, current, f"{graph}/{task}")


@pytest.mark.parametrize("graph", ["random", "hub", "one_block", "singleton"])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_scheduler_counters_equal_golden(golden, current, scheduler, graph):
    prefix = f"sched/{scheduler}/{graph}/"
    cells = [c for c in golden if c.startswith(prefix)]
    assert len(cells) == 4
    for cell in cells:
        _assert_cell_equal(golden, current, cell)


def test_scheduler_grid_loads_empty_pools(golden):
    """Alphabet also schedules walk-less blocks, so somewhere in the grid it
    must take more time slots than Iteration, in every scheduler-driven
    engine."""
    more = set()
    for cell, engines in golden.items():
        if cell.startswith("sched/alphabet/"):
            other = golden[cell.replace("/alphabet/", "/iteration/")]
            more |= {e for e, r in engines.items() if r["time_slots"] > other[e]["time_slots"]}
    assert more == set(SCHEDULED + SCHEDULED_FO)


def test_golden_exercises_every_path(golden):
    """The grid is only a guard if it reaches the paths it guards."""
    runs = [row for cell in golden.values() for e, row in cell.items() if e != "train"]
    assert all(r["steps"] > 0 for r in runs)
    assert any(r["vertex_io_num"] > 0 for r in runs)  # SOGW previous-vertex I/O
    assert any(r["ondemand_io_num"] > 0 for r in runs)  # on-demand loading
    modes = {m for r in runs for m in r.get("load_logs", {}).get("mode", [])}
    assert modes == {"full", "ondemand"}


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python3 -m tests.test_counter_golden --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        json.dump(compute(), fh, indent=1, sort_keys=True)
        fh.write("\n")
