"""Residency checks: every engine step reads only memory-resident blocks.

The engines sample from the global in-memory CSR, so trajectory parity
alone cannot show that a schedule kept each walk inside its resident
blocks. :func:`tests.helpers.residency_checked` asserts it before every
step; the mutation test below shows that the check catches a broken bucket
extension rule whose trajectories stay bit-identical.
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.grasorw import GraphSystem
from repro.core.tasks import PRNVConfig
from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import make_recorder, run_engine
from repro.engines.bi_block import BiBlockPolicy
from repro.engines.loading import FULL, BlockLoader
from repro.engines.scheduling import IterationScheduler
from repro.graphs.partition import Partition
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk

from .helpers import all_vertex_starts, even_partition, random_csr, residency_checked

SECOND_ORDER = ("SOGW", "SGSC", "PB", "GraSorw")
FIRST_ORDER = ("GraphWalker", "GraSorw-FO")


def _stores() -> dict[str, BlockStore]:
    rnd = random_csr(60, 220, seed=3)
    single = random_csr(16, 40, seed=5)
    return {
        "random": BlockStore(rnd, even_partition(rnd.n, 5)),
        "one_block": BlockStore(rnd, even_partition(rnd.n, 1)),
        "singleton": BlockStore(single, Partition(block_starts=np.arange(single.n + 1))),
    }


@pytest.mark.parametrize("graph", ["random", "one_block", "singleton"])
@pytest.mark.parametrize("task", ["rwnv_p.5q2", "prnv", "deepwalk"])
def test_every_engine_step_is_resident(graph, task):
    store = _stores()[graph]
    csr = store.csr
    if task == "prnv":
        cfg = PRNVConfig(n_queries=2, samples_per_query=3 * csr.n, seed=7)
        wt, starts = cfg.task(), cfg.starts(csr)
    else:
        wt = WalkTask(max_len=8, p=0.5, q=2.0, first_order=task == "deepwalk", seed=7)
        starts = all_vertex_starts(csr, 2)
    system = GraphSystem(store=store)
    runs = [(e, {}) for e in (FIRST_ORDER if wt.first_order else SECOND_ORDER)]
    if not wt.first_order:
        runs += [("GraSorw", {"loading": "ondemand"})]
    for engine, kw in runs:
        with residency_checked() as seen:
            res = system.run(engine, wt, starts, **kw)
        assert sum(seen) == res.sim.steps > 0, engine  # every step was checked


class _ExtendsFromAncillary(BiBlockPolicy):
    """Wrong Algorithm 2 line 14: extends walks whose previous vertex is
    *not* in the current block, so their next bucket lacks that block."""

    def extends(self, walks, curb, b, bucket):
        return (curb > bucket) & (self.bmap[walks.prev] != b)


def _run_mutant(store, task, starts):
    sim = DiskSim(params=store.params)
    rec = make_recorder(store.csr, task, starts, record_paths=True)
    policy = _ExtendsFromAncillary(store, sim, BlockLoader(store, sim, mode=FULL))
    return run_engine(store, task, starts, IterationScheduler(), policy, rec, "mutant")


def test_wrong_extension_rule_trips_the_check():
    csr = random_csr(80, 300, seed=1)
    store = BlockStore(csr, even_partition(csr.n, 6))
    task = WalkTask(max_len=12, p=0.5, q=2.0, seed=5)
    starts = all_vertex_starts(csr, 2)
    # Unchecked, the broken schedule still walks the reference trajectories...
    res = _run_mutant(store, task, starts)
    assert np.array_equal(res.recorder.paths, reference_walk(csr, task, starts).paths)
    # ...so only the residency check can tell it is wrong.
    with residency_checked(), pytest.raises(AssertionError, match="previous vertex"):
        _run_mutant(store, task, starts)
