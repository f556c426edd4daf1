"""GraSorw system facade: Spark-built disk image + engine dispatch.

``GraphSystem.build`` runs the Spark side (CSR sort, partitioning, optional
METIS-lite relabeling, block materialization on disk) and returns a system
handle; ``run`` dispatches to any of the paper's engines; ``train_load_model``
implements the §5.2.2 protocol (the task's full-load and on-demand load
records, then the per-block linear fits) with one walk pass and two
accountings.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from pyspark.sql import DataFrame

from repro.disk.iosim import DiskSim, IOParams
from repro.disk.store import BlockStore
from repro.engines.base import EngineResult, walk_sweeps
from repro.engines.bi_block import BiBlockPolicy, run_bi_block
from repro.engines.first_order import FirstOrderPolicy, run_first_order
from repro.engines.loading import FULL, LEARNED, ONDEMAND, BlockLoader, LearnedLoadModel, LoadLogs
from repro.engines.plain_bucket import run_plain_bucket
from repro.engines.sgsc import run_sgsc
from repro.engines.sogw import run_sogw
from repro.graphs.csr import CSR, build_csr
from repro.graphs.partition import (
    Partition,
    metis_lite_partition,
    relabel_edges,
    sequential_partition,
)
from repro.walks.models import WalkTask
from repro.walks.state import Walks


@dataclass
class GraphSystem:
    """A partitioned graph on (simulated) disk plus its I/O configuration."""

    store: BlockStore
    cache: str = "none"  # page-cache mode handed to each run's DiskSim
    perm: np.ndarray | None = None  # vertex relabeling, if a custom partition

    @classmethod
    def build(
        cls,
        edges: DataFrame,
        n: int,
        *,
        n_blocks: int | None = None,
        block_bytes: int | None = None,
        partition: str = "seq",
        cache: str = "none",
        params: IOParams | None = None,
        physical_dir: str | Path | None = None,
    ) -> "GraphSystem":
        """Build the disk image: partition, CSR (Spark sort), blocks.

        ``seq`` sorts the CSR first and splits its degrees on the driver.
        ``metis`` materializes the edges once, so the degree job, the LPA
        rounds and the relabeled CSR sort all read them instead of
        re-running the generator plan."""
        perm = None
        if partition == "metis":
            if n_blocks is None:
                raise ValueError("metis partition requires n_blocks")
            edges = edges.localCheckpoint()
            perm, part = metis_lite_partition(edges, n, n_blocks)
            csr = build_csr(relabel_edges(edges, perm), n)
        elif partition == "seq":
            csr = build_csr(edges, n)
            part = sequential_partition(csr.deg, n_blocks=n_blocks, block_bytes=block_bytes)
        else:
            raise ValueError(f"unknown partition {partition!r}")
        store = BlockStore(csr, part, params=params, physical_dir=physical_dir)
        return cls(store=store, cache=cache, perm=perm)

    def new_sim(self) -> DiskSim:
        return DiskSim(params=self.store.params, cache=self.cache)

    @property
    def csr(self) -> CSR:
        return self.store.csr

    @property
    def part(self) -> Partition:
        return self.store.part

    def run(
        self,
        engine: str,
        task: WalkTask,
        starts: Walks,
        *,
        load_model: LearnedLoadModel | None = None,
        loading: str | None = None,
        record_paths: bool = False,
        **kw,
    ) -> EngineResult:
        """Run one engine: SOGW, SGSC, PB, GraSorw (bi-block), GraphWalker
        or GraSorw-FO (first-order, Iteration-based unless ``scheduler=``).
        GraSorw and GraSorw-FO load blocks by the learned model when given
        ``load_model`` and fully otherwise; ``loading=`` forces a mode
        ("full", "ondemand" or "learned")."""
        sim = self.new_sim()
        if engine == "SOGW":
            return run_sogw(self.store, task, starts, sim=sim, record_paths=record_paths, **kw)
        if engine == "SGSC":
            return run_sgsc(self.store, task, starts, sim=sim, record_paths=record_paths, **kw)
        if engine == "PB":
            return run_plain_bucket(
                self.store, task, starts, sim=sim, record_paths=record_paths, **kw
            )
        if engine == "GraSorw":
            mode = loading or (LEARNED if load_model is not None else FULL)
            return run_bi_block(
                self.store,
                task,
                starts,
                sim=sim,
                loading=mode,
                load_model=load_model,
                record_paths=record_paths,
                name="GraSorw",
                **kw,
            )
        if engine == "GraphWalker":
            return run_first_order(
                self.store, task, starts, sim=sim, scheduler="graphwalker",
                loading=FULL, name="GraphWalker", record_paths=record_paths, **kw,
            )
        if engine == "GraSorw-FO":
            mode = loading or (LEARNED if load_model is not None else FULL)
            name = "GraSorw" if mode == LEARNED else "GraSorw-No-LBL"
            sched = kw.pop("scheduler", "iteration")
            return run_first_order(
                self.store, task, starts, sim=sim, scheduler=sched,
                loading=mode, load_model=load_model, name=name,
                record_paths=record_paths, **kw,
            )
        raise ValueError(f"unknown engine {engine!r}")

    def train_load_model(
        self, task: WalkTask, starts: Walks, *, first_order: bool = False
    ) -> tuple[LearnedLoadModel, LoadLogs]:
        """§5.2.2: fit the model to the records of a forced full-load run
        followed by those of a forced on-demand run, under Iteration-based
        scheduling. The mode moves no walk, and such a run is charged from
        the records of one hop-synchronous pass, so one pass makes both: its
        records are charged once through each forced loader."""
        cls = FirstOrderPolicy if first_order else BiBlockPolicy
        logs = {FULL: LoadLogs(), ONDEMAND: LoadLogs()}
        policies = []
        for mode, log in logs.items():
            sim = self.new_sim()
            policies.append(cls(self.store, sim, BlockLoader(self.store, sim, mode=mode, logs=log)))
        records = walk_sweeps(self.store, task, starts, policies[1], None)  # keeps the marks
        for policy in policies:
            records.charge(policy)
        full, od = logs.values()
        full.extend(od.bid, od.eta, od.t, od.mode)
        return LearnedLoadModel.fit(full, self.store.n_blocks), full
