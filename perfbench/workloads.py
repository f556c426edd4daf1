"""Workloads of the two-clock benchmark.

A workload is one graph disk image (a named dataset under one partition)
plus one *pass*: a fixed sequence of engine calls over it. The benchmark
builds the image, runs one untimed warm-up pass that records paths, then
repeats the pass until its time is up.

Task scaling: ``table`` is the exact task the result tables use (walk seed
7 reproduces the rows of ``results/*.csv``); ``bench`` shortens the RWNV
and DeepWalk hop length to :data:`BENCH_HOPS` so a pass takes seconds, not
minutes. Walk counts, graphs, partitions and the engine mix are the same at
both scales: the number of walks, not their length, sets batch sizes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.tasks import DeepWalkConfig, PRNVConfig, RWNVConfig
from repro.graphs.datasets import TABLE2, TABLE4_EXTRA, DatasetSpec

#: RWNV / DeepWalk hop length at bench scale (tables: 80 on lj_lite, 40 on ukx_lite).
BENCH_HOPS = 5

#: Engine name of the §5.2.2 training call (``GraphSystem.train_load_model``).
TRAIN = "train"


@dataclass(frozen=True)
class Call:
    """One engine call of a pass.

    ``label`` is ``<task>.<engine role>``; it names the call in the printed
    timings, the trace and the per-call counter metrics. ``csv`` names the
    ``results/`` file and the row filter its counters must equal at table
    scale and walk seed 7.
    """

    label: str
    task: str
    engine: str
    loading: str | None = None
    uses_model: bool = False  # takes the model fitted by the pass's TRAIN call
    csv: tuple[str, dict] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    partition: str
    setup_reps: int
    tasks: Callable[[str, int], dict]  # (scale, walk seed) -> {task: config}
    calls: tuple[Call, ...]
    grasorw: tuple[str, ...]  # bi-block calls behind grasorw_steps_per_s
    speedup: tuple[tuple[str, str], ...]  # (baseline, GraSorw) label pairs

    @property
    def spec(self) -> DatasetSpec:
        return {**TABLE2, **TABLE4_EXTRA}[self.dataset]


def _row(table: str, bench: str, engine: str, **extra) -> tuple[str, dict]:
    return table, {"bench": bench, "engine": engine, **extra}


def _highcut_tasks(scale: str, seed: int) -> dict:
    hops = 80 if scale == "table" else BENCH_HOPS
    return {
        "rwnv": RWNVConfig(walks_per_vertex=10, length=hops, seed=seed),
        "prnv": PRNVConfig(n_queries=10, seed=seed),
        "deepwalk": DeepWalkConfig(walks_per_vertex=10, length=hops, seed=seed),
    }


def _metis_tasks(scale: str, seed: int) -> dict:
    hops = 40 if scale == "table" else BENCH_HOPS
    return {"rwnv": RWNVConfig(walks_per_vertex=4, length=hops, seed=seed)}


_METIS_ROW = {"partition": "metis"}

WORKLOADS: dict[str, Workload] = {
    "highcut": Workload(
        name="highcut",
        dataset="lj_lite",
        partition="seq",
        setup_reps=3,
        tasks=_highcut_tasks,
        calls=(
            Call("rwnv.GraSorw", "rwnv", "GraSorw", loading="full",
                 csv=_row("e2e", "RWNV", "GraSorw")),
            Call("rwnv.PB", "rwnv", "PB", csv=_row("table3", "RWNV", "PB")),
            Call("rwnv.SOGW", "rwnv", "SOGW", csv=_row("e2e", "RWNV", "SOGW")),
            Call("prnv.GraSorw", "prnv", "GraSorw", loading="full",
                 csv=_row("e2e", "PRNV", "GraSorw")),
            Call("prnv.SOGW", "prnv", "SOGW", csv=_row("e2e", "PRNV", "SOGW")),
            Call("prnv.SGSC", "prnv", "SGSC", csv=_row("e2e", "PRNV", "SGSC")),
            Call("deepwalk.GraphWalker", "deepwalk", "GraphWalker",
                 csv=_row("table7", "DeepWalk", "GraphWalker")),
            Call("deepwalk.GraSorw-FO", "deepwalk", "GraSorw-FO", loading="full",
                 csv=_row("table7", "DeepWalk", "GraSorw-No-LBL")),
        ),
        grasorw=("rwnv.GraSorw", "prnv.GraSorw"),
        speedup=(
            ("rwnv.SOGW", "rwnv.GraSorw"),
            ("prnv.SOGW", "prnv.GraSorw"),
            ("deepwalk.GraphWalker", "deepwalk.GraSorw-FO"),
        ),
    ),
    "learned-metis": Workload(
        name="learned-metis",
        dataset="ukx_lite",
        partition="metis",
        setup_reps=1,
        tasks=_metis_tasks,
        calls=(
            Call("rwnv.GraSorw-full", "rwnv", "GraSorw", loading="full",
                 csv=_row("table4", "RWNV", "GraSorw", loading="Pure Full Load",
                          **_METIS_ROW)),
            Call("rwnv.train", "rwnv", TRAIN),
            Call("rwnv.GraSorw", "rwnv", "GraSorw", uses_model=True,
                 csv=_row("table4", "RWNV", "GraSorw", loading="Learning-based",
                          **_METIS_ROW)),
        ),
        grasorw=("rwnv.GraSorw",),
        speedup=(("rwnv.GraSorw-full", "rwnv.GraSorw"),),
    ),
}

#: Every call label of every workload, in a stable order (per-call counters).
ALL_LABELS: tuple[str, ...] = tuple(
    dict.fromkeys(c.label for w in WORKLOADS.values() for c in w.calls if c.engine != TRAIN)
)
