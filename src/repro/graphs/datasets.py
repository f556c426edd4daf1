"""Named dataset registry: laptop-scale analogues of the paper's graphs.

Table 2's real graphs (85 M – 226 B edges) are replaced by deterministic
synthetic analogues matched on the properties that drive the scheduling
behaviour: block count ``N_B``, degree skew, and the sequential-partition
edge-cut regime (UK200705's web-graph locality → our ``locality_graph``).
Table 5's NetworkX synthetics are regenerated directly at reduced scale.
Every substitution is listed in DESIGN.md §4; paper-side reference values
are carried in each spec's ``paper`` dict so the table jobs can print them
side by side.

Page-cache mode: the paper's Table 5/6 graphs (≤ 6.3 GB) fit the server's
377 GB RAM, so their specs set ``cache="all"``; the Table 2 graphs are far
bigger than RAM → ``cache="none"``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.grasorw import GraphSystem
from repro.graphs import generators as G
from repro.graphs.partition import degree_array, edge_cut, sequential_partition


@dataclass(frozen=True)
class DatasetSpec:
    """A named synthetic dataset plus its task scaling and paper reference."""

    name: str
    maker: Callable[[SparkSession], DataFrame]
    n: int
    n_blocks: int
    cache: str = "none"
    # Task scaling for the lite benchmarks (paper: wpv=10, len=80).
    rwnv_wpv: int = 10
    rwnv_len: int = 80
    prnv_queries: int = 10
    prnv_spq: int | None = None  # None → 4·|V|
    paper: dict = field(default_factory=dict)

    def edges(self, spark: SparkSession) -> DataFrame:
        return self.maker(spark)

    def build(self, spark: SparkSession, *, partition: str = "seq", **kw) -> GraphSystem:
        return GraphSystem.build(
            self.edges(spark),
            self.n,
            n_blocks=self.n_blocks,
            partition=partition,
            cache=self.cache,
            **kw,
        )


# --------------------------------------------------------------------------
# Table 2 analogues (big disk-resident graphs → cache="none")
# --------------------------------------------------------------------------
TABLE2: dict[str, DatasetSpec] = {
    "lj_lite": DatasetSpec(
        name="lj_lite",
        maker=lambda s: G.rmat_graph(s, scale=12, m=55_000, seed=101),
        n=4096,
        n_blocks=17,
        rwnv_wpv=10,
        rwnv_len=80,
        paper={"graph": "LiveJournal", "V": 4.8e6, "E": 85.7e6, "blocks": 17,
               "edge_cut": 0.7651},
    ),
    "tw_lite": DatasetSpec(
        name="tw_lite",
        maker=lambda s: G.rmat_graph(s, scale=13, m=160_000, seed=102),
        n=8192,
        n_blocks=18,
        rwnv_wpv=4,
        rwnv_len=40,
        prnv_queries=5,
        paper={"graph": "Twitter", "V": 41.7e6, "E": 2.4e9, "blocks": 18,
               "edge_cut": 0.8936},
    ),
    "fr_lite": DatasetSpec(
        name="fr_lite",
        maker=lambda s: G.er_pairs_graph(s, n=8192, m=180_000, seed=103),
        n=8192,
        n_blocks=27,
        rwnv_wpv=4,
        rwnv_len=40,
        prnv_queries=5,
        paper={"graph": "Friendster", "V": 65.6e6, "E": 3.6e9, "blocks": 27,
               "edge_cut": 0.9143},
    ),
    "uk_lite": DatasetSpec(
        name="uk_lite",
        maker=lambda s: G.locality_graph(s, n=8192, deg=20, window=64,
                                         long_frac=0.03, seed=104),
        n=8192,
        n_blocks=25,
        rwnv_wpv=4,
        rwnv_len=40,
        prnv_queries=5,
        paper={"graph": "UK200705", "V": 105e6, "E": 6.6e9, "blocks": 25,
               "edge_cut": 0.3249},
    ),
    "kron_lite": DatasetSpec(
        name="kron_lite",
        maker=lambda s: G.rmat_graph(s, scale=13, m=250_000, a=0.62, b=0.17,
                                     c=0.17, seed=105),
        n=8192,
        n_blocks=13,
        rwnv_wpv=4,
        rwnv_len=40,
        prnv_queries=5,
        paper={"graph": "Kron29", "V": 277e6, "E": 33.7e9, "blocks": 13,
               "edge_cut": 0.9266},
    ),
    "cw_lite": DatasetSpec(
        name="cw_lite",
        maker=lambda s: G.locality_graph(s, n=16384, deg=18, window=96,
                                         long_frac=0.02, seed=106),
        n=16384,
        n_blocks=9,
        rwnv_wpv=2,
        rwnv_len=40,
        prnv_queries=3,
        paper={"graph": "CrawlWeb", "V": 3.6e9, "E": 226e9, "blocks": 9,
               "edge_cut": float("nan")},
    ),
}

# --------------------------------------------------------------------------
# Table 5 analogues (RAM-resident synthetics → cache="all")
# --------------------------------------------------------------------------
TABLE5: dict[str, DatasetSpec] = {
    # -- skewness family: same V/E, different degree distributions ---------
    "circulant_lite": DatasetSpec(
        name="circulant_lite",
        maker=lambda s: G.circulant_graph(s, n=4096, offsets=list(range(1, 21))),
        n=4096, n_blocks=12, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "CirculantG", "V": 40e6, "E": 1.6e9, "deg": 40},
    ),
    "randomg_lite": DatasetSpec(
        name="randomg_lite",
        maker=lambda s: G.er_pairs_graph(s, n=4096, m=82_000, seed=201),
        n=4096, n_blocks=12, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "RandomG", "V": 40e6, "E": 1.6e9, "deg": 40},
    ),
    "basf_lite": DatasetSpec(
        name="basf_lite",
        maker=lambda s: G.ba_graph(s, n=4096, m=20, seed=202),
        n=4096, n_blocks=12, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "BASF", "V": 40e6, "E": 1.6e9, "deg": 40},
    ),
    # -- density family: fixed E, shrinking V ------------------------------
    "randomg1_lite": DatasetSpec(
        name="randomg1_lite",
        maker=lambda s: G.er_pairs_graph(s, n=20480, m=51_200, seed=211),
        n=20480, n_blocks=10, cache="all", rwnv_wpv=5, rwnv_len=40,
        prnv_queries=5,
        paper={"graph": "RandomG1", "V": 100e6, "E": 500e6, "deg": 5},
    ),
    "randomg2_lite": DatasetSpec(
        name="randomg2_lite",
        maker=lambda s: G.er_pairs_graph(s, n=2048, m=51_200, seed=212),
        n=2048, n_blocks=11, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "RandomG2", "V": 10e6, "E": 500e6, "deg": 50},
    ),
    "randomg3_lite": DatasetSpec(
        name="randomg3_lite",
        maker=lambda s: G.er_pairs_graph(s, n=1024, m=51_200, seed=213),
        n=1024, n_blocks=11, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "RandomG3", "V": 1e6, "E": 500e6, "deg": 500},
    ),
    "randomg4_lite": DatasetSpec(
        name="randomg4_lite",
        maker=lambda s: G.er_pairs_graph(s, n=512, m=51_200, seed=214),
        n=512, n_blocks=11, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "RandomG4", "V": 100e3, "E": 500e6, "deg": 5000},
    ),
    "randomg5_lite": DatasetSpec(
        name="randomg5_lite",
        maker=lambda s: G.complete_graph(s, n=320),
        n=320, n_blocks=10, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "RandomG5", "V": 22_360, "E": 500e6, "deg": 22_359},
    ),
    # -- community family (SBM) --------------------------------------------
    "sbm1_lite": DatasetSpec(
        name="sbm1_lite",
        maker=lambda s: G.sbm_graph(s, n=512, k=16, p_in=0.9, p_out=0.3, seed=221),
        n=512, n_blocks=21, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "SBM1", "V": 42e3, "E": 580e6, "p": 0.3, "q": 0.9},
    ),
    "sbm2_lite": DatasetSpec(
        name="sbm2_lite",
        maker=lambda s: G.sbm_graph(s, n=512, k=16, p_in=0.6, p_out=0.6, seed=222),
        n=512, n_blocks=21, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "SBM2", "V": 42e3, "E": 1.06e9, "p": 0.6, "q": 0.6},
    ),
    "sbm3_lite": DatasetSpec(
        name="sbm3_lite",
        maker=lambda s: G.sbm_graph(s, n=512, k=16, p_in=0.3, p_out=0.9, seed=223),
        n=512, n_blocks=21, cache="all", rwnv_wpv=5, rwnv_len=40,
        paper={"graph": "SBM3", "V": 42e3, "E": 1.54e9, "p": 0.9, "q": 0.3},
    ),
}

# --------------------------------------------------------------------------
# Extra dataset for the Table 4 partition study. The paper's UK200705 is
# *not* optimally ordered (METIS drops its edge-cut from 32% to 0.33%), but
# our uk_lite achieves its low cut *through* sequential locality, leaving
# METIS-lite nothing to find. ukx_lite is the same graph with vertex ids
# deterministically scrambled: sequential partitioning is blind on it, and
# METIS-lite must recover the hidden locality — the situation Table 4
# actually studies.
# --------------------------------------------------------------------------
def _scrambled_uk(spark: SparkSession) -> DataFrame:
    import numpy as np

    from repro.graphs.partition import relabel_edges

    base = G.locality_graph(spark, n=8192, deg=20, window=64, long_frac=0.03,
                            seed=104)
    perm = np.random.default_rng(1040).permutation(8192).astype(np.int64)
    return relabel_edges(base, perm)


TABLE4_EXTRA: dict[str, DatasetSpec] = {
    "ukx_lite": DatasetSpec(
        name="ukx_lite",
        maker=_scrambled_uk,
        n=8192,
        n_blocks=25,
        rwnv_wpv=4,
        rwnv_len=40,
        prnv_queries=5,
        paper={"graph": "UK200705 (scrambled ids)", "V": 105e6, "E": 6.6e9,
               "blocks": 25, "edge_cut": 0.3249},
    ),
}

ALL: dict[str, DatasetSpec] = {**TABLE2, **TABLE5, **TABLE4_EXTRA}


def dataset_stats(spark: SparkSession, specs: dict[str, DatasetSpec]) -> pd.DataFrame:
    """Table 2 / Table 5 statistics for a family of datasets: vertex and
    (directed) edge counts, CSR bytes, block size/count, sequential-partition
    edge-cut — all computed with Spark aggregations over edges generated
    once per dataset."""
    rows = []
    for spec in specs.values():
        edges = spec.edges(spark).localCheckpoint()
        deg = degree_array(edges, spec.n)
        m = int(deg.sum()) // 2
        part = sequential_partition(deg, n_blocks=spec.n_blocks)
        cut = edge_cut(edges, part)
        csr_bytes = 4 * (spec.n + 1) + 4 * 2 * m
        rows.append(
            {
                "dataset": spec.name,
                "V": spec.n,
                "E_undirected": m,
                "avg_deg": round(2 * m / spec.n, 1),
                "csr_bytes": csr_bytes,
                "n_blocks": part.n_blocks,
                "block_bytes": csr_bytes // part.n_blocks,
                "edge_cut": round(cut, 4),
                "paper_graph": spec.paper.get("graph", ""),
                "paper_edge_cut": spec.paper.get("edge_cut", float("nan")),
            }
        )
    return pd.DataFrame(rows)
