"""Tests for the distributed DataFrame walk engine (repro.spark_walk).

The headline check: the Spark iterative-join engine produces trajectories
bit-identical to the numpy reference walker (and therefore to every disk
engine) — same counter-based RNG, same cumulative-sum sampling rule.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graphs.csr import build_csr
from repro.graphs.generators import er_pairs_graph, locality_graph
from repro.graphs.partition import sequential_partition
from repro.oracle import assert_equivalent
from repro.spark_walk import (
    block_partitioned_adjacency,
    bucket_stats,
    spark_walk,
    trajectories_to_paths,
    visit_counts,
)
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk
from repro.walks.state import Walks


@pytest.fixture(scope="module")
def graph(spark):
    n = 60
    edges = er_pairs_graph(spark, n=n, m=200, seed=42).localCheckpoint()
    csr = build_csr(edges, n)
    part = sequential_partition(csr.deg, n_blocks=5)
    return edges, csr, part


def _starts_df(spark, wid, src):
    return spark.createDataFrame(pd.DataFrame({"walk_id": wid, "src": src}))


def _sources(csr, k):
    src = np.flatnonzero(csr.deg > 0)[:k].astype(np.int64)
    return np.arange(len(src)), src


class TestParity:
    @pytest.mark.parametrize(
        "p,q", [(1.0, 1.0), (4.0, 0.25), (0.5, 2.0)], ids=["pq1", "p4q.25", "p.5q2"]
    )
    def test_node2vec_parity(self, spark, graph, p, q):
        edges, csr, part = graph
        task = WalkTask(max_len=5, p=p, q=q, seed=31)
        wid, src = _sources(csr, 15)
        ref = reference_walk(csr, task, Walks.from_sources(wid, src))
        traj = spark_walk(edges, csr.n, task, _starts_df(spark, wid, src), part=part)
        paths = trajectories_to_paths(traj, len(wid), task.max_len)
        assert np.array_equal(paths, ref.paths)

    def test_first_order_parity(self, spark, graph):
        edges, csr, part = graph
        task = WalkTask(max_len=6, first_order=True, seed=33)
        wid, src = _sources(csr, 12)
        ref = reference_walk(csr, task, Walks.from_sources(wid, src))
        traj = spark_walk(edges, csr.n, task, _starts_df(spark, wid, src))
        assert np.array_equal(
            trajectories_to_paths(traj, len(wid), task.max_len), ref.paths
        )

    def test_prnv_parity(self, spark, graph):
        edges, csr, part = graph
        task = WalkTask(max_len=8, alpha=0.85, seed=35)
        q = int(np.argmax(csr.deg))
        wid = np.arange(25)
        src = np.full(25, q)
        ref = reference_walk(csr, task, Walks.from_sources(wid, src))
        traj = spark_walk(edges, csr.n, task, _starts_df(spark, wid, src), part=part)
        assert np.array_equal(
            trajectories_to_paths(traj, 25, task.max_len), ref.paths
        )

    def test_parity_implies_disk_engine_parity(self, spark, graph):
        """Spark engine vs the bi-block disk engine directly."""
        from repro.disk.store import BlockStore
        from repro.engines.bi_block import run_bi_block

        edges, csr, part = graph
        task = WalkTask(max_len=5, p=2.0, q=0.5, seed=37)
        wid, src = _sources(csr, 20)
        store = BlockStore(csr, part)
        res = run_bi_block(
            store, task, Walks.from_sources(wid, src), record_paths=True
        )
        traj = spark_walk(edges, csr.n, task, _starts_df(spark, wid, src), part=part)
        assert np.array_equal(
            trajectories_to_paths(traj, len(wid), task.max_len), res.recorder.paths
        )


class TestDataflowPieces:
    def test_block_partitioned_adjacency(self, spark, graph):
        edges, csr, part = graph
        adj = block_partitioned_adjacency(edges, part)
        assert adj.count() == csr.n_arcs
        # block column matches the partition
        pdf = adj.toPandas()
        assert np.array_equal(
            pdf["blk"].to_numpy(), part.block_of(pdf["src"].to_numpy())
        )

    def test_visit_counts_oracle(self, spark, graph):
        edges, csr, part = graph
        task = WalkTask(max_len=4, seed=39)
        wid, src = _sources(csr, 10)
        traj = spark_walk(edges, csr.n, task, _starts_df(spark, wid, src)).localCheckpoint()
        assert_equivalent(
            visit_counts(traj).select("vertex", F.col("visits").cast("long").alias("visits")),
            "SELECT vertex, COUNT(*) AS visits FROM t GROUP BY vertex",
            t=traj,
        )

    def test_bucket_stats_matches_eq4(self, spark, graph):
        """Bucket occupancy computed in Spark equals the numpy skewed-storage
        rule applied to the same state."""
        edges, csr, part = graph
        rng = np.random.default_rng(0)
        n = 200
        cur = rng.choice(np.flatnonzero(csr.deg > 0), n)
        prev = np.array([csr.neighbors(v)[0] for v in cur])
        state = spark.createDataFrame(
            pd.DataFrame(
                {"walk_id": np.arange(n), "prev": prev, "cur": cur, "hop": 1}
            )
        )
        got = bucket_stats(state, part).toPandas()
        pb, cb = part.block_of(prev), part.block_of(cur)
        expect = (
            pd.DataFrame(
                {"pool_block": np.minimum(pb, cb), "bucket": np.maximum(pb, cb)}
            )
            .value_counts()
            .rename("walks")
            .reset_index()
        )
        g = got.sort_values(["pool_block", "bucket"]).reset_index(drop=True)
        e = expect.sort_values(["pool_block", "bucket"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(g, e[g.columns], check_dtype=False)

    def test_bucket_stats_triangular(self, spark, graph):
        edges, csr, part = graph
        state = spark.createDataFrame(
            pd.DataFrame({"walk_id": [0], "prev": [0], "cur": [csr.n - 1], "hop": [1]})
        )
        row = bucket_stats(state, part).collect()[0]
        assert row["pool_block"] <= row["bucket"]


class TestTermination:
    def test_dead_end_vertex_drops_walk(self, spark):
        # 0-1 edge plus isolated 2: a walk from 2 records only hop 0.
        edges = spark.createDataFrame(pd.DataFrame({"src": [0], "dst": [1]}))
        task = WalkTask(max_len=5, seed=41)
        traj = spark_walk(edges, 3, task, _starts_df(spark, np.array([0]), np.array([2])))
        pdf = traj.toPandas()
        assert len(pdf) == 1 and pdf["hop"].iloc[0] == 0

    def test_walk_lengths_capped(self, spark, graph):
        edges, csr, part = graph
        task = WalkTask(max_len=3, seed=43)
        wid, src = _sources(csr, 8)
        traj = spark_walk(edges, csr.n, task, _starts_df(spark, wid, src))
        assert traj.agg(F.max("hop")).collect()[0][0] == 3

    def test_locality_graph_parity(self, spark):
        """Different topology, block-partitioned adjacency path."""
        n = 80
        edges = locality_graph(spark, n=n, deg=4, window=10, seed=45).localCheckpoint()
        csr = build_csr(edges, n)
        part = sequential_partition(csr.deg, n_blocks=4)
        task = WalkTask(max_len=4, p=0.25, q=4.0, seed=47)
        wid, src = _sources(csr, 10)
        ref = reference_walk(csr, task, Walks.from_sources(wid, src))
        traj = spark_walk(edges, n, task, _starts_df(spark, wid, src), part=part)
        assert np.array_equal(
            trajectories_to_paths(traj, len(wid), task.max_len), ref.paths
        )
