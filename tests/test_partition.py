"""Tests for graph partitioning (repro.graphs.partition)."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.graphs import generators as G
from repro.graphs.partition import (
    Partition,
    block_map_df,
    degree_array,
    edge_cut,
    lpa_labels,
    metis_lite_partition,
    relabel_edges,
    sequential_partition,
    vertex_bytes,
)
from repro.oracle import assert_equivalent


class TestPartitionGeometry:
    def test_block_of(self):
        p = Partition(np.array([0, 10, 25, 40]))
        assert p.n_blocks == 3
        assert list(p.block_of(np.array([0, 9, 10, 24, 25, 39]))) == [0, 0, 1, 1, 2, 2]

    def test_block_slice(self):
        p = Partition(np.array([0, 10, 25, 40]))
        assert p.block_slice(1) == (10, 25)
        assert p.vertices_in_block(2) == 15

    def test_n_vertices(self):
        p = Partition(np.array([0, 5, 9]))
        assert p.n_vertices == 9


class TestSequentialPartition:
    def test_exact_block_count(self, spark):
        deg = degree_array(G.er_pairs_graph(spark, n=200, m=800, seed=1), 200)
        for nb in (3, 7, 12):
            p = sequential_partition(deg, n_blocks=nb)
            assert p.n_blocks == nb
            assert p.block_starts[0] == 0 and p.block_starts[-1] == 200

    def test_blocks_byte_balanced(self, spark):
        e = G.er_pairs_graph(spark, n=300, m=1500, seed=2)
        deg = degree_array(e, 300)
        p = sequential_partition(deg, n_blocks=6)
        vb = vertex_bytes(deg)
        sizes = [vb[a:b].sum() for a, b in zip(p.block_starts[:-1], p.block_starts[1:])]
        assert max(sizes) < 2.0 * min(sizes)

    def test_block_bytes_cap(self, spark):
        e = G.er_pairs_graph(spark, n=200, m=600, seed=3)
        deg = degree_array(e, 200)
        vb = vertex_bytes(deg)
        cap = int(vb.sum() // 5)
        p = sequential_partition(deg, block_bytes=cap)
        for a, b in zip(p.block_starts[:-1], p.block_starts[1:]):
            # greedy fill: the block minus its last vertex stays under cap
            assert vb[a : b - 1].sum() <= cap

    def test_requires_exactly_one_size_arg(self, spark):
        deg = degree_array(G.er_pairs_graph(spark, n=50, m=100, seed=4), 50)
        with pytest.raises(ValueError):
            sequential_partition(deg)
        with pytest.raises(ValueError):
            sequential_partition(deg, n_blocks=2, block_bytes=100)

    def test_degree_array_matches_spark(self, spark):
        e = G.er_pairs_graph(spark, n=100, m=250, seed=5)
        deg = degree_array(e, 100)
        assert deg.sum() == 2 * e.count()


class TestEdgeCut:
    def test_single_block_zero(self, spark):
        e = G.er_pairs_graph(spark, n=60, m=150, seed=6)
        assert edge_cut(e, Partition(np.array([0, 60]))) == 0.0

    def test_oracle(self, spark):
        e = G.er_pairs_graph(spark, n=80, m=200, seed=7)
        p = sequential_partition(degree_array(e, 80), n_blocks=4)
        bm = block_map_df(spark, p)
        got = spark.createDataFrame([(float(edge_cut(e, p)),)], "cut double")
        assert_equivalent(
            got,
            """
            SELECT AVG(CASE WHEN bs.block <> bd.block THEN 1.0 ELSE 0.0 END) AS cut
            FROM e JOIN bm bs ON e.src = bs.v JOIN bm bd ON e.dst = bd.v
            """,
            e=e,
            bm=bm,
        )

    def test_locality_graph_low_cut(self, spark):
        local = G.locality_graph(spark, n=512, deg=6, window=16, long_frac=0.02, seed=8)
        rand = G.er_pairs_graph(spark, n=512, m=1536, seed=9)
        p = Partition(np.linspace(0, 512, 9).astype(np.int64))
        assert edge_cut(local, p) < 0.5 * edge_cut(rand, p)


class TestMetisLite:
    def test_perm_is_permutation(self, spark):
        e = G.sbm_graph(spark, n=80, k=4, p_in=0.5, p_out=0.02, seed=10)
        perm, part = metis_lite_partition(e, 80, 4)
        assert sorted(perm.tolist()) == list(range(80))
        assert part.n_blocks == 4 and part.n_vertices == 80

    def test_relabel_preserves_graph(self, spark):
        e = G.er_pairs_graph(spark, n=60, m=150, seed=11)
        perm, _ = metis_lite_partition(e, 60, 3)
        before = e.count()
        relabeled = relabel_edges(e, perm)
        assert relabeled.count() == before
        # Degree multiset is invariant under relabeling.
        d0 = np.sort(degree_array(e, 60))
        d1 = np.sort(degree_array(relabeled, 60))
        assert np.array_equal(d0, d1)

    def test_improves_edge_cut_on_community_graph(self, spark):
        """On an SBM graph with scrambled ids, metis_lite must beat the
        sequential partition's edge-cut — the paper's Table 4 premise."""
        e = G.sbm_graph(spark, n=96, k=6, p_in=0.6, p_out=0.02, seed=12)
        # scramble vertex ids so sequential ranges don't align with communities
        rng = np.random.default_rng(0)
        scramble = rng.permutation(96).astype(np.int64)
        e = relabel_edges(e, scramble).localCheckpoint()
        seq = sequential_partition(degree_array(e, 96), n_blocks=6)
        cut_seq = edge_cut(e, seq)
        perm, part = metis_lite_partition(e, 96, 6)
        cut_metis = edge_cut(relabel_edges(e, perm), part)
        assert cut_metis < cut_seq

    def test_blocks_roughly_balanced(self, spark):
        e = G.er_pairs_graph(spark, n=120, m=400, seed=13)
        perm, part = metis_lite_partition(e, 120, 4)
        deg = degree_array(relabel_edges(e, perm), 120)
        vb = vertex_bytes(deg)
        sizes = [
            vb[a:b].sum() for a, b in zip(part.block_starts[:-1], part.block_starts[1:])
        ]
        assert max(sizes) < 2.5 * max(1, min(sizes))


class TestLPA:
    def test_labels_cover_all_vertices(self, spark):
        e = G.er_pairs_graph(spark, n=50, m=120, seed=14)
        labels = lpa_labels(e, 50, iters=3).toPandas()
        assert sorted(labels["v"]) == list(range(50))

    def test_detects_two_cliques(self, spark):
        # two disjoint cliques → two labels
        a = G.complete_graph(spark, 10)
        b = a.select((F.col("src") + 10).alias("src"), (F.col("dst") + 10).alias("dst"))
        e = a.union(b)
        labels = lpa_labels(e, 20, iters=5).toPandas()
        la = set(labels[labels.v < 10].label)
        lb = set(labels[labels.v >= 10].label)
        assert len(la) == 1 and len(lb) == 1 and la != lb
