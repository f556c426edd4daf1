"""Tests for CSR construction (repro.graphs.csr)."""
import numpy as np
import pytest

from repro.graphs.csr import build_csr, csr_from_arrays
from repro.graphs.generators import er_pairs_graph, to_directed
from repro.oracle import assert_equivalent

from .helpers import path_graph_csr, random_csr, star_graph_csr


class TestFromArrays:
    def test_degrees(self):
        csr = path_graph_csr(5)
        assert list(csr.deg) == [1, 2, 2, 2, 1]

    def test_neighbors_sorted(self):
        csr = random_csr(40, 120, seed=1)
        for v in range(40):
            nb = csr.neighbors(v)
            assert np.all(np.diff(nb) > 0)

    def test_star(self):
        csr = star_graph_csr(6)
        assert csr.deg[0] == 5
        assert np.array_equal(csr.neighbors(0), np.arange(1, 6))

    def test_n_arcs_even(self):
        csr = random_csr(30, 80, seed=2)
        assert csr.n_arcs == 160  # both directions

    def test_isolated_vertex(self):
        csr = csr_from_arrays(4, np.array([0, 1]), np.array([1, 0]))
        assert csr.deg[3] == 0
        assert len(csr.neighbors(3)) == 0


class TestKeysMembership:
    def test_keys_sorted(self):
        csr = random_csr(50, 150, seed=3)
        assert np.all(np.diff(csr.keys) > 0)

    def test_has_arc_positive(self):
        csr = random_csr(50, 150, seed=4)
        u = np.repeat(np.arange(50), csr.deg)
        assert csr.has_arc(u, csr.indices).all()

    def test_has_arc_negative(self):
        csr = path_graph_csr(10)
        assert not csr.has_arc(np.array([0]), np.array([5]))[0]
        assert csr.has_arc(np.array([0]), np.array([1]))[0]

    def test_has_arc_symmetric(self):
        csr = random_csr(40, 100, seed=5)
        u = np.repeat(np.arange(40), csr.deg)
        assert csr.has_arc(csr.indices, u).all()  # undirected


class TestBuildFromSpark:
    def test_matches_duckdb_degrees(self, spark):
        edges = er_pairs_graph(spark, n=80, m=200, seed=7)
        csr = build_csr(edges, 80)
        deg_df = spark.createDataFrame(
            [(int(v), int(d)) for v, d in enumerate(csr.deg)], "v long, deg long"
        )
        assert_equivalent(
            deg_df,
            """
            WITH d AS (
              SELECT src AS v FROM e UNION ALL SELECT dst AS v FROM e
            ), g AS (
              SELECT v, COUNT(*) AS deg FROM d GROUP BY v
            )
            SELECT i.v AS v, COALESCE(g.deg, 0) AS deg
            FROM (SELECT UNNEST(RANGE(80)) AS v) i LEFT JOIN g USING (v)
            """,
            e=edges,
        )

    def test_matches_edge_list(self, spark):
        edges = er_pairs_graph(spark, n=50, m=120, seed=8)
        csr = build_csr(edges, 50)
        arcs = to_directed(edges).toPandas()
        got = set(zip(np.repeat(np.arange(50), csr.deg), csr.indices))
        assert got == set(zip(arcs["src"], arcs["dst"]))

    @pytest.mark.parametrize("n,m", [(20, 30), (100, 400)])
    def test_arc_count(self, spark, n, m):
        edges = er_pairs_graph(spark, n=n, m=m, seed=9)
        csr = build_csr(edges, n)
        assert csr.n_arcs == 2 * edges.count()
