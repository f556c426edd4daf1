"""Tests for the DuckDB oracle, on a generator's edge DataFrame."""
import pytest
from pyspark.sql import functions as F

from repro.graphs.generators import er_pairs_graph
from repro.oracle import assert_equivalent

DEG_SQL = "SELECT src, COUNT(*) AS deg FROM edges GROUP BY src"


class TestOracle:
    def test_passes_on_equal(self, spark):
        edges = er_pairs_graph(spark, n=50, m=150, seed=3)
        got = edges.groupBy("src").agg(
            F.count("*").cast("long").alias("deg"),
            F.round(F.avg("dst"), 6).alias("mean_dst"),
        )
        assert_equivalent(
            got,
            """
            SELECT src, COUNT(*) AS deg, ROUND(AVG(dst), 6) AS mean_dst
            FROM edges GROUP BY src
            """,
            edges=edges,
        )

    def test_fails_on_wrong_result(self, spark):
        edges = er_pairs_graph(spark, n=50, m=150, seed=3)
        wrong = edges.groupBy("src").agg((F.count("*") + 1).alias("deg"))
        with pytest.raises(AssertionError):
            assert_equivalent(wrong, DEG_SQL, edges=edges)

    def test_fails_on_column_mismatch(self, spark):
        edges = er_pairs_graph(spark, n=50, m=150, seed=3)
        got = edges.groupBy("src").agg(F.count("*").alias("n"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, DEG_SQL, edges=edges)

    def test_accepts_pandas_tables(self, spark):
        edges = er_pairs_graph(spark, n=50, m=150, seed=3)
        pdf = edges.toPandas()
        got = spark.createDataFrame(pdf).groupBy("src").agg(F.count("*").alias("deg"))
        assert_equivalent(got, DEG_SQL, edges=pdf)
