"""``sequential_partition(n_blocks=k)`` gives exactly k blocks or raises."""
import pandas as pd
import pytest

from repro.graphs import generators as G
from repro.graphs.partition import degree_array, sequential_partition


def _star(spark, n: int):
    """Hub 0 joined to every other vertex: the hub holds a third of the bytes."""
    return spark.createDataFrame(pd.DataFrame({"src": [0] * (n - 1), "dst": list(range(1, n))}))


def test_hub_heavy_graph_raises_with_both_counts(spark):
    with pytest.raises(ValueError, match=r"requested 8 blocks.* only 7 "):
        sequential_partition(degree_array(_star(spark, 40), 40), n_blocks=8)


def test_hub_heavy_graph_still_splits_into_two(spark):
    assert sequential_partition(degree_array(_star(spark, 40), 40), n_blocks=2).n_blocks == 2


def test_block_bytes_mode_is_unchanged(spark):
    p = sequential_partition(degree_array(_star(spark, 40), 40), block_bytes=64)
    assert p.block_starts[0] == 0 and p.block_starts[-1] == 40


def test_regular_graph_gets_every_requested_count(spark):
    deg = degree_array(G.er_pairs_graph(spark, n=120, m=500, seed=9), 120)
    for k in (1, 2, 5, 11):
        assert sequential_partition(deg, n_blocks=k).n_blocks == k
