"""``lpa_labels`` equals a plain numpy label propagation.

The rule being pinned: every round, synchronously, each vertex adopts the
most frequent label among its neighbours' labels of the previous round,
ties going to the smallest label; a vertex without neighbours keeps its
label. Labels start as the vertex ids, so the first round is all ties.
"""
import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graphs.partition import lpa_labels


def lpa_reference(src: np.ndarray, dst: np.ndarray, n: int, iters: int) -> np.ndarray:
    """Numpy LPA over the undirected edges ``(src[i], dst[i])``."""
    tail = np.concatenate([src, dst])
    head = np.concatenate([dst, src])
    lab = np.arange(n, dtype=np.int64)
    for _ in range(iters):
        new = lab.copy()
        for v in range(n):
            heard = lab[tail[head == v]]
            if len(heard):
                vals, counts = np.unique(heard, return_counts=True)  # vals ascending
                new[v] = vals[np.argmax(counts)]  # first maximum: smallest label
        lab = new
    return lab


@st.composite
def graphs(draw):
    """A canonical edge list (src < dst, no duplicates) on ``n`` vertices,
    of which the last ``isolated`` touch no edge."""
    n = draw(st.integers(2, 14))
    isolated = draw(st.integers(0, 3))
    k = n - isolated if n - isolated >= 2 else n
    pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(
        lambda p: p[0] != p[1]
    )
    edges = draw(st.sets(pairs.map(lambda p: (min(p), max(p))), min_size=1, max_size=2 * k))
    src, dst = (np.array(c, dtype=np.int64) for c in zip(*sorted(edges)))
    return n, src, dst


def test_reference_rule_on_a_hand_graph():
    # 0-1, 0-2, 1-2, 2-3; vertex 4 isolated. Round 1: each takes its smallest
    # neighbour id; round 2: vertex 3 hears only 0, vertex 2 hears {1, 0, 2}.
    src = np.array([0, 0, 1, 2])
    dst = np.array([1, 2, 2, 3])
    assert lpa_reference(src, dst, 5, 1).tolist() == [1, 0, 0, 2, 4]
    assert lpa_reference(src, dst, 5, 2).tolist() == [0, 0, 0, 0, 4]


@pytest.mark.parametrize("iters", [1, 2, 3, 4])
@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(g=graphs())
def test_lpa_labels_match_numpy_reference(spark, iters, g):
    n, src, dst = g
    edges = spark.createDataFrame(pd.DataFrame({"src": src, "dst": dst}))
    got = lpa_labels(edges, n, iters).toPandas().sort_values("v")
    assert got["v"].tolist() == list(range(n))
    assert got["label"].tolist() == lpa_reference(src, dst, n, iters).tolist()
