"""Property-based tests (hypothesis) for the substrate invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import csr_from_arrays
from repro.graphs.partition import Partition
from repro.rng import unit_hash
from repro.walks.models import WalkTask, batch_step
from repro.walks.state import Walks, skewed_block_of


@st.composite
def small_graph(draw):
    n = draw(st.integers(4, 24))
    m = draw(st.integers(n, 3 * n))
    seed = draw(st.integers(0, 1000))
    rng = np.random.default_rng(seed)
    pairs = {(min(a, b), max(a, b)) for a, b in rng.integers(0, n, (m, 2)) if a != b}
    if not pairs:
        pairs = {(0, 1)}
    src = np.array([p[0] for p in pairs] + [p[1] for p in pairs])
    dst = np.array([p[1] for p in pairs] + [p[0] for p in pairs])
    return csr_from_arrays(n, src, dst)


class TestRNGProperties:
    @given(st.integers(0, 2**62), st.integers(0, 2**40), st.integers(0, 1023))
    @settings(max_examples=200, deadline=None)
    def test_unit_range(self, seed, wid, hop):
        u = float(unit_hash(seed, wid, hop))
        assert 0.0 <= u < 1.0

    @given(st.integers(0, 2**20), st.integers(0, 2**20))
    @settings(max_examples=100, deadline=None)
    def test_batch_scalar_consistency(self, wid, hop):
        batch = unit_hash(7, np.array([wid, wid + 1]), np.array([hop, hop]))
        assert float(unit_hash(7, wid, hop)) == float(batch[0])


class TestSamplerProperties:
    @given(small_graph(), st.integers(0, 100),
           st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]),
           st.sampled_from([0.25, 0.5, 1.0, 2.0, 4.0]))
    @settings(max_examples=60, deadline=None)
    def test_next_vertex_always_neighbor(self, csr, seed, p, q):
        cur = np.flatnonzero(csr.deg > 0)
        if len(cur) == 0:
            return
        prev = np.array([csr.neighbors(v)[0] for v in cur])
        task = WalkTask(max_len=10, p=p, q=q, seed=seed)
        w = Walks(
            wid=np.arange(len(cur)), src=cur.copy(), prev=prev,
            cur=cur.copy(), hop=np.ones(len(cur), dtype=np.int64),
        )
        nxt = batch_step(csr, task, w)
        for v, z in zip(cur, nxt):
            assert z in csr.neighbors(v)


class TestStorageProperties:
    @given(st.lists(st.tuples(st.integers(-1, 9), st.integers(0, 9)), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_skewed_rule(self, pairs):
        pb = np.array([a for a, _ in pairs])
        cb = np.array([b for _, b in pairs])
        out = skewed_block_of(pb, cb)
        for i, (a, b) in enumerate(pairs):
            assert out[i] == (b if a < 0 else min(a, b))


class TestPartitionProperties:
    @given(st.integers(2, 500), st.integers(1, 12))
    @settings(max_examples=100, deadline=None)
    def test_block_of_total(self, n, nb):
        cuts = np.unique(np.linspace(0, n, nb + 1).astype(np.int64))
        part = Partition(cuts)
        b = part.block_of(np.arange(n))
        assert b.min() >= 0 and b.max() < part.n_blocks
        assert np.all(np.diff(b) >= 0)
