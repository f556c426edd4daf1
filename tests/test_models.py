"""Tests for walk transition models and the vectorized sampler
(repro.walks.models): exact Node2vec semantics, fast-path equivalence,
termination rules, and statistical agreement with the exact distribution."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.walks.models import (
    Recorder,
    WalkTask,
    advance,
    batch_step,
    done_mask,
    exact_step_distribution,
)
from repro.walks.state import Walks

from .helpers import path_graph_csr, random_csr, star_graph_csr


def _walks_at(prev, cur, hop=1, wid0=0):
    n = len(cur)
    return Walks(
        wid=np.arange(wid0, wid0 + n),
        src=np.asarray(cur, dtype=np.int64),
        prev=np.asarray(prev, dtype=np.int64),
        cur=np.asarray(cur, dtype=np.int64),
        hop=np.full(n, hop, dtype=np.int64),
    )


class TestExactDistribution:
    def test_first_order_uniform(self):
        csr = star_graph_csr(5)
        d = exact_step_distribution(csr, WalkTask(max_len=10, first_order=True), -1, 0)
        assert d[1:5] == pytest.approx(np.full(4, 0.25))

    def test_node2vec_weights_triangle_plus_leaf(self):
        """Graph: triangle 0-1-2 plus leaf 3 on 1. Walk came 0→1; candidates
        of 1: {0 (return, 1/p), 2 (common neighbor, 1), 3 (distance 2, 1/q)}."""
        src = np.array([0, 1, 0, 2, 1, 3, 1, 2])
        dst = np.array([1, 0, 2, 0, 3, 1, 2, 1])
        from repro.graphs.csr import csr_from_arrays

        csr = csr_from_arrays(4, src, dst)
        p, q = 4.0, 0.25
        d = exact_step_distribution(csr, WalkTask(max_len=10, p=p, q=q), 0, 1)
        w = np.array([1 / p, 1.0, 1 / q])  # for candidates 0, 2, 3
        w = w / w.sum()
        assert d[[0, 2, 3]] == pytest.approx(w)

    def test_p_q_one_is_first_order(self):
        csr = random_csr(30, 80, seed=1)
        t2 = WalkTask(max_len=5, p=1.0, q=1.0)
        t1 = WalkTask(max_len=5, first_order=True)
        v = int(np.argmax(csr.deg))
        u = int(csr.neighbors(v)[0])
        assert exact_step_distribution(csr, t2, u, v) == pytest.approx(
            exact_step_distribution(csr, t1, u, v)
        )

    def test_dead_end_zero(self):
        from repro.graphs.csr import csr_from_arrays

        csr = csr_from_arrays(3, np.array([0, 1]), np.array([1, 0]))
        d = exact_step_distribution(csr, WalkTask(max_len=5), 0, 2)
        assert d.sum() == 0.0


class TestBatchStep:
    def test_next_is_neighbor(self):
        csr = random_csr(50, 150, seed=2)
        task = WalkTask(max_len=10, p=2.0, q=0.5, seed=3)
        cur = np.flatnonzero(csr.deg > 0)[:30]
        prev = np.array([csr.neighbors(v)[0] for v in cur])
        w = _walks_at(prev, cur)
        nxt = batch_step(csr, task, w)
        assert all(z in csr.neighbors(v) for v, z in zip(cur, nxt))

    def test_empty_batch(self):
        csr = path_graph_csr(4)
        assert len(batch_step(csr, WalkTask(max_len=5), Walks.empty())) == 0

    def test_deterministic(self):
        csr = random_csr(40, 120, seed=4)
        task = WalkTask(max_len=10, p=0.5, q=2.0, seed=5)
        cur = np.flatnonzero(csr.deg > 0)[:20]
        prev = np.array([csr.neighbors(v)[-1] for v in cur])
        a = batch_step(csr, task, _walks_at(prev, cur))
        b = batch_step(csr, task, _walks_at(prev, cur))
        assert np.array_equal(a, b)

    def test_order_independence(self):
        """Sampling each walk alone equals sampling them in one batch —
        the property engines rely on for scheduling-invariant results."""
        csr = random_csr(40, 120, seed=6)
        task = WalkTask(max_len=10, p=4.0, q=0.25, seed=7)
        cur = np.flatnonzero(csr.deg > 0)[:15]
        prev = np.array([csr.neighbors(v)[0] for v in cur])
        w = _walks_at(prev, cur)
        batch = batch_step(csr, task, w)
        single = np.array(
            [batch_step(csr, task, w.select(np.arange(len(w)) == i))[0] for i in range(len(w))]
        )
        assert np.array_equal(batch, single)

    def test_uniform_fast_path_matches_general(self):
        """p=q=1 takes the index-pick fast path; it must equal the general
        cumulative-sum rule evaluated with unit weights."""
        from repro.rng import unit_hash
        from repro.walks.models import SALT_STEP

        csr = random_csr(60, 200, seed=8)
        cur = np.flatnonzero(csr.deg > 0)[:40]
        prev = np.array([csr.neighbors(v)[0] for v in cur])
        w = _walks_at(prev, cur)
        fast = batch_step(csr, WalkTask(max_len=9, p=1.0, q=1.0, seed=11), w)
        u = unit_hash(11, w.wid, w.hop, salt=SALT_STEP)
        expect = []
        for i, v in enumerate(cur):
            nbrs = csr.neighbors(v)
            cum = np.cumsum(np.ones(len(nbrs)))
            j = int(np.argmax(cum > u[i] * len(nbrs)))
            expect.append(nbrs[j])
        assert np.array_equal(fast, np.array(expect))

    def test_mixed_first_steps_in_batch(self):
        csr = random_csr(40, 120, seed=9)
        task = WalkTask(max_len=10, p=4.0, q=0.5, seed=13)
        cur = np.flatnonzero(csr.deg > 0)[:10]
        prev = np.array([csr.neighbors(v)[0] for v in cur])
        prev[::2] = -1  # half the batch is on its first (first-order) step
        nxt = batch_step(csr, task, _walks_at(prev, cur))
        assert all(z in csr.neighbors(v) for v, z in zip(cur, nxt))

    @pytest.mark.parametrize("p,q", [(1.0, 1.0), (4.0, 0.25), (0.25, 4.0), (2.0, 0.5)])
    def test_statistical_match_with_exact(self, p, q):
        """Empirical frequencies over many walks match the exact Node2vec
        edge-edge distribution (chi-square-ish tolerance)."""
        csr = random_csr(25, 70, seed=10)
        task = WalkTask(max_len=10, p=p, q=q, seed=17)
        v = int(np.argmax(csr.deg))
        u = int(csr.neighbors(v)[0])
        n = 40_000
        w = Walks(
            wid=np.arange(n),
            src=np.full(n, v),
            prev=np.full(n, u),
            cur=np.full(n, v),
            hop=np.ones(n, dtype=np.int64),
        )
        nxt = batch_step(csr, task, w)
        freq = np.bincount(nxt, minlength=csr.n) / n
        exact = exact_step_distribution(csr, task, u, v)
        assert np.abs(freq - exact).max() < 0.015


class TestDoneMask:
    def test_hop_budget(self):
        csr = path_graph_csr(10)
        task = WalkTask(max_len=3)
        w = _walks_at([4, 4], [5, 5], hop=3)
        assert done_mask(task, csr, w).all()
        w2 = _walks_at([4], [5], hop=2)
        assert not done_mask(task, csr, w2).any()

    def test_dead_end(self):
        from repro.graphs.csr import csr_from_arrays

        csr = csr_from_arrays(3, np.array([0, 1]), np.array([1, 0]))
        task = WalkTask(max_len=10)
        w = _walks_at([0], [2], hop=1)
        assert done_mask(task, csr, w).all()

    def test_restart_never_on_first_step(self):
        csr = path_graph_csr(10)
        task = WalkTask(max_len=10, alpha=0.0001, seed=3)  # near-certain stop
        w = Walks.from_sources(np.arange(5), np.full(5, 4))
        assert not done_mask(task, csr, w).any()

    def test_restart_rate(self):
        csr = star_graph_csr(10)
        alpha = 0.7
        task = WalkTask(max_len=100, alpha=alpha, seed=5)
        n = 20_000
        w = _walks_at(np.zeros(n), np.ones(n), hop=1)
        w.wid = np.arange(n)
        stopped = done_mask(task, csr, w).mean()
        assert abs(stopped - (1 - alpha)) < 0.02

    def test_restart_deterministic_per_walk_hop(self):
        csr = path_graph_csr(6)
        task = WalkTask(max_len=10, alpha=0.5, seed=9)
        w = _walks_at([1, 2], [2, 3], hop=4)
        a = done_mask(task, csr, w)
        b = done_mask(task, csr, w)
        assert np.array_equal(a, b)


class TestAdvanceAndRecorder:
    def test_advance_updates_state(self):
        csr = path_graph_csr(5)
        task = WalkTask(max_len=10, seed=1)
        w = Walks.from_sources(np.array([0]), np.array([2]))
        advance(csr, task, w, None)
        assert w.hop[0] == 1 and w.prev[0] == 2 and w.cur[0] in (1, 3)

    def test_recorder_visits_and_paths(self):
        csr = path_graph_csr(5)
        task = WalkTask(max_len=4, seed=2)
        w = Walks.from_sources(np.array([0, 1]), np.array([2, 2]))
        rec = Recorder(5, 2, 4, record_paths=True, record_visits=True)
        rec.on_start(w)
        assert rec.visits[2] == 2
        advance(csr, task, w, rec)
        assert rec.visits.sum() == 4
        assert (rec.paths[:, 0] == 2).all()
        assert (rec.paths[:, 1] >= 0).all()

    def test_recorder_optional_channels(self):
        rec = Recorder(5, 1, 3, record_paths=False, record_visits=False)
        assert rec.visits is None and rec.paths is None
        w = Walks.from_sources(np.array([0]), np.array([1]))
        rec.on_start(w)  # must not crash
        rec.on_step(w)


def _done_rule(task, csr, walks, keys=None):
    """The termination rule drawing every walk's continue uniform, then
    masking it with ``hop > 0``: the reference for :func:`done_mask`."""
    from repro.rng import keyed_unit, unit_hash
    from repro.walks.models import SALT_CONT

    deg = csr.indptr[walks.cur + 1] - csr.indptr[walks.cur]
    done = (walks.hop >= task.max_len) | (deg == 0)
    if task.alpha is not None and len(walks):
        if keys is None:
            u = unit_hash(task.seed, walks.wid, walks.hop, salt=SALT_CONT)
        else:
            u = keyed_unit(keys[SALT_CONT][walks.wid], walks.hop)
        done |= (walks.hop > 0) & ~(u < task.alpha)
    return done


class TestDoneMaskDraws:
    """``done_mask`` draws the continue uniform only for walks that have
    stepped and are not already done, with the decisions of drawing all."""

    @settings(max_examples=200, deadline=None)
    @given(
        hops=st.lists(st.integers(0, 6), min_size=0, max_size=40),
        alpha=st.floats(0.0, 1.0),
        max_len=st.integers(1, 6),
        seed=st.integers(0, 2**20),
        keyed=st.booleans(),
    )
    def test_matches_drawing_every_walk(self, hops, alpha, max_len, seed, keyed):
        from repro.graphs.csr import csr_from_arrays
        from repro.walks.models import draw_keys

        # Vertices 0-1-2 joined, vertex 3 isolated: a dead end to start from.
        csr = csr_from_arrays(4, np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1]))
        n = len(hops)
        walks = Walks(wid=np.arange(n), src=np.zeros(n, dtype=np.int64),
                      prev=np.where(np.array(hops, dtype=np.int64) > 0, 1, -1),
                      cur=np.arange(n) % 4, hop=np.array(hops, dtype=np.int64))
        task = WalkTask(max_len=max_len, alpha=alpha, seed=seed)
        keys = draw_keys(task, walks) if keyed else None
        got = done_mask(task, csr, walks, keys)
        assert np.array_equal(got, _done_rule(task, csr, walks, keys))

    def test_draws_only_for_stepped_live_walks(self, monkeypatch):
        import repro.walks.models as models

        drawn: list[int] = []
        real = models.unit_hash

        def counted(seed, wid, hop, salt=0):
            drawn.append(len(np.atleast_1d(wid)))
            return real(seed, wid, hop, salt=salt)

        monkeypatch.setattr(models, "unit_hash", counted)
        csr = path_graph_csr(10)
        task = WalkTask(max_len=3, alpha=0.5, seed=1)
        starts = Walks.from_sources(np.arange(8), np.arange(8))
        assert not done_mask(task, csr, starts).any()
        assert drawn == []  # a first step needs no draw
        w = _walks_at(np.arange(6), np.arange(1, 7), hop=2)
        w.hop = np.array([0, 1, 2, 3, 3, 2])  # two at the hop budget, one yet to step
        done_mask(task, csr, w)
        assert drawn == [3]
