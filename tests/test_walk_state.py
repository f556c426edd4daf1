"""Tests for walk state and skewed storage (repro.walks.state)."""
import numpy as np

from repro.walks.state import Walks, skewed_block_of


class TestWalks:
    def test_from_sources(self):
        w = Walks.from_sources(np.array([0, 1, 2]), np.array([5, 6, 7]))
        assert len(w) == 3
        assert np.array_equal(w.prev, [-1, -1, -1])
        assert np.array_equal(w.cur, [5, 6, 7])
        assert np.array_equal(w.hop, [0, 0, 0])

    def test_select(self):
        w = Walks.from_sources(np.arange(5), np.arange(10, 15))
        s = w.select(np.array([True, False, True, False, False]))
        assert np.array_equal(s.wid, [0, 2])
        assert np.array_equal(s.src, [10, 12])

    def test_select_copies(self):
        w = Walks.from_sources(np.arange(3), np.arange(3))
        s = w.select(np.array([True, True, True]))
        s.cur[0] = 99
        assert w.cur[0] != 99

    def test_concat(self):
        a = Walks.from_sources(np.array([0]), np.array([1]))
        b = Walks.from_sources(np.array([1]), np.array([2]))
        c = Walks.concat([a, b, Walks.empty()])
        assert len(c) == 2 and np.array_equal(c.src, [1, 2])

    def test_concat_empty(self):
        assert len(Walks.concat([])) == 0
        assert len(Walks.empty()) == 0


class TestSkewedStorage:
    def test_min_rule(self):
        """§4.3.1: walk w_u^v lives with block min(B(u), B(v))."""
        pb = np.array([2, 0, 3, 1])
        cb = np.array([1, 3, 3, 1])
        assert list(skewed_block_of(pb, cb)) == [1, 0, 3, 1]

    def test_no_prev_uses_cur(self):
        pb = np.array([-1, -1, 2])
        cb = np.array([4, 0, 1])
        assert list(skewed_block_of(pb, cb)) == [4, 0, 1]
