"""Tests for the counter-based RNG kernel (repro.rng)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import hash_u64, keyed_unit, premix, unit_hash


class TestDeterminism:
    def test_same_inputs_same_outputs(self):
        a = unit_hash(7, np.arange(100), np.arange(100), salt=0)
        b = unit_hash(7, np.arange(100), np.arange(100), salt=0)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**62])
    def test_seed_changes_stream(self, seed):
        base = unit_hash(seed, np.arange(50), np.zeros(50))
        other = unit_hash(seed + 1, np.arange(50), np.zeros(50))
        assert not np.array_equal(base, other)

    @pytest.mark.parametrize("salt", [1, 2, 9, 77])
    def test_salt_changes_stream(self, salt):
        a = unit_hash(7, np.arange(50), np.zeros(50), salt=0)
        b = unit_hash(7, np.arange(50), np.zeros(50), salt=salt)
        assert not np.array_equal(a, b)

    def test_scalar_and_array_agree(self):
        arr = unit_hash(3, np.array([5]), np.array([9]), salt=2)
        sc = unit_hash(3, 5, 9, salt=2)
        assert float(sc) == float(arr[0])

    def test_order_independence(self):
        """The draw for (wid, hop) is the same whatever batch it sits in —
        the property that makes engine scheduling correctness testable."""
        wid = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        hop = np.array([0, 2, 1, 3, 0], dtype=np.int64)
        full = unit_hash(7, wid, hop)
        for i in range(len(wid)):
            assert float(unit_hash(7, int(wid[i]), int(hop[i]))) == float(full[i])


class TestDistribution:
    def test_range(self):
        u = unit_hash(11, np.arange(10_000), np.zeros(10_000))
        assert u.min() >= 0.0 and u.max() < 1.0

    def test_roughly_uniform(self):
        u = unit_hash(13, np.arange(50_000), np.zeros(50_000))
        hist, _ = np.histogram(u, bins=10, range=(0, 1))
        assert abs(hist - 5000).max() < 500  # ~7 sigma

    def test_mean_and_var(self):
        u = unit_hash(17, np.arange(100_000), np.ones(100_000))
        assert abs(u.mean() - 0.5) < 0.01
        assert abs(u.var() - 1 / 12) < 0.005

    def test_hop_dimension_uniform(self):
        u = unit_hash(19, np.zeros(10_000), np.arange(10_000))
        assert abs(u.mean() - 0.5) < 0.02

    def test_no_walk_hop_symmetry(self):
        """(w, h) and (h, w) must not collide systematically."""
        a = unit_hash(7, np.arange(1000), np.zeros(1000))
        b = unit_hash(7, np.zeros(1000), np.arange(1000))
        assert not np.array_equal(a, b)


class TestHashU64:
    def test_dtype(self):
        assert hash_u64(1, np.arange(4), np.arange(4)).dtype == np.uint64

    def test_no_trivial_collisions(self):
        h = hash_u64(5, np.repeat(np.arange(200), 50), np.tile(np.arange(50), 200))
        assert len(np.unique(h)) == 10_000

    def test_negative_seed_ok(self):
        u = unit_hash(-5, np.arange(10), np.zeros(10))
        assert u.min() >= 0.0 and u.max() < 1.0


def _splitmix_unit(seed: int, wid: int, hop: int, salt: int) -> float:
    """The draw formula on Python integers, one value at a time."""
    mask, gamma = 2**64 - 1, 0x9E3779B97F4A7C15

    def mix(z):
        z = (z + gamma) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    base = mix(((seed & mask) + (salt & mask) * gamma) & mask)
    x = mix((wid & mask) ^ base)
    x = mix((x + (hop & mask) * 0x94D049BB133111EB) & mask)
    return (x >> 11) / 2.0**53


class TestPremixedKeys:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(-(2**63), 2**63 - 1),
        salt=st.integers(0, 2**16),
        wid=st.lists(st.one_of(st.integers(-(2**63), -1), st.integers(0, 2**20),
                               st.integers(2**62, 2**63 - 1)), min_size=1, max_size=20),
        hop=st.integers(0, 2**31),
    )
    def test_composition_is_unit_hash(self, seed, salt, wid, hop):
        """Finishing :func:`premix` keys gathered by walk id, as the engines
        do, gives :func:`unit_hash` and the formula, bit for bit."""
        wid = np.array(wid, dtype=np.int64)
        hops = hop + np.arange(len(wid))
        table = premix(seed, wid, salt)
        rows = np.arange(len(wid))[::-1]
        got = keyed_unit(table[rows], hops[rows]).tolist()
        assert got == unit_hash(seed, wid[rows], hops[rows], salt).tolist()
        assert got == [_splitmix_unit(seed, int(w), int(h), salt)
                       for w, h in zip(wid[rows], hops[rows])]
        assert keyed_unit(table, hop).tolist() == unit_hash(seed, wid, hop, salt).tolist()
