"""Frozen outputs of the counter-based hash, and a warning-free kernel.

The values below were computed by the earlier two-round splitmix64 kernel
(numpy scalar arithmetic under ``np.errstate``). Any rewrite of the kernel
must reproduce them bit for bit, or every trajectory and counter moves.
"""
import warnings

import numpy as np
import pytest

from repro.rng import hash_u64, unit_hash

# (seed, walk_id, hop, salt) -> (hash_u64, unit_hash)
GOLDEN = [
    ((7, 0, 0, 0), 11241344834629033336, 0.609394524568175),
    ((7, 12345, 3, 1), 9762363329550245987, 0.52921877652456),
    ((0, 1, 80, 9), 7113704894622052869, 0.3856347150584998),
    ((-5, 2**40 + 3, 1023, 77), 11399957507410781924, 0.6179929347888602),
    ((2**62, 99, 7, 0), 9497772765560807280, 0.5148752933097341),
]


@pytest.fixture
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize("args,h,u", GOLDEN)
def test_scalar_golden(warnings_are_errors, args, h, u):
    seed, wid, hop, salt = args
    assert int(hash_u64(seed, wid, hop, salt)) == h
    assert float(unit_hash(seed, wid, hop, salt)) == u
    assert np.ndim(hash_u64(seed, wid, hop, salt)) == 0
    assert np.ndim(unit_hash(seed, wid, hop, salt)) == 0


@pytest.mark.parametrize("seed,salt", sorted({(a[0], a[3]) for a, _, _ in GOLDEN}))
def test_array_golden(warnings_are_errors, seed, salt):
    rows = [(a, h, u) for a, h, u in GOLDEN if (a[0], a[3]) == (seed, salt)]
    wid = np.array([a[1] for a, _, _ in rows] * 3, dtype=np.int64)
    hop = np.array([a[2] for a, _, _ in rows] * 3, dtype=np.int64)
    assert hash_u64(seed, wid, hop, salt).tolist() == [h for _, h, _ in rows] * 3
    assert unit_hash(seed, wid, hop, salt).tolist() == [u for _, _, u in rows] * 3


def test_arrays_clean_and_equal_to_scalars(warnings_are_errors):
    """Large ids and hops wrap in uint64 without a warning, and each array
    element equals the scalar call for the same (walk, hop)."""
    wid = np.array([0, 1, 2**62, 2**63 - 1, 123456789], dtype=np.int64)
    hop = np.array([0, 1023, 5, 2**40, 7], dtype=np.int64)
    u = unit_hash(-3, wid, hop, salt=2)
    h = hash_u64(-3, wid, hop, salt=2)
    for k in range(len(wid)):
        assert float(unit_hash(-3, int(wid[k]), int(hop[k]), salt=2)) == u[k]
        assert int(hash_u64(-3, int(wid[k]), int(hop[k]), salt=2)) == int(h[k])


def test_scalar_broadcasts_against_array(warnings_are_errors):
    hops = np.arange(6)
    by_array = unit_hash(7, 4, hops, salt=1)
    assert by_array.tolist() == [float(unit_hash(7, 4, int(x), salt=1)) for x in hops]
    wids = np.arange(6)
    assert unit_hash(7, wids, 2).tolist() == [float(unit_hash(7, int(x), 2)) for x in wids]
