"""Counter-based deterministic randomness shared by every walk engine.

The paper (Appendix B) argues GraSorw's scheduling is *correct* because it
only reorders walk updates. We make that claim mechanically checkable: the
random draw for step ``hop`` of walk ``walk_id`` is a pure function
``unit_hash(seed, walk_id, hop, salt)`` of the walk identity, not of the
execution order. Every engine — the five driver engines, the in-memory
reference walker, and the Spark iterative-join engine — therefore produces
bit-identical trajectories, and tests assert exactly that.

The hash is two rounds of splitmix64 over uint64 with wraparound; the Spark
engine applies the *same numpy kernel* through a pandas UDF, so there is no
cross-language reimplementation to drift. The rounds run in place on one
uint64 buffer; uint64 *array* arithmetic wraps silently, so no
``np.errstate`` is needed (only numpy scalar arithmetic warns).

The first round depends on (seed, walk_id, salt) alone: :func:`premix`
gives it as a per-walk *key*, and :func:`keyed_unit` finishes a key at a
hop. The engines keep one key table per salt for a run, so each draw pays
only the second round; :func:`hash_u64` and :func:`unit_hash` are the two
halves composed.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA_INT = 0x9E3779B97F4A7C15
# 0-d arrays rather than numpy scalars: they skip the scalar-to-array
# conversion, which shows on the engines' small batches.
_GAMMA, _M1, _M2, _S30, _S27, _S31, _S11 = (
    np.array(c, dtype=np.uint64)
    for c in (_GAMMA_INT, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 30, 27, 31, 11)
)
_TWO53 = float(1 << 53)


def _mix(z: np.ndarray) -> np.ndarray:
    """One splitmix64 output round (finalizer), in place on a uint64 array."""
    z += _GAMMA
    z ^= z >> _S30
    z *= _M1
    z ^= z >> _S27
    z *= _M2
    z ^= z >> _S31
    return z


@lru_cache(maxsize=256)
def _base(seed: int, salt: int) -> np.ndarray:
    """Pre-mixed (seed, salt) key — constant per task, computed once."""
    key = ((int(seed) & _MASK) + (salt & _MASK) * _GAMMA_INT) & _MASK
    out = _mix(np.array([key], dtype=np.uint64))
    out.flags.writeable = False  # shared by every caller through the cache
    return out


def _u64(a) -> np.ndarray:
    """``a`` as a fresh uint64 array of at least one dimension (wrapping)."""
    out = np.asarray(a).astype(np.uint64)
    return out.reshape(1) if out.ndim == 0 else out


def premix(seed: int, walk_id, salt: int = 0) -> np.ndarray:
    """The key of each ``walk_id``: the first splitmix64 round of
    :func:`hash_u64`, over the pre-mixed (seed, salt) base. A fresh uint64
    array of at least one element."""
    x = _u64(walk_id)
    x ^= _base(seed, salt)
    return _mix(x)


def _finish(key: np.ndarray, hop) -> np.ndarray:
    """The second round at ``hop`` of each pre-mixed ``key`` (unchanged):
    :func:`hash_u64` as a fresh uint64 array of at least one element."""
    h = _u64(hop)
    h *= _M2
    if h.size >= key.size:
        h += key
    else:  # one hop against an array of keys
        h = h + key
    return _mix(h)


def _unit(bits: np.ndarray) -> np.ndarray:
    """The top 53 bits of ``bits`` (overwritten) as doubles in [0, 1)."""
    bits >>= _S11
    u = bits.astype(np.float64)
    u /= _TWO53
    return u


def keyed_unit(key: np.ndarray, hop) -> np.ndarray:
    """:func:`unit_hash` of the walks whose :func:`premix` keys are ``key``."""
    return _unit(_finish(key, hop))


def _is_scalar(walk_id, hop) -> bool:
    return np.ndim(walk_id) == 0 and np.ndim(hop) == 0


def hash_u64(seed: int, walk_id: np.ndarray, hop: np.ndarray, salt: int = 0) -> np.ndarray:
    """Deterministic 64-bit hash of (seed, walk_id, hop, salt).

    ``walk_id`` and ``hop`` may be scalars or equal-length integer arrays;
    broadcasting follows numpy rules. Output dtype is uint64. Two splitmix64
    finalizer rounds over the pre-mixed (seed, salt) base.
    """
    x = _finish(premix(seed, walk_id, salt), hop)
    return x[0] if _is_scalar(walk_id, hop) else x


def unit_hash(seed: int, walk_id, hop, salt: int = 0) -> np.ndarray:
    """Deterministic uniform double in [0, 1) from (seed, walk_id, hop, salt).

    Uses the top 53 bits of :func:`hash_u64` so the value is exactly
    representable as a double and identical wherever the kernel runs.
    """
    u = keyed_unit(premix(seed, walk_id, salt), hop)
    return u[0] if _is_scalar(walk_id, hop) else u
