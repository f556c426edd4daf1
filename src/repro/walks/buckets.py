"""Bucket-based in-memory walk management (§4.3.2, Eq. 4).

When block ``b`` is the current block, its (skewed-storage) walk pool is
split into buckets keyed by the *other* block of each walk: bucket
``B(cur)`` if the previous vertex is in ``b``, else bucket ``B(prev)``
(Algorithm 1, lines 4–10). Walks that have not taken their first step yet
(``prev == -1``) need only the current block and go into the self-bucket
``b`` — the execution engine processes it first, with no ancillary block,
which realizes the paper's initialization stage.

Combined with skewed storage, every bucket key ``p`` of pool ``b`` satisfies
``p >= b`` (triangular property): this is what lets the triangular schedule
iterate ancillary ids strictly upward.

:class:`ExtensionBuffers` reproduces the per-thread append buffers of §6.3:
walks that satisfy the bucket-extending condition (Algorithm 2, line 14) are
staged in a buffer and merged into the bucket right before it executes.
"""
from __future__ import annotations

import numpy as np

from repro.walks.state import WalkGroups, Walks, split_by_key


def collect_buckets(
    walks: Walks, prev_block: np.ndarray, cur_block: np.ndarray, b: int
) -> dict[int, Walks]:
    """Split current walks into buckets per Eq. 4 (self-bucket ``b`` for
    hop-0 walks). Returns {bucket_id: Walks} in ascending id, ids >= b."""
    key = np.where(
        prev_block < 0, b, np.where(prev_block == b, cur_block, prev_block)
    )
    return dict(split_by_key(walks, key))


class ExtensionBuffers:
    """Append-only staging buffers for the bucket-extending strategy (§6.3).

    The paper avoids a mutex on the shared bucket by giving each thread a
    buffer that is merged into the bucket before that bucket executes; this
    class is the (single-driver) equivalent: contention-free by construction.
    """

    def __init__(self) -> None:
        self._buf = WalkGroups()

    def add(self, bucket_id_per_walk: np.ndarray, walks: Walks) -> None:
        self._buf.add(bucket_id_per_walk, walks)

    def drain(self, bucket_id: int) -> Walks:
        """Merge and remove everything staged for ``bucket_id``."""
        return Walks.concat(self._buf.pop(bucket_id))

    def __contains__(self, bucket_id: int) -> bool:
        return bool(self._buf.get(bucket_id))

    def pending_ids(self) -> list[int]:
        return self._buf.keys()

    def is_empty(self) -> bool:
        return not self._buf.keys()
