"""Walk state: the walk table, the paper's 128-bit encoding (Fig. 7) and
the skewed walk storage rule (§4.3.1).

Engines manipulate walks as a :class:`Walks` table (the vectorized analogue
of the paper's walk structs): one ``(k, 5)`` int64 array whose columns are
wid, src, prev, cur and hop (:data:`WID` … :data:`HOP`). Selecting walks is
one row gather, a contiguous row range is a view, and concatenation is one
``np.concatenate``. :func:`split_by_key` groups a table with one stable
argsort, so routing walks to pools, buckets or extension buffers costs one
gather however many keys there are.

Ownership rule, which keeps in-place updates safe: ``select`` and
``concat`` always return a fresh table, and the groups of
:func:`split_by_key` are disjoint row ranges of one. A table handed to a
pool or buffer belongs to it; a batch that ``advance`` updates in place is
therefore never memory that a pooled or buffered chunk still holds.

The 128-bit ``encode_walks``/``decode_walks`` pair reproduces the paper's
on-disk representation — source vertex, previous vertex, current-vertex
block offset, previous/current block ids and hop count packed into two
64-bit words. Only tests call the codec: pool I/O is charged as
``IOParams.walk_bytes`` (16 bytes) per walk, the codec's size, without
encoding.
"""
from __future__ import annotations

import numpy as np

# Bit widths of the 128-bit walk encoding. The paper allots enough bits for
# 4.3 trillion vertices, 1024 blocks and 1024 steps; we keep the same block
# and hop budgets. Word 0: src(42)|hop(10)|pre_block(10); word 1:
# pre_vertex(42)|cur_offset(12)|cur_block(10).
_SRC_BITS = 42
_PRE_BITS = 42
_CUROFF_BITS = 12
_BLK_BITS = 10
_HOP_BITS = 10


#: Column of each walk field in :attr:`Walks.data`.
WID, SRC, PREV, CUR, HOP = range(5)


class _Column:
    """One column of the walk table, readable and assignable by name.

    Reading gives a view; assigning writes into the table in place.
    """

    def __init__(self, j: int) -> None:
        self.j = j

    def __get__(self, walks, owner=None):
        return self if walks is None else walks.data[:, self.j]

    def __set__(self, walks, value) -> None:
        walks.data[:, self.j] = value


class Walks:
    """A batch of walks as one ``(k, 5)`` int64 table (wid, src, prev, cur, hop).

    ``prev == -1`` marks a walk that has not yet taken its first step (the
    first transition is first-order, as in Node2vec).
    """

    __slots__ = ("data",)

    wid = _Column(WID)
    src = _Column(SRC)
    prev = _Column(PREV)
    cur = _Column(CUR)
    hop = _Column(HOP)

    def __init__(self, wid, src, prev, cur, hop) -> None:
        data = np.empty((len(wid), 5), dtype=np.int64)
        for j, col in enumerate((wid, src, prev, cur, hop)):
            data[:, j] = col
        self.data = data

    @classmethod
    def from_table(cls, data: np.ndarray) -> "Walks":
        """Wrap a ``(k, 5)`` int64 table without copying it."""
        walks = cls.__new__(cls)
        walks.data = data
        return walks

    @classmethod
    def from_sources(cls, wid: np.ndarray, src: np.ndarray) -> "Walks":
        return cls(wid=wid, src=src, prev=-1, cur=src, hop=0)

    @classmethod
    def empty(cls) -> "Walks":
        return cls.from_table(np.empty((0, 5), dtype=np.int64))

    @classmethod
    def concat(cls, parts: list["Walks"]) -> "Walks":
        """The rows of ``parts`` in order, as a fresh table."""
        tables = [p.data for p in parts if len(p)]
        if not tables:
            return cls.empty()
        return cls.from_table(np.concatenate(tables))

    def select(self, rows: np.ndarray) -> "Walks":
        """The rows picked by a boolean mask or an index array, as a fresh table."""
        rows = np.asarray(rows)
        if rows.dtype == bool:  # compress: far cheaper than 2-D mask indexing
            return Walks.from_table(self.data.compress(rows, axis=0))
        return Walks.from_table(self.data.take(rows, axis=0))

    def rows(self, lo: int, hi: int) -> "Walks":
        """Rows ``lo:hi`` as a view that shares this table's memory."""
        return Walks.from_table(self.data[lo:hi])

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Walks({len(self)} walks)"


def split_by_key(walks: Walks, keys: np.ndarray) -> list[tuple[int, Walks]]:
    """Group walks by an integer key: ``(key, walks)`` pairs, keys ascending.

    One stable argsort and one gather. Each group is a contiguous row range
    of the gathered table, and walks keep their input order within a group.
    If every walk has the same key, ``walks`` itself is returned uncopied.
    """
    n = len(keys)
    if n == 0:
        return []
    first = keys[0]
    if n == 1 or (keys == first).all():
        return [(int(first), walks)]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    cuts = (np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist()
    table = walks.select(order)
    return [
        (int(sorted_keys[lo]), table.rows(lo, hi))
        for lo, hi in zip([0, *cuts], [*cuts, n])
    ]


class WalkGroups:
    """Walks held per integer key, grouped lazily.

    ``add`` only stages a (keys, walks) chunk. The first read after adds
    groups everything staged at once — one concatenation and one
    :func:`split_by_key` — so walks keep their add order within a key, as
    if each add had been grouped on arrival. The groups take ownership of
    the walks they are given.
    """

    def __init__(self) -> None:
        self._groups: dict[int, list[Walks]] = {}
        self._staged_keys: list[np.ndarray] = []
        self._staged: list[Walks] = []

    def add(self, keys: np.ndarray, walks: Walks) -> None:
        if len(walks):
            self._staged_keys.append(keys)
            self._staged.append(walks)

    def _flush(self) -> None:
        if not self._staged:
            return
        if len(self._staged) == 1:
            keys, walks = self._staged_keys[0], self._staged[0]
        else:
            keys, walks = np.concatenate(self._staged_keys), Walks.concat(self._staged)
        self._staged_keys, self._staged = [], []
        for k, part in split_by_key(walks, keys):
            self._groups.setdefault(k, []).append(part)

    def pop(self, key: int) -> list[Walks]:
        """Remove and return the chunks held under ``key``, in add order."""
        self._flush()
        return self._groups.pop(key, [])

    def get(self, key: int) -> list[Walks]:
        self._flush()
        return self._groups.get(key, [])

    def keys(self) -> list[int]:
        self._flush()
        return sorted(self._groups)


def skewed_block_of(prev_block: np.ndarray, cur_block: np.ndarray) -> np.ndarray:
    """Skewed walk storage rule (§4.3.1): walk w_u^v lives with block
    ``min(B(u), B(v))``. Walks with no previous vertex (prev_block < 0)
    live with their current block."""
    return np.where(prev_block < 0, cur_block, np.minimum(prev_block, cur_block))


def encode_walks(
    walks: Walks, prev_block: np.ndarray, cur_block: np.ndarray, block_starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack walks into the paper's 128-bit representation (two uint64 words).

    Layout (word0 high→low): src(42) | hop(10) | pre_block(10); word1:
    pre_vertex(42) | cur_offset(12) | cur_block(10) — with cur_offset the
    current vertex's offset inside its block, exactly as in Fig. 7.
    ``prev = -1`` is stored as the all-ones pre-vertex sentinel.
    """
    src = walks.src.astype(np.uint64)
    hop = walks.hop.astype(np.uint64)
    preb = (prev_block & ((1 << _BLK_BITS) - 1)).astype(np.uint64)
    curb = cur_block.astype(np.uint64)
    pre = np.where(walks.prev < 0, (1 << _PRE_BITS) - 1, walks.prev).astype(np.uint64)
    curoff = (walks.cur - block_starts[cur_block]).astype(np.uint64)
    for name, arr, bits in (
        ("src", src, _SRC_BITS),
        ("hop", hop, _HOP_BITS),
        ("pre", pre, _PRE_BITS),
        ("cur_offset", curoff, _CUROFF_BITS),
        ("cur_block", curb, _BLK_BITS),
    ):
        if len(arr) and int(arr.max()) >= (1 << bits):
            raise OverflowError(f"{name} exceeds its {bits}-bit field")
    w0 = (src << np.uint64(_HOP_BITS + _BLK_BITS)) | (hop << np.uint64(_BLK_BITS)) | preb
    w1 = (
        (pre << np.uint64(_CUROFF_BITS + _BLK_BITS))
        | (curoff << np.uint64(_BLK_BITS))
        | curb
    )
    return w0, w1


def decode_walks(
    w0: np.ndarray, w1: np.ndarray, block_starts: np.ndarray, wid: np.ndarray | None = None
) -> Walks:
    """Inverse of :func:`encode_walks` (wid is not stored on disk)."""
    mask = lambda bits: np.uint64((1 << bits) - 1)  # noqa: E731
    preb = (w0 & mask(_BLK_BITS)).astype(np.int64)
    hop = ((w0 >> np.uint64(_BLK_BITS)) & mask(_HOP_BITS)).astype(np.int64)
    src = (w0 >> np.uint64(_HOP_BITS + _BLK_BITS)).astype(np.int64)
    curb = (w1 & mask(_BLK_BITS)).astype(np.int64)
    curoff = ((w1 >> np.uint64(_BLK_BITS)) & mask(_CUROFF_BITS)).astype(np.int64)
    pre_raw = (w1 >> np.uint64(_CUROFF_BITS + _BLK_BITS)).astype(np.int64)
    prev = np.where(pre_raw == (1 << _PRE_BITS) - 1, -1, pre_raw)
    del preb  # recoverable from prev; kept for format fidelity only
    cur = np.asarray(block_starts)[curb] + curoff
    if wid is None:
        wid = np.arange(len(src), dtype=np.int64)
    return Walks(wid=np.asarray(wid, dtype=np.int64), src=src, prev=prev, cur=cur, hop=hop)
