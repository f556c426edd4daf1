"""Walk state: the walk table and the skewed walk storage rule (§4.3.1).

Engines manipulate walks as a :class:`Walks` table (the vectorized analogue
of the paper's walk structs): one ``(k, 5)`` int64 array whose columns are
wid, src, prev, cur and hop (:data:`WID` … :data:`HOP`). Selecting walks is
one row gather, a contiguous row range is a view, and concatenation is one
``np.concatenate``. :func:`split_by_key` groups a table with one stable
argsort, so routing walks to pools costs one gather however many keys
there are.

Ownership rule, which keeps in-place updates safe: ``select`` and
``concat`` always return a fresh table, and the groups of
:func:`split_by_key` are disjoint row ranges of one. A table handed to a
pool or buffer belongs to it; a batch that ``advance`` updates in place is
therefore never memory that a pooled or buffered chunk still holds.

Pools hold walks as tables and never encode them. Pool I/O is charged as
``IOParams.walk_bytes`` (16 bytes) per walk, the size of the paper's
128-bit on-disk walk (Fig. 7), so no codec, and none of its vertex, hop or
block-count limits, is needed.
"""
from __future__ import annotations

import numpy as np

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
