"""Current-block scheduling strategies (paper §4.1 and Appendix A).

The minimal current-block-I/O problem is NP-hard (reduction from shortest
common supersequence), so the paper compares five online heuristics and
adopts Iteration-based scheduling. All five are implemented here and raced
in the Table 8 reproduction:

* **Alphabet** — cycle blocks 0..N_B-1, loading each block even if it has
  no walks (approximation ratio N_B).
* **Iteration** — Alphabet, but blocks with no pooled walks are skipped
  (GraSorw's choice; same ratio, fewer loads).
* **Min-Height** — pick the pool holding the walk with the fewest hops.
* **Max-Sum** — pick the pool with the most walks (state-aware greedy).
* **GraphWalker** — Max-Sum with probability 0.8, else Min-Height
  (GraphWalker's mixed state-aware strategy; the draw is counter-based so
  runs are reproducible).
"""
from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.rng import unit_hash

if TYPE_CHECKING:
    from repro.engines.base import WalkPools

SALT_SCHED = 9


class Scheduler:
    """Picks the next current block; returns None when no walks remain.

    Only Alphabet may pick a block whose pool is empty; the engine still
    loads it.
    """

    def pick(self, pools: WalkPools) -> int | None:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self) -> None:
        pass


class AlphabetScheduler(Scheduler):
    """Cycle 0..N_B-1 without skipping empty blocks."""

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def pick(self, pools: WalkPools) -> int | None:
        if pools.total() == 0:
            return None
        b = self._next
        self._next = (self._next + 1) % len(pools.counts)
        return b


class IterationScheduler(Scheduler):
    """Cycle 0..N_B-1, skipping blocks with no pooled walks.

    One cycle is the paper's iteration: a sweep of the current blocks in
    ascending order.
    """

    def __init__(self) -> None:
        self._next = 0

    def reset(self) -> None:
        self._next = 0

    def pick(self, pools: WalkPools) -> int | None:
        n = len(pools.counts)
        if pools.total() == 0:
            return None
        for k in range(n):
            b = (self._next + k) % n
            if pools.counts[b] > 0:
                self._next = (b + 1) % n
                return b
        return None


class MinHeightScheduler(Scheduler):
    """Pick the pool containing the walk with the fewest hops so far."""

    def pick(self, pools: WalkPools) -> int | None:
        if pools.total() == 0:
            return None
        nonempty = np.flatnonzero(pools.counts > 0)
        hops = [pools.min_hop(int(b)) for b in nonempty]
        return int(nonempty[int(np.argmin(hops))])


class MaxSumScheduler(Scheduler):
    """Pick the pool with the most walks (ties: smallest block id)."""

    def pick(self, pools: WalkPools) -> int | None:
        if pools.total() == 0:
            return None
        return int(np.argmax(pools.counts))


class GraphWalkerScheduler(Scheduler):
    """GraphWalker's mix: Max-Sum w.p. ``p``, else Min-Height."""

    def __init__(self, p: float = 0.8, seed: int = 97) -> None:
        self.p = p
        self.seed = seed
        self._counter = 0
        self._max = MaxSumScheduler()
        self._min = MinHeightScheduler()

    def reset(self) -> None:
        self._counter = 0

    def pick(self, pools: WalkPools) -> int | None:
        if pools.total() == 0:
            return None
        u = float(unit_hash(self.seed, self._counter, 0, salt=SALT_SCHED))
        self._counter += 1
        return self._max.pick(pools) if u < self.p else self._min.pick(pools)


SCHEDULERS: dict[str, type[Scheduler] | None] = {
    "alphabet": AlphabetScheduler,
    "iteration": IterationScheduler,
    "min_height": MinHeightScheduler,
    "max_sum": MaxSumScheduler,
    "graphwalker": GraphWalkerScheduler,
}


def make_scheduler(name: str) -> Scheduler:
    try:
        return SCHEDULERS[name]()  # type: ignore[misc]
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}; one of {sorted(SCHEDULERS)}")
