"""Block loading methods and the learning-based selection model (paper §5).

Two ways to bring a block into memory:

* **full load** — read the whole Index/CSR slice sequentially (one block
  I/O of ``block_bytes``);
* **on-demand load** — read only the CSR segments of *activated* vertices
  (the previous/current vertices of the walks about to execute), as light
  random reads charged to the "ondemand" counter; vertices that become
  activated later, while walks move inside the block, are read solo,
  each once per load.

A :class:`BlockLoader` picks the loading method. The loads that go by it
(every ancillary block, and first-order's current block) are charged from
the slots' records: a full-load slot of the one-slot loop bucket by bucket
(:meth:`BlockLoader.load`), any other slot in one array call per clock
(:func:`~repro.engines.base.charge_slots`): the loader picks every
bucket's mode at once (:meth:`BlockLoader.full_loads`), and one first-touch
pass over the activations and touches gives every fetch. The one-slot loop
loads any other current block whole (:meth:`BlockLoader.load_whole`).

The learning-based model (§5.2) fits, per block, ``t_f = α_f·η + b_f`` for
full load and ``t_o = α_o·η + b_o`` for on-demand load, where
``η = |W|/N_v``, and selects the mode with the lower predicted cost —
equivalently full load when ``η > η₀ = (b_f − b_o)/(α_o − α_f)``. The
paper trains on two runs of the task, one per forced mode. The loading
mode changes only what is charged, not where the walks go, and Iteration
engines are charged from the records of one hop-synchronous pass, so
training walks once and charges those records twice, through a forced
full-load loader and a forced on-demand one
(:meth:`~repro.core.grasorw.GraphSystem.train_load_model`).

One refinement over the paper: §5.2.1 forces ``b_o = 0`` ("no separated
loading is needed when W = ∅"). That holds at W = 0, but on low-edge-cut
graphs the realized ``t_o(η)`` saturates (runtime fetches are deduplicated
per bucket, so distinct-vertex counts flatten at N_v), and a zero-intercept
least-squares line fitted through the saturated region *under*-predicts
small-η costs — making the switch fire exactly where on-demand loses. We
therefore let the data choose ``b_o``; on workloads where the paper's
assumption holds the fit recovers ``b_o ≈ 0`` and the two rules coincide.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore

FULL = "full"
ONDEMAND = "ondemand"
LEARNED = "learned"


@dataclass
class LoadLogs:
    """Running log of (block, η, total load+execute time, mode) records."""

    bid: list[int] = field(default_factory=list)
    eta: list[float] = field(default_factory=list)
    t: list[float] = field(default_factory=list)
    mode: list[str] = field(default_factory=list)

    def add(self, bid: int, eta: float, t: float, mode: str) -> None:
        self.bid.append(bid)
        self.eta.append(eta)
        self.t.append(t)
        self.mode.append(mode)

    def extend(self, bid: list[int], eta: list[float], t: list[float], mode: list[str]) -> None:
        """:meth:`add` of each record in turn."""
        self.bid += bid
        self.eta += eta
        self.t += t
        self.mode += mode

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.array(self.bid, dtype=np.int64),
            np.array(self.eta, dtype=np.float64),
            np.array(self.t, dtype=np.float64),
            np.array(self.mode, dtype=object),
        )


def fit_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit y = a·x + b. Returns (a, b)."""
    A = np.stack([x, np.ones_like(x)], axis=1)
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(sol[0]), float(sol[1])


@dataclass
class LearnedLoadModel:
    """Per-block linear cost models; selection = cheaper predicted mode.

    ``coef[b] = (α_f, b_f, α_o, b_o)``. Blocks without training data keep
    the traditional full-load method (α_o = b_o = +inf).
    """

    coef: np.ndarray  # (n_blocks, 4)

    @classmethod
    def fit(cls, logs: LoadLogs, n_blocks: int) -> "LearnedLoadModel":
        bid, eta, t, mode = logs.arrays()
        full_m = mode == FULL
        od_m = mode == ONDEMAND

        def fit_for(sel_f: np.ndarray, sel_o: np.ndarray):
            if sel_f.sum() < 1 or sel_o.sum() < 1:
                return None
            a_f, b_f = fit_line(eta[sel_f], t[sel_f])
            a_o, b_o = fit_line(eta[sel_o], t[sel_o])
            return a_f, b_f, a_o, max(0.0, b_o)

        g = fit_for(full_m, od_m)  # global fallback
        default = (0.0, 0.0, np.inf, np.inf) if g is None else g
        coef = np.tile(np.array(default, dtype=np.float64), (n_blocks, 1))
        for b in range(n_blocks):
            c = fit_for(full_m & (bid == b), od_m & (bid == b))
            if c is not None:
                coef[b] = c
        return cls(coef=coef)

    @property
    def eta0(self) -> np.ndarray:
        """Per-block switching threshold (paper §5.2.2): full load is the
        better prediction when η > η₀. np.inf = always on-demand, 0 (or
        negative) = always full."""
        a_f, b_f, a_o, b_o = self.coef.T
        with np.errstate(divide="ignore", invalid="ignore"):
            thr = (b_f - b_o) / (a_o - a_f)
        out = np.where(a_o > a_f, thr, np.where(b_o <= b_f, np.inf, 0.0))
        return np.where(np.isnan(out), np.inf, out)

    def prefers_full(self, bid, eta):
        """Whether full load is the mode with the lower predicted cost of
        loading block ``bid`` at ``η = eta``: also on a tie, and for blocks
        without on-demand data (α_o = inf). Elementwise over arrays of
        blocks and η, so a slot's buckets are chosen in one call."""
        a_f, b_f, a_o, b_o = self.coef[bid].T
        with np.errstate(invalid="ignore"):  # inf·0 where α_o = inf and η = 0
            return ~np.isfinite(a_o) | (a_f * eta + b_f <= a_o * eta + b_o)

    def choose(self, bid: int, eta: float) -> str:
        """The mode :meth:`prefers_full` picks for one block."""
        return FULL if self.prefers_full(bid, eta) else ONDEMAND


class BlockLoader:
    """Chooses a loading method and makes loads against the store + I/O
    simulator.

    :meth:`load_whole` brings a block in fully, and :meth:`load` by the
    loading method; loaded on demand, it fetches the activated vertices,
    and :meth:`ensure` each vertex a step touches later, once — the paper's
    "get its CSR segmentation solely from disk". A slot's replay makes the
    same choice for all its buckets at once (:meth:`full_loads`).
    """

    def __init__(
        self,
        store: BlockStore,
        sim: DiskSim,
        *,
        mode: str = FULL,
        model: LearnedLoadModel | None = None,
        logs: LoadLogs | None = None,
    ) -> None:
        if mode == LEARNED and model is None:
            raise ValueError("learned mode requires a fitted LearnedLoadModel")
        self.store = store
        self.sim = sim
        self.mode = mode
        self.model = model
        self.logs = logs
        nv = np.diff(store.part.block_starts)
        self._eta_div = np.maximum(nv, 1)  # η = walks / vertices of the block
        self._bid: int | None = None
        self._loaded: np.ndarray | None = None  # None = fully loaded
        self._lo = 0
        self._t_start = 0.0
        self._eta = 0.0
        self._chosen = FULL

    def load_whole(self, bid: int) -> None:
        """Fully load block ``bid`` whatever the loading method: a
        bi-block or PB slot's current block, or a walk-less one."""
        self.sim.charge_block_load(bid, self.store.block_bytes(bid))

    def load(self, bid: int, walks_count: int, activated: np.ndarray) -> str:
        """Load block ``bid`` for a bucket of ``walks_count`` walks whose
        activated vertices inside the block are ``activated``. Returns the
        loading method actually used."""
        lo, hi = self.store.part.block_slice(bid)
        eta = float(walks_count / self._eta_div[bid])
        chosen = self.mode
        if self.mode == LEARNED:
            chosen = self.model.choose(bid, eta)
        self._bid = bid
        self._lo = lo
        self._eta = eta
        self._chosen = chosen
        self._t_start = self.sim.block_io_s + self.sim.ondemand_io_s
        if chosen == FULL:
            self.sim.charge_block_load(bid, self.store.block_bytes(bid))
            self._loaded = None
        elif chosen == ONDEMAND:
            self._loaded = np.zeros(hi - lo, dtype=bool)
            self.ensure(activated)
        else:
            raise ValueError(chosen)
        return chosen

    def full_loads(self, bids: np.ndarray, walks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(η, full-load mask) of loading blocks ``bids`` for buckets of
        ``walks`` walks each: the choice :meth:`load` makes, for every
        bucket of a slot at once."""
        eta = walks / self._eta_div[bids]
        if self.mode == LEARNED:
            return eta, self.model.prefers_full(bids, eta)
        return eta, np.full(len(bids), self.mode == FULL)

    def ensure(self, vs: np.ndarray) -> None:
        """Make vertices ``vs`` (global ids inside the block) resident,
        charging one light on-demand read for each not yet resident; a no-op
        unless the current block is loaded on demand."""
        if self._loaded is None or len(vs) == 0:
            return
        local = np.unique(np.asarray(vs, dtype=np.int64)) - self._lo
        need = local[~self._loaded[local]]
        if len(need):
            self.sim.charge_vertex_fetch(
                self.store.vertex_seg_bytes(need + self._lo), kind="ondemand"
            )
            self._loaded[need] = True

    def finish(self) -> None:
        """Close the bucket execution: record the (η, t) observation."""
        if self.logs is not None and self._bid is not None:
            t = (self.sim.block_io_s + self.sim.ondemand_io_s) - self._t_start
            self.logs.add(self._bid, self._eta, t, self._chosen)
        self._bid = None
        self._loaded = None
