"""Random-walk transition models and the shared vectorized sampler (§2.1).

``WalkTask`` captures a walk workload: DeepWalk (first-order, uniform over
neighbors), Node2vec (second-order, biased weights 1/p, 1, 1/q by shortest
hop between the previous vertex and the candidate — Eq. 1), and the
PRNV-style random walk with restart (continue probability ``alpha``).

All engines sample through :func:`batch_step`. Crucially, the random draw
for walk ``wid`` at step ``hop`` is the counter-based hash from
:mod:`repro.rng` — independent of execution order — so every engine produces
bit-identical trajectories (the mechanical form of the paper's Appendix-B
correctness argument), and the Spark join engine reuses the identical kernel.
An engine run passes :func:`draw_keys` of its walks to :func:`advance` and
:func:`done_mask`, which then finish each walk's pre-mixed key instead of
hashing its id again; the reference walker hashes every draw in full.

Sampling rule: neighbors of the current vertex are taken in ascending vertex
id (CSR order); the sampled neighbor is the first whose cumulative weight
exceeds ``u * Z``. For parity across engines this is exact; for bit-parity
with the Spark engine's per-walk cumulative sums, use p and q that are
powers of two (the weights and their sums are then exact doubles).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.csr import CSR
from repro.rng import keyed_unit, premix, unit_hash
from repro.walks.state import Walks

SALT_STEP = 0  # draw selecting the next vertex
SALT_CONT = 1  # draw deciding restart-termination (PRNV)


@dataclass(frozen=True)
class WalkTask:
    """A random-walk workload definition.

    ``first_order`` selects the DeepWalk model; otherwise Node2vec with
    hyperparameters ``p``/``q`` (Eq. 1; p=q=1 degenerates to first-order
    probabilities but still requires the previous vertex — the paper's
    benchmark setting). ``alpha`` (if set) is the per-step continue
    probability of a random walk with restart; ``max_len`` caps the hops.
    """

    max_len: int
    p: float = 1.0
    q: float = 1.0
    first_order: bool = False
    alpha: float | None = None
    seed: int = 7


def draw_keys(task: WalkTask, walks: Walks) -> dict[int, np.ndarray]:
    """The :func:`~repro.rng.premix` keys of walk ids 0 .. max id of
    ``walks`` for each salt ``task`` draws from (step, and continue with
    restart), indexed by walk id."""
    wid = np.arange(int(walks.wid.max(initial=-1)) + 1)
    salts = (SALT_STEP,) if task.alpha is None else (SALT_STEP, SALT_CONT)
    return {salt: premix(task.seed, wid, salt) for salt in salts}


def _draw(
    task: WalkTask, wid: np.ndarray, hop: np.ndarray, salt: int, keys: dict | None
) -> np.ndarray:
    """The uniform draw of ``salt`` of each walk ``wid`` at hop ``hop``:
    :func:`unit_hash`, finished from ``keys`` (:func:`draw_keys`) when given."""
    if keys is None:
        return unit_hash(task.seed, wid, hop, salt=salt)
    return keyed_unit(keys[salt][wid], hop)


def done_mask(
    task: WalkTask, csr: CSR, walks: Walks, keys: dict | None = None
) -> np.ndarray:
    """True where a walk terminates *now* (before taking another step).

    Termination: hop budget exhausted, dead-end vertex, or (with restart)
    the deterministic continue draw for the upcoming step fails. The draw is
    indexed by (wid, hop) so the decision is engine-order independent. A
    walk that has not stepped yet always takes its first step, and a walk
    already done needs no draw, so only the others are drawn for.
    """
    hop = walks.hop
    deg = csr.indptr[walks.cur + 1] - csr.indptr[walks.cur]
    done = (hop >= task.max_len) | (deg == 0)
    if task.alpha is not None and len(walks):
        draw = (hop > 0) & ~done
        if draw.all():  # every walk of a batch that has just stepped, most often
            done = _draw(task, walks.wid, hop, SALT_CONT, keys) >= task.alpha
        elif draw.any():
            done[draw] = _draw(task, walks.wid[draw], hop[draw], SALT_CONT, keys) >= task.alpha
    return done


def batch_step(
    csr: CSR, task: WalkTask, walks: Walks, keys: dict | None = None
) -> np.ndarray:
    """Sample the next vertex for every walk in the batch.

    Caller guarantees no walk is done (in particular deg(cur) > 0).
    Returns the array of sampled next vertices.
    """
    n = len(walks)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    indptr, indices = csr.indptr, csr.indices
    starts = indptr[walks.cur]
    deg = indptr[walks.cur + 1] - starts
    u = _draw(task, walks.wid, walks.hop, SALT_STEP, keys)

    uniform = task.first_order or (task.p == 1.0 and task.q == 1.0)
    if uniform:
        # All weights equal (DeepWalk, or Node2vec with the paper's p=q=1
        # benchmark setting): the cumulative-sum rule reduces to an index
        # pick. This equals the general path bit-for-bit (integer-valued
        # cumulative sums are exact doubles) but skips the candidate
        # expansion — the engines still charge N(prev) I/O as usual.
        choose = np.minimum((u * deg).astype(np.int64), deg - 1)
        return indices[starts + choose]

    total = int(deg.sum())
    seg_end = np.cumsum(deg)
    seg_start = seg_end - deg
    rep = np.repeat(np.arange(n), deg)
    flat = np.arange(total) - np.repeat(seg_start, deg) + np.repeat(starts, deg)
    cand = indices[flat]

    w = np.ones(total, dtype=np.float64)
    prevr = walks.prev[rep]
    so = np.flatnonzero(prevr >= 0)  # second-order candidate rows
    if len(so):
        pz = prevr[so]
        cz = cand[so]
        wi = np.full(len(so), 1.0 / task.q)
        ret = cz == pz  # h_uz = 0: return to the previous vertex
        wi[ret] = 1.0 / task.p
        hit = csr.has_arc(pz, cz)  # h_uz = 1: candidate adjacent to prev
        wi[hit & ~ret] = 1.0
        w[so] = wi

    cum = np.cumsum(w)
    base = np.concatenate([[0.0], cum[seg_end[:-1] - 1]])
    local = cum - np.repeat(base, deg)
    z_total = cum[seg_end - 1] - base
    t = u * z_total
    n_above = np.add.reduceat((local > t[rep]).astype(np.int64), seg_start)
    choose = np.minimum(deg - n_above, deg - 1)
    return cand[seg_start + choose]


def exact_step_distribution(
    csr: CSR, task: WalkTask, prev: int, cur: int
) -> np.ndarray:
    """Exact next-vertex distribution p(z | prev, cur) over all vertices.

    Reference implementation for statistical tests and the dense power
    iteration that computes exact second-order PageRank.
    """
    nbrs = csr.neighbors(cur)
    out = np.zeros(csr.n, dtype=np.float64)
    if len(nbrs) == 0:
        return out
    if task.first_order or prev < 0:
        out[nbrs] = 1.0 / len(nbrs)
        return out
    w = np.where(
        nbrs == prev,
        1.0 / task.p,
        np.where(csr.has_arc(np.full(len(nbrs), prev), nbrs), 1.0, 1.0 / task.q),
    )
    out[nbrs] = w / w.sum()
    return out


class Recorder:
    """Accumulates visit counts and/or full trajectories (both optional —
    benchmarks run without recording to keep the hot loop lean)."""

    def __init__(
        self,
        n_vertices: int,
        n_walks: int,
        max_len: int,
        record_paths: bool = False,
        record_visits: bool = True,
    ) -> None:
        self.visits = np.zeros(n_vertices, dtype=np.int64) if record_visits else None
        self.paths = (
            np.full((n_walks, max_len + 1), -1, dtype=np.int64) if record_paths else None
        )

    def on_start(self, walks: Walks) -> None:
        if self.visits is not None:
            np.add.at(self.visits, walks.src, 1)
        if self.paths is not None:
            self.paths[walks.wid, 0] = walks.src

    def on_step(self, walks: Walks) -> None:
        """Call after prev/cur/hop have been advanced."""
        if self.visits is not None:
            np.add.at(self.visits, walks.cur, 1)
        if self.paths is not None:
            self.paths[walks.wid, walks.hop] = walks.cur


def advance(
    csr: CSR, task: WalkTask, walks: Walks, recorder: Recorder | None, keys: dict | None = None
) -> Walks:
    """One sampling step for the whole batch, updating state in place."""
    nxt = batch_step(csr, task, walks, keys)
    walks.prev = walks.cur
    walks.cur = nxt
    walks.hop = walks.hop + 1
    if recorder is not None:
        recorder.on_step(walks)
    return walks
