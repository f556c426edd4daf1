"""Deterministic I/O + execution cost model and event counters.

The paper's evaluation decomposes cost into block I/Os, light vertex I/Os,
walk I/Os and walk-updating time (Fig. 1). We count those events *exactly*
and charge simulated time with calibrated constants, so every reported
number is a deterministic function of the workload and the scheduler —
which is precisely what the paper's tables compare. (Python/numpy wall time
is also measured and reported separately as ``exec_real_s``, but it says
more about our substrate than about the schedulers.)

Model components and why they exist:

* **Sequential vs random block loads.** Triangular scheduling loads
  ancillary blocks in ascending id order right after the current block, so
  most of its block I/Os are sequential; the plain-bucket engine's are not
  (paper §7.3, "Block-I/O comparison"). A non-consecutive block load pays a
  larger seek.

* **Simulated execution clock.** Walk updating costs ``step_s`` per
  sampled step plus ``bucket_s`` per bucket execution — the paper's §7.3
  attributes the bi-block engine's execution-time win exactly to the halved
  number of bucket executions (thread initiating/destroying overhead), so
  that term is first-class in the model.

* **OS page cache.** The paper's Table 5/6 synthetic graphs (1.9–6.3 GB)
  fit the server's 377 GB RAM, so the baselines' random vertex reads are
  page-cache hits costing only a syscall + copy (``hit_lat_s``), not an SSD
  access — that is why SOGW/SGSC overtake GraSorw on the very dense graphs
  (Table 6, RandomG4/5, SBM): GraSorw still pays its per-bucket protocol
  floor while SOGW's per-step reads become cheap and few. Stores for such
  graphs set ``cache="all"``; the -lite stand-ins for graphs far larger
  than RAM use ``cache="none"``.

Constants are calibrated so the *ratios* between event kinds match the
paper's testbed at our reduced scale (blocks here are KBs, not 512 MB; see
DESIGN.md §2): one block load ≈ a few hundred light vertex I/Os, as on the
paper's SSD.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _cost(n, lat, nbytes, bw):
    """Seconds of ``n`` reads of latency ``lat`` moving ``nbytes`` bytes at
    ``bw`` bytes/s: the one cost formula of every charge, on scalars or
    arrays alike."""
    return n * lat + nbytes / bw


def _fold(clock: float, t: np.ndarray) -> np.ndarray:
    """``clock``, then its value after adding each of ``t`` in turn: the
    same sums, bit for bit, as ``clock += t[j]`` one charge at a time."""
    return np.add.accumulate(np.concatenate(([clock], t)))


@dataclass(frozen=True)
class IOParams:
    """Cost constants of the simulated storage + execution stack."""

    # execution clock
    step_s: float = 5e-8  # one walk update (multithreaded in-memory sampling)
    bucket_s: float = 1e-3  # per bucket execution: thread init/destroy, collection
    # disk
    seq_seek_s: float = 1e-4  # request latency, sequential block read
    rand_block_seek_s: float = 1e-3  # request latency, non-consecutive block read
    # Sequential bandwidth is scaled down with the graphs (DESIGN.md §2):
    # the paper's blocks are hundreds of MB, so block loads are bandwidth-
    # dominated and cost hundreds-to-thousands of light vertex I/Os; with
    # our KB-scale blocks a real SSD bandwidth would make block loads
    # seek-dominated and distort every full-vs-on-demand trade-off.
    seq_bw_bps: float = 2e7  # sequential bandwidth (bytes/s), calibrated
    rand_lat_s: float = 1e-4  # latency of one light (vertex) random read
    rand_bw_bps: float = 5e7  # bandwidth of small random reads
    # page cache (cache="all")
    hit_lat_s: float = 2e-5  # page-cache-hit read: syscall + copy
    mem_bw_bps: float = 2e9  # page-cache sequential bandwidth
    # formats
    value_bytes: int = 4  # bytes per CSR index/value (paper Fig. 5)
    walk_bytes: int = 16  # bytes per encoded walk (paper Fig. 7: 128 bits)


@dataclass
class DiskSim:
    """Event counters + simulated clock for one engine run."""

    params: IOParams = field(default_factory=IOParams)
    cache: str = "none"  # "none" (graph >> RAM) or "all" (graph fits RAM)

    block_io_num: int = 0
    block_io_s: float = 0.0
    vertex_io_num: int = 0
    vertex_io_s: float = 0.0
    ondemand_io_num: int = 0
    ondemand_io_s: float = 0.0
    walk_io_bytes: int = 0
    walk_io_s: float = 0.0
    exec_real_s: float = 0.0  # measured numpy time (substrate-dependent)
    time_slots: int = 0
    bucket_execs: int = 0
    steps: int = 0
    _last_block: int = -(10**9)

    # -- charging -----------------------------------------------------------
    # Each charge has a scalar form, made as the event happens, and an array
    # form that makes a run of charges of one clock at once (a slot replay).
    # Both take their seconds from :func:`_cost` and the same latency and
    # bandwidth, and the array form folds its charges into the clock one by
    # one in order, so it leaves every field ``==`` to the scalar charges.
    def _block_lat_bw(self, seq):
        """(latency, bandwidth) of block reads; ``seq`` marks those that
        directly follow the last one (a bool, or a bool array)."""
        p = self.params
        if self.cache == "all":
            return p.hit_lat_s, p.mem_bw_bps
        if isinstance(seq, np.ndarray):
            return np.where(seq, p.seq_seek_s, p.rand_block_seek_s), p.seq_bw_bps
        return (p.seq_seek_s if seq else p.rand_block_seek_s), p.seq_bw_bps

    def _light_lat_bw(self) -> tuple[float, float]:
        """(latency, bandwidth) of light random (vertex) reads."""
        p = self.params
        if self.cache == "all":
            return p.hit_lat_s, p.mem_bw_bps
        return p.rand_lat_s, p.rand_bw_bps

    def _walk_lat_bw(self) -> tuple[float, float]:
        """(latency, bandwidth) of sequential walk pool reads and writes."""
        p = self.params
        if self.cache == "all":
            return p.hit_lat_s, p.mem_bw_bps
        return p.seq_seek_s, p.seq_bw_bps

    def charge_block_load(self, bid: int, nbytes: int) -> None:
        """One block read; sequential iff it directly follows the last one."""
        lat, bw = self._block_lat_bw(bid == self._last_block + 1)
        self.block_io_num += 1
        self.block_io_s += _cost(1, lat, nbytes, bw)
        self._last_block = bid

    def charge_block_loads(self, bids: np.ndarray, nbytes: np.ndarray) -> np.ndarray:
        """:meth:`charge_block_load` of each ``(bids[j], nbytes[j])`` in turn.
        Returns the block clock before the first load and after each."""
        follows = np.concatenate(([self._last_block], bids[:-1])) + 1
        lat, bw = self._block_lat_bw(bids == follows)
        clock = _fold(self.block_io_s, _cost(1, lat, nbytes, bw))
        self.block_io_num += len(bids)
        self.block_io_s = float(clock[-1])
        if len(bids):
            self._last_block = int(bids[-1])
        return clock

    def charge_vertex_fetch(self, seg_bytes: np.ndarray, kind: str = "vertex") -> None:
        """``len(seg_bytes)`` light random reads of per-vertex CSR segments.

        ``kind`` routes the charge: "vertex" = SOGW/SGSC-style previous-
        vertex retrievals; "ondemand" = reads done by the on-demand block
        loading method (§5.1), reported separately like the paper's Table 4.
        """
        n = len(seg_bytes)
        if n == 0:
            return
        lat, bw = self._light_lat_bw()
        t = _cost(n, lat, float(np.sum(seg_bytes)), bw)
        if kind == "vertex":
            self.vertex_io_num += n
            self.vertex_io_s += t
        elif kind == "ondemand":
            self.ondemand_io_num += n
            self.ondemand_io_s += t
        else:
            raise ValueError(kind)

    def charge_vertex_fetches(
        self, n: np.ndarray, nbytes: np.ndarray, kind: str = "vertex"
    ) -> np.ndarray:
        """:meth:`charge_vertex_fetch` of ``n[j]`` segments of ``nbytes[j]``
        bytes in all, for each ``j`` in turn; an entry with ``n[j] == 0``
        charges nothing. Returns the clock of ``kind`` before the first
        charge and after each."""
        lat, bw = self._light_lat_bw()
        t = _cost(n, lat, nbytes, bw)
        if kind == "vertex":
            clock = _fold(self.vertex_io_s, t)
            self.vertex_io_num += int(np.sum(n))
            self.vertex_io_s = float(clock[-1])
        elif kind == "ondemand":
            clock = _fold(self.ondemand_io_s, t)
            self.ondemand_io_num += int(np.sum(n))
            self.ondemand_io_s = float(clock[-1])
        else:
            raise ValueError(kind)
        return clock

    def charge_walk_io(self, n_walks: int) -> None:
        """Sequential read/write of ``n_walks`` encoded walks (pool load/flush)."""
        if n_walks == 0:
            return
        lat, bw = self._walk_lat_bw()
        nbytes = n_walks * self.params.walk_bytes
        self.walk_io_bytes += nbytes
        self.walk_io_s += _cost(1, lat, nbytes, bw)

    def charge_walk_ios(self, n_walks: np.ndarray) -> None:
        """:meth:`charge_walk_io` of each ``n_walks[j]`` in turn (an entry of
        0 charges nothing)."""
        lat, bw = self._walk_lat_bw()
        nbytes = n_walks * self.params.walk_bytes
        self.walk_io_bytes += int(np.sum(nbytes))
        self.walk_io_s = float(_fold(self.walk_io_s, _cost(n_walks > 0, lat, nbytes, bw))[-1])

    # -- reporting ----------------------------------------------------------
    @property
    def exec_s(self) -> float:
        """Simulated walk-updating time (paper's "Execution Time")."""
        return self.steps * self.params.step_s + self.bucket_execs * self.params.bucket_s

    @property
    def io_total_s(self) -> float:
        return self.block_io_s + self.vertex_io_s + self.ondemand_io_s + self.walk_io_s

    @property
    def wall_s(self) -> float:
        """Simulated wall time: simulated I/O + simulated execution."""
        return self.io_total_s + self.exec_s

    def snapshot(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "exec_s": self.exec_s,
            "exec_real_s": self.exec_real_s,
            "block_io_num": self.block_io_num,
            "block_io_s": self.block_io_s,
            "vertex_io_num": self.vertex_io_num,
            "vertex_io_s": self.vertex_io_s,
            "ondemand_io_num": self.ondemand_io_num,
            "ondemand_io_s": self.ondemand_io_s,
            "walk_io_bytes": self.walk_io_bytes,
            "walk_io_s": self.walk_io_s,
            "time_slots": self.time_slots,
            "bucket_execs": self.bucket_execs,
            "steps": self.steps,
        }
