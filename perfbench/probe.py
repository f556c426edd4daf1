"""Host-speed probe: a fixed numpy kernel timed next to every measured step.

The benchmark shares its host, and the host's speed for this kind of code
moves in steps that last a minute or more (about 1.75x between the fast and
the slow state on a 4-vCPU VM). Every call's time moves with it, so a
median over calls inside one run cannot remove it. The probe is timed right
before each engine call (and around each set-up); the benchmark reports
``call seconds / probe seconds x REF_S``: seconds on a host that runs the
probe in exactly ``REF_S``.

The kernel belongs to the benchmark, not to the program, so no change to
the program can make it faster or slower. It does the kind of work the
engines do: batched walk steps over a CSR graph, block lookups by binary
search, boolean selection, concatenation and grouping, on small numpy
arrays whose cost is mostly per-call dispatch.
"""
from __future__ import annotations

import time

import numpy as np

#: Probe seconds that define a reference-host second.
REF_S = 0.065


class Probe:
    def __init__(self) -> None:
        rng = np.random.default_rng(20221017)
        n, m = 4096, 110_000
        src = rng.integers(0, n, m)
        dst = rng.integers(0, n, m)
        arcs = np.unique(np.concatenate([src * n + dst, dst * n + src]))
        arcs = arcs[arcs // n != arcs % n]
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(arcs // n, minlength=n), out=self.indptr[1:])
        self.indices = arcs % n
        self.block_starts = np.linspace(0, n, 18).astype(np.int64)
        live = np.flatnonzero(np.diff(self.indptr) > 0)
        self.walks = live[rng.integers(0, len(live), 32_768)]
        self.draws = rng.random((8, len(self.walks)))
        self()  # first call pays for page faults and lazy imports

    def __call__(self) -> float:
        """Run the kernel once; returns its seconds."""
        t0 = time.perf_counter()
        indptr, indices, bs = self.indptr, self.indices, self.block_starts
        cur = self.walks
        for hop in range(len(self.draws)):
            u = self.draws[hop]
            parts = []
            for lo in range(0, len(cur), 96):
                c = cur[lo:lo + 96]
                deg = indptr[c + 1] - indptr[c]
                nxt = indices[indptr[c] + np.minimum((u[lo:lo + 96] * deg).astype(np.int64),
                                                     deg - 1)]
                blk = np.searchsorted(bs, nxt, side="right") - 1
                stay = blk == blk[0]
                parts.append(np.concatenate([nxt[stay], nxt[~stay]]))
            cur = np.concatenate(parts)
            np.unique(np.searchsorted(bs, cur, side="right"))
        return time.perf_counter() - t0
