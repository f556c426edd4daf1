"""Shared test utilities: deterministic toy graphs and stores (no Spark)."""
from __future__ import annotations

import contextlib

import numpy as np

from repro.disk.iosim import DiskSim, IOParams
from repro.disk.store import BlockStore
from repro.graphs.csr import CSR, csr_from_arrays
from repro.graphs.partition import Partition
from repro.walks.state import Walks


def random_edges(n: int, m: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """~m distinct undirected edges as directed arc arrays (both directions)."""
    rng = np.random.default_rng(seed)
    pairs = set()
    while len(pairs) < m:
        a, b = rng.integers(0, n, 2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    src = np.array([p[0] for p in pairs] + [p[1] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs] + [p[0] for p in pairs], dtype=np.int64)
    return src, dst


def random_csr(n: int, m: int, seed: int = 0) -> CSR:
    src, dst = random_edges(n, m, seed)
    return csr_from_arrays(n, src, dst)


def even_partition(n: int, n_blocks: int) -> Partition:
    cuts = np.linspace(0, n, n_blocks + 1).astype(np.int64)
    return Partition(block_starts=np.unique(cuts))


def toy_store(
    n: int = 60, m: int = 220, n_blocks: int = 5, seed: int = 0, cache: str = "none"
) -> tuple[BlockStore, DiskSim]:
    csr = random_csr(n, m, seed)
    store = BlockStore(csr, even_partition(n, n_blocks), params=IOParams())
    return store, DiskSim(params=store.params, cache=cache)


def all_vertex_starts(csr: CSR, per_vertex: int = 2) -> Walks:
    src_v = np.flatnonzero(csr.deg > 0).astype(np.int64)
    src = np.repeat(src_v, per_vertex)
    return Walks.from_sources(np.arange(len(src), dtype=np.int64), src)


def path_graph_csr(n: int) -> CSR:
    """Path 0-1-2-...-(n-1): deterministic degree-1/2 structure."""
    src = np.concatenate([np.arange(n - 1), np.arange(1, n)])
    dst = np.concatenate([np.arange(1, n), np.arange(n - 1)])
    return csr_from_arrays(n, src, dst)


def star_graph_csr(n: int) -> CSR:
    """Star with hub 0 and n-1 leaves."""
    src = np.concatenate([np.zeros(n - 1, dtype=np.int64), np.arange(1, n)])
    dst = np.concatenate([np.arange(1, n), np.zeros(n - 1, dtype=np.int64)])
    return csr_from_arrays(n, src, dst)


@contextlib.contextmanager
def residency_checked():
    """Check, before every step of every engine, that the step reads only
    resident blocks: each walk's current vertex lies in current block ``b``
    or its bucket's block, and for the two-block engines so does each
    second-order previous vertex (SOGW/SGSC fetch those by vertex I/O).
    Both the one-slot loop and each hop of a hop-synchronous pass call
    ``EnginePolicy.before_step`` (a hop with each walk's slot as ``b``).

    Yields a list that collects the number of walks each checked step
    covered, so a caller can see that every step was checked.
    """
    from repro.engines.base import EnginePolicy
    from repro.engines.bi_block import BiBlockPolicy
    from repro.engines.plain_bucket import PBPolicy
    from repro.engines.sogw import SOGWPolicy

    seen: list[int] = []

    def wrap(before_step):
        def checked(self, active, b, bucket):
            prevb, curb = self.bmap[active.prev], self.bmap[active.cur]
            assert ((curb == b) | (curb == bucket)).all(), "current vertex not resident"
            if isinstance(self, (BiBlockPolicy, PBPolicy)):
                assert ((prevb < 0) | (prevb == b) | (prevb == bucket)).all(), (
                    "previous vertex not resident"
                )
            seen.append(len(curb))
            return before_step(self, active, b, bucket)

        return checked

    # Every other policy, first-order included, inherits EnginePolicy's.
    classes = (EnginePolicy, SOGWPolicy)
    saved = {cls: cls.__dict__["before_step"] for cls in classes}
    try:
        for cls, fn in saved.items():
            cls.before_step = wrap(fn)
        yield seen
    finally:
        for cls, fn in saved.items():
            cls.before_step = fn


@contextlib.contextmanager
def slot_trace():
    """Record the current block of every time slot, in the order the
    engines charge them (each outermost ``load_current`` call of the
    one-slot loop, and the slots a hop-synchronous pass's records charge),
    and count the engines' ``advance`` calls.

    Yields a namespace with ``blocks`` and ``advances``; its ``sweeps()``
    counts the ascending runs of ``blocks``, the Iteration scheduler's
    iterations.
    """
    from types import SimpleNamespace

    from repro.engines import base
    from repro.engines.base import EnginePolicy, SweepLog
    from repro.engines.first_order import FirstOrderPolicy
    from repro.engines.sogw import SOGWPolicy

    trace = SimpleNamespace(blocks=[], advances=0)
    trace.sweeps = lambda: sum(1 for i, b in enumerate(trace.blocks)
                               if i == 0 or b <= trace.blocks[i - 1])
    depth = [0]

    def wrap(load_current):
        def traced(self, b, *args):
            if not depth[0]:
                trace.blocks.append(int(b))
            depth[0] += 1
            try:
                return load_current(self, b, *args)
            finally:
                depth[0] -= 1

        return traced

    def charged(log, policy):
        trace.blocks += (np.flatnonzero(log.reads) % log.nb).tolist()
        return charge(log, policy)

    def counted(*args, **kwargs):
        trace.advances += 1
        return advance(*args, **kwargs)

    classes = (EnginePolicy, FirstOrderPolicy, SOGWPolicy)
    saved = {cls: cls.__dict__["load_current"] for cls in classes}
    advance, charge = base.advance, SweepLog.charge
    try:
        for cls, fn in saved.items():
            cls.load_current = wrap(fn)
        base.advance, SweepLog.charge = counted, charged
        yield trace
    finally:
        base.advance, SweepLog.charge = advance, charge
        for cls, fn in saved.items():
            cls.load_current = fn
