"""Engine I/O-count identities and structural invariants (paper §4).

These tests check the *count-level* claims: triangular scheduling's block
I/O bound (Eq. 2 vs Eq. 3), the elimination of light vertex I/Os by the
two-block engines, the skewed-storage/triangular relationship, and the
SOGW/SGSC vertex-I/O accounting.
"""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.base import walk_sweeps
from repro.engines.bi_block import BiBlockPolicy, run_bi_block
from repro.engines.plain_bucket import PBPolicy, run_plain_bucket
from repro.engines.sgsc import build_static_cache, run_sgsc
from repro.engines.sogw import run_sogw
from repro.walks.models import WalkTask
from repro.walks.state import Walks

from .helpers import all_vertex_starts, even_partition, random_csr, slot_trace
from .test_slot_lockstep import _graph, _task, cases


def _store(n=100, m=400, nb=8, seed=0):
    csr = random_csr(n, m, seed)
    return BlockStore(csr, even_partition(n, nb))


class TestVertexIOs:
    def test_two_block_engines_do_no_vertex_io(self):
        """The bi-block engine's purpose: previous vertices are always in
        one of the two resident blocks, so light vertex I/Os vanish."""
        store = _store()
        task = WalkTask(max_len=10, seed=1)
        for fn in (run_bi_block, run_plain_bucket):
            sim = DiskSim(params=store.params)
            fn(store, task, all_vertex_starts(store.csr, 2), sim=sim)
            assert sim.vertex_io_num == 0

    def test_sogw_vertex_io_scales_with_steps(self):
        store = _store()
        task = WalkTask(max_len=10, seed=2)
        sim = DiskSim(params=store.params)
        res = run_sogw(store, task, all_vertex_starts(store.csr, 2), sim=sim)
        # most steps cross blocks on a random graph with 8 blocks
        assert 0.3 * sim.steps < sim.vertex_io_num <= sim.steps
        assert res.metrics["vertex_io_s"] > 0

    def test_sgsc_cache_reduces_vertex_io(self):
        store = _store(n=120, m=600, nb=6, seed=3)
        task = WalkTask(max_len=10, seed=3)
        a, b = DiskSim(params=store.params), DiskSim(params=store.params)
        run_sogw(store, task, all_vertex_starts(store.csr, 2), sim=a)
        run_sgsc(store, task, all_vertex_starts(store.csr, 2), sim=b)
        assert b.vertex_io_num < a.vertex_io_num

    def test_first_order_task_no_vertex_io_in_sogw(self):
        store = _store()
        task = WalkTask(max_len=8, first_order=True, seed=4)
        sim = DiskSim(params=store.params)
        run_sogw(store, task, all_vertex_starts(store.csr, 1), sim=sim)
        assert sim.vertex_io_num == 0


class TestBlockIOs:
    def test_triangular_saves_about_half(self):
        """Eq. 2 vs Eq. 3: bi-block needs roughly half PB's block I/Os."""
        store = _store(n=200, m=900, nb=10, seed=5)
        task = WalkTask(max_len=20, seed=5)
        a, b = DiskSim(params=store.params), DiskSim(params=store.params)
        run_plain_bucket(store, task, all_vertex_starts(store.csr, 3), sim=a)
        run_bi_block(store, task, all_vertex_starts(store.csr, 3), sim=b)
        ratio = b.block_io_num / a.block_io_num
        assert 0.3 < ratio < 0.75

    def test_eq3_bound_per_superstep(self):
        """Per full sweep the bi-block engine loads at most
        (N_B+2)(N_B-1)/2 + 1 blocks (Eq. 3, + the self-bucket slot for the
        last block during initialization)."""
        store = _store(n=120, m=500, nb=6, seed=6)
        task = WalkTask(max_len=1, seed=6)  # exactly one superstep
        sim = DiskSim(params=store.params)
        run_bi_block(store, task, all_vertex_starts(store.csr, 2), sim=sim)
        nb = store.n_blocks
        assert sim.block_io_num <= (nb + 2) * (nb - 1) // 2 + 1

    @staticmethod
    def _loads_per_sweep(policy_cls, case) -> tuple[int, np.ndarray]:
        """N_B and the block loads of each sweep of a full-load pass under
        ``policy_cls``, counted from the pass's records: slot ``c`` loads its
        block and each bucket but its own. Checks that they add up to the
        run's block I/Os."""
        store = _graph(case["kind"], case["n"], case["density"], case["n_blocks"],
                       case["graph_seed"])
        task, starts = _task(case["task"], store.csr, case["walk_seed"], case["max_len"])
        sim = DiskSim(params=store.params)
        policy = policy_cls(store, sim)
        log = walk_sweeps(store, task, starts, policy, None)
        log.charge(policy)
        nb, slots = store.n_blocks, len(log.reads)
        entered = np.zeros(slots * nb, dtype=np.int64)
        entered[: len(log.n_in)] = log.n_in
        entered = entered.reshape(slots, nb) > 0  # per slot id, per bucket
        own = entered[np.arange(slots), np.arange(slots) % nb]
        loads = np.where(log.reads > 0, 1 + entered.sum(axis=1) - own, 0)
        assert loads.sum() == sim.block_io_num
        return nb, np.bincount(np.arange(slots) // nb, weights=loads)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cases)
    def test_eq3_bound_per_sweep(self, case):
        """Eq. 3 in every full-load sweep of the bi-block pass, on one-block,
        singleton, even and hub partitions: slot ``c`` loads its block and
        at most the ancillaries above it, so a sweep loads at most
        (N_B+2)(N_B-1)/2 + 1 blocks."""
        nb, per_sweep = self._loads_per_sweep(BiBlockPolicy, case)
        assert (per_sweep <= (nb + 2) * (nb - 1) // 2 + 1).all()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(cases)
    def test_eq2_bound_per_sweep(self, case):
        """Eq. 2 in every sweep of PB under Iteration-based scheduling, on
        the same partitions: slot ``c`` loads its block and at most every
        other block as an ancillary, so a sweep loads at most N_B² blocks."""
        nb, per_sweep = self._loads_per_sweep(PBPolicy, case)
        assert (per_sweep <= nb * nb).all()

    def test_bi_block_loads_are_mostly_sequential(self):
        """Triangular scheduling turns ancillary loads sequential, so the
        per-I/O time is lower than PB's (paper §7.3)."""
        store = _store(n=200, m=900, nb=10, seed=7)
        task = WalkTask(max_len=15, seed=7)
        a, b = DiskSim(params=store.params), DiskSim(params=store.params)
        run_plain_bucket(store, task, all_vertex_starts(store.csr, 3), sim=a)
        run_bi_block(store, task, all_vertex_starts(store.csr, 3), sim=b)
        assert (b.block_io_s / b.block_io_num) < (a.block_io_s / a.block_io_num)

    def test_bucket_execs_halved(self):
        """§7.3: bucket executions (thread management) drop with block I/Os."""
        store = _store(n=200, m=900, nb=10, seed=8)
        task = WalkTask(max_len=15, seed=8)
        a, b = DiskSim(params=store.params), DiskSim(params=store.params)
        run_plain_bucket(store, task, all_vertex_starts(store.csr, 3), sim=a)
        run_bi_block(store, task, all_vertex_starts(store.csr, 3), sim=b)
        assert b.bucket_execs < a.bucket_execs

    def test_all_walks_complete(self):
        store = _store(n=80, m=320, nb=5, seed=9)
        task = WalkTask(max_len=12, seed=9)
        starts = all_vertex_starts(store.csr, 2)
        sim = DiskSim(params=store.params)
        res = run_bi_block(store, task, starts, sim=sim, record_paths=True)
        hops = (res.recorder.paths >= 0).sum(axis=1) - 1
        assert (hops == 12).all()

    def test_steps_equal_across_engines(self):
        store = _store(seed=10)
        task = WalkTask(max_len=9, seed=10)
        counts = []
        for fn in (run_sogw, run_plain_bucket, run_bi_block):
            sim = DiskSim(params=store.params)
            fn(store, task, all_vertex_starts(store.csr, 2), sim=sim)
            counts.append(sim.steps)
        assert len(set(counts)) == 1


class TestSGSCCache:
    def test_budget_is_one_block_of_edges(self):
        store = _store(n=150, m=700, nb=6, seed=11)
        sim = DiskSim(params=store.params)
        cache = build_static_cache(store, sim)
        s = store.part.block_starts
        budget = int((store.csr.indptr[s[1:]] - store.csr.indptr[s[:-1]]).max())
        cached_deg = int(store.csr.deg[cache].sum())
        top = np.sort(store.csr.deg)[::-1]
        assert cached_deg >= budget
        # minimal: removing the smallest cached vertex drops below budget
        k = int(cache.sum())
        assert top[: k - 1].sum() < budget

    def test_cache_picks_top_degrees(self):
        store = _store(n=100, m=500, nb=5, seed=12)
        cache = build_static_cache(store, DiskSim(params=store.params))
        assert store.csr.deg[cache].min() >= store.csr.deg[~cache].max() - 1

    def test_init_charges_full_scan(self):
        store = _store(nb=8, seed=13)
        sim = DiskSim(params=store.params)
        build_static_cache(store, sim)
        assert sim.block_io_num == store.n_blocks


class TestLiveness:
    def test_every_superstep_advances_all_walks(self):
        """Appendix B: in each bi-block sweep every live walk moves >= 1 step.
        Hence total sweeps <= max_len."""
        store = _store(n=100, m=380, nb=7, seed=14)
        max_len = 11
        task = WalkTask(max_len=max_len, seed=14)
        sim = DiskSim(params=store.params)
        run_bi_block(store, task, all_vertex_starts(store.csr, 2), sim=sim)
        # time_slots counts per-current-block slots; sweeps <= max_len means
        # slots <= max_len * N_B.
        assert sim.time_slots <= max_len * store.n_blocks

    def test_sweeps_step_in_lockstep(self):
        """Appendix B bounds the sweeps by the walk length; the walks of
        every sweep also step together, as one hop-synchronous pass, so
        ``advance`` runs at most ``max_len`` times per sweep."""
        store = _store(n=100, m=380, nb=7, seed=14)
        max_len = 11
        task = WalkTask(max_len=max_len, seed=14)
        with slot_trace() as trace:
            run_bi_block(store, task, all_vertex_starts(store.csr, 2),
                         sim=DiskSim(params=store.params))
        sweeps = trace.sweeps()
        assert len(trace.blocks) > sweeps  # sweeps of more than one slot
        assert sweeps <= max_len
        assert trace.advances <= max_len * sweeps

    def test_single_walk_terminates(self):
        store = _store(n=60, m=200, nb=4, seed=15)
        task = WalkTask(max_len=30, seed=15)
        starts = Walks.from_sources(np.array([0]), np.array([int(np.argmax(store.csr.deg))]))
        res = run_bi_block(store, task, starts, sim=DiskSim(params=store.params), record_paths=True)
        assert (res.recorder.paths[0] >= 0).sum() == 31
