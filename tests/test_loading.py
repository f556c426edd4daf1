"""Tests for block loading methods and the learning-based model (paper §5)."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grasorw import GraphSystem
from repro.disk.iosim import DiskSim
from repro.disk.store import BlockStore
from repro.engines.bi_block import run_bi_block
from repro.engines.loading import (
    FULL,
    ONDEMAND,
    BlockLoader,
    LearnedLoadModel,
    LoadLogs,
    fit_line,
)
from repro.engines.scheduling import SCHEDULERS
from repro.walks.models import WalkTask
from repro.walks.state import Walks

from .helpers import all_vertex_starts, even_partition, random_csr
from .sequential_oracle import choose as choose_one


def _store(n=100, m=400, nb=5, seed=0):
    csr = random_csr(n, m, seed)
    return BlockStore(csr, even_partition(n, nb))


class TestFitLine:
    def test_with_intercept(self):
        x = np.linspace(0, 1, 20)
        y = 3.0 * x + 0.5
        a, b = fit_line(x, y)
        assert a == pytest.approx(3.0) and b == pytest.approx(0.5)

    def test_degenerate(self):
        a, b = fit_line(np.zeros(3), np.zeros(3))
        assert a == 0.0 and b == 0.0


class TestLearnedModel:
    def _logs(self, alpha_f, b_f, alpha_o, bid=0, n=20):
        logs = LoadLogs()
        for eta in np.linspace(0.01, 1.0, n):
            logs.add(bid, float(eta), alpha_f * eta + b_f, FULL)
            logs.add(bid, float(eta), alpha_o * eta, ONDEMAND)
        return logs

    def test_threshold_formula(self):
        """§5.2.2: η₀ = b_f / (α_o − α_f) on planted linear costs."""
        logs = self._logs(alpha_f=1.0, b_f=2.0, alpha_o=6.0)
        model = LearnedLoadModel.fit(logs, 1)
        assert model.eta0[0] == pytest.approx(2.0 / 5.0, rel=1e-6)

    def test_choose_sides(self):
        logs = self._logs(alpha_f=1.0, b_f=2.0, alpha_o=6.0)
        model = LearnedLoadModel.fit(logs, 1)
        assert model.choose(0, 0.1) == ONDEMAND  # below η₀: cheaper on demand
        assert model.choose(0, 0.9) == FULL  # above η₀: full load wins

    def test_ondemand_never_catches_up(self):
        # α_o <= α_f with b_f > 0: on-demand always cheaper → η₀ = inf
        logs = self._logs(alpha_f=5.0, b_f=1.0, alpha_o=2.0)
        model = LearnedLoadModel.fit(logs, 1)
        assert np.isinf(model.eta0[0])
        assert model.choose(0, 0.99) == ONDEMAND

    def test_global_fallback_for_unseen_block(self):
        logs = self._logs(alpha_f=1.0, b_f=2.0, alpha_o=6.0, bid=0)
        model = LearnedLoadModel.fit(logs, 3)
        assert model.eta0[2] == pytest.approx(model.eta0[0])

    def test_no_data_defaults_to_full(self):
        """Untrained blocks keep the traditional full-load method."""
        model = LearnedLoadModel.fit(LoadLogs(), 2)
        assert model.choose(0, 0.01) == FULL
        assert model.choose(1, 0.99) == FULL

    @settings(max_examples=200, deadline=None)
    @given(
        coef=st.lists(
            st.tuples(*[st.sampled_from([0.0, 0.5, 1.0, 2.0])] * 2,
                      *[st.sampled_from([0.0, 0.5, 1.0, 2.0, np.inf])] * 2),
            min_size=1, max_size=4,
        ),
        picks=st.lists(st.tuples(st.integers(0, 3), st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])),
                       max_size=12),
    )
    def test_array_choice_matches_scalar_rule(self, coef, picks):
        """The slot-at-once choice is the one-block rule: small dyadic
        coefficients make ties (full load wins them) common, and α_o = inf
        (no on-demand data) always loads fully."""
        model = LearnedLoadModel(coef=np.array(coef, dtype=np.float64))
        bids = np.array([b % len(coef) for b, _ in picks], dtype=np.int64)
        eta = np.array([e for _, e in picks], dtype=np.float64)
        want = [choose_one(model, int(b), float(e)) for b, e in zip(bids, eta)]
        assert model.prefers_full(bids, eta).tolist() == [m == FULL for m in want]
        assert [model.choose(int(b), float(e)) for b, e in zip(bids, eta)] == want

    def test_saturating_ondemand_curve_prefers_full(self):
        """The refinement over §5.2.1: when t_o(η) saturates (concave), the
        fitted intercept keeps small-η buckets on full load instead of
        extrapolating through the origin."""
        logs = LoadLogs()
        for eta in np.linspace(0.01, 1.0, 30):
            logs.add(0, float(eta), 1.0 * eta + 0.5, FULL)  # b_f = 0.5
            logs.add(0, float(eta), min(2.0, 0.45 + 10.0 * eta), ONDEMAND)
        model = LearnedLoadModel.fit(logs, 1)
        # At tiny η the true on-demand cost (~0.45+) is near b_f; the
        # zero-intercept paper model would predict ~0 and switch wrongly.
        assert model.choose(0, 0.01) == FULL


class TestBlockLoader:
    def test_full_load_charges_block(self):
        store = _store()
        sim = DiskSim(params=store.params)
        loader = BlockLoader(store, sim, mode=FULL)
        loader.load(1, 10, np.array([store.part.block_starts[1]]))
        assert sim.block_io_num == 1 and sim.ondemand_io_num == 0

    def test_ondemand_charges_per_vertex(self):
        store = _store()
        sim = DiskSim(params=store.params)
        loader = BlockLoader(store, sim, mode=ONDEMAND)
        lo, hi = store.part.block_slice(2)
        vs = np.arange(lo, lo + 5)
        loader.load(2, 5, vs)
        assert sim.block_io_num == 0 and sim.ondemand_io_num == 5

    def test_ensure_deduplicates(self):
        store = _store()
        sim = DiskSim(params=store.params)
        loader = BlockLoader(store, sim, mode=ONDEMAND)
        lo, _ = store.part.block_slice(0)
        loader.load(0, 3, np.array([lo, lo + 1]))
        loader.ensure(np.array([lo, lo + 1, lo + 2]))  # only lo+2 is new
        loader.ensure(np.array([lo + 2]))  # already resident
        assert sim.ondemand_io_num == 3

    def test_ondemand_bytes_smaller_than_full(self):
        """Fig. 5's point: activating few vertices costs fewer bytes than a
        full block load."""
        store = _store(n=200, m=800, nb=4, seed=1)
        full, od = DiskSim(params=store.params), DiskSim(params=store.params)
        BlockLoader(store, full, mode=FULL).load(1, 2, np.array([]))
        lo, _ = store.part.block_slice(1)
        BlockLoader(store, od, mode=ONDEMAND).load(1, 2, np.arange(lo, lo + 2))
        assert od.ondemand_io_s < full.block_io_s

    def test_learned_requires_model(self):
        store = _store()
        with pytest.raises(ValueError):
            BlockLoader(store, DiskSim(), mode="learned")

    def test_logs_record_eta_and_time(self):
        store = _store()
        sim = DiskSim(params=store.params)
        logs = LoadLogs()
        loader = BlockLoader(store, sim, mode=FULL, logs=logs)
        loader.load(1, 10, np.array([]))
        loader.finish()
        bid, eta, t, mode = logs.arrays()
        assert bid[0] == 1 and mode[0] == FULL
        assert eta[0] == pytest.approx(10 / store.part.vertices_in_block(1))
        assert t[0] > 0


class TestFullLoadShadow:
    """The full-load shadow of one-pass training: its walk pass charged
    through a forced full-load loader gives the block clock and the load
    records of a forced full-load run. That rests on the loading mode
    moving no walk, which holds under every scheduler."""

    def _check(self, system, task, starts, first_order, monkeypatch):
        engine = "GraSorw-FO" if first_order else "GraSorw"
        full_logs = LoadLogs()
        full = system.run(engine, task, starts, loading=FULL, load_logs=full_logs).sim
        sims = []
        new_sim = system.new_sim
        monkeypatch.setattr(system, "new_sim", lambda: sims.append(new_sim()) or sims[-1])
        _, logs = system.train_load_model(task, starts, first_order=first_order)
        n = len(full_logs.bid)
        assert n > 0 and set(logs.mode[n:]) == {ONDEMAND}
        # bid, eta, t and mode of the full-load records, each ==
        assert LoadLogs(logs.bid[:n], logs.eta[:n], logs.t[:n], logs.mode[:n]) == full_logs
        # One charge loaded on demand; the other kept the full-load block clock.
        assert [(s.block_io_num, s.block_io_s) for s in sims if not s.ondemand_io_num] == [
            (full.block_io_num, full.block_io_s)]
        assert len(sims) == 2

    @pytest.mark.parametrize("cache", ["none", "all"])
    @pytest.mark.parametrize("task", [WalkTask(max_len=10, seed=5),
                                      WalkTask(max_len=12, alpha=0.85, p=2.0, q=0.5, seed=6)])
    def test_bi_block(self, cache, task, monkeypatch):
        store = _store(n=150, m=600, nb=6, seed=5)
        starts = all_vertex_starts(store.csr, 1)
        self._check(GraphSystem(store=store, cache=cache), task, starts, False, monkeypatch)

    @pytest.mark.parametrize("cache", ["none", "all"])
    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_first_order(self, cache, scheduler, monkeypatch):
        """Under ``scheduler`` a forced on-demand run takes the slots,
        buckets, steps and pool I/O of a forced full-load one, and loads the
        same blocks at the same η; training (Iteration) is checked too."""
        store = _store(n=150, m=600, nb=6, seed=7)
        task = WalkTask(max_len=10, first_order=True, seed=7)
        starts = all_vertex_starts(store.csr, 1)
        system = GraphSystem(store=store, cache=cache)
        runs = []
        for mode in (FULL, ONDEMAND):
            logs = LoadLogs()
            sim = system.run("GraSorw-FO", task, starts, scheduler=scheduler, loading=mode,
                             load_logs=logs).sim
            runs.append((sim, logs))
        (full, full_logs), (od, od_logs) = runs
        for f in ("time_slots", "bucket_execs", "steps", "walk_io_bytes", "walk_io_s"):
            assert getattr(full, f) == getattr(od, f), f
        assert (full_logs.bid, full_logs.eta) == (od_logs.bid, od_logs.eta)
        assert od.ondemand_io_num > 0  # the walked run did load on demand
        if scheduler == "alphabet":  # some slots loaded a walk-less block
            assert full.time_slots > full.bucket_execs
        if scheduler == "iteration":
            self._check(system, task, starts, True, monkeypatch)


class TestEndToEndLBL:
    def test_trained_model_not_worse_than_pure_modes(self):
        """The learned switch should cost at most ~the better pure mode in
        simulated I/O (the Table 4 claim, at toy scale)."""
        store = _store(n=150, m=600, nb=6, seed=2)
        task = WalkTask(max_len=10, seed=2)
        starts = lambda: all_vertex_starts(store.csr, 1)  # noqa: E731

        logs = LoadLogs()
        sims = {}
        for mode in (FULL, ONDEMAND):
            sim = DiskSim(params=store.params)
            run_bi_block(store, task, starts(), sim=sim, loading=mode, load_logs=logs)
            sims[mode] = sim
        model = LearnedLoadModel.fit(logs, store.n_blocks)
        sim_l = DiskSim(params=store.params)
        run_bi_block(store, task, starts(), sim=sim_l, loading="learned", load_model=model)

        def io(s):
            return s.block_io_s + s.ondemand_io_s

        assert io(sim_l) <= 1.1 * min(io(sims[FULL]), io(sims[ONDEMAND]))

    def test_learned_parity_with_reference(self):
        from repro.walks.reference import reference_walk

        store = _store(n=80, m=300, nb=5, seed=3)
        task = WalkTask(max_len=8, p=2.0, q=0.5, seed=3)
        logs = LoadLogs()
        for mode in (FULL, ONDEMAND):
            run_bi_block(
                store, task, all_vertex_starts(store.csr, 1),
                sim=DiskSim(params=store.params), loading=mode, load_logs=logs,
            )
        model = LearnedLoadModel.fit(logs, store.n_blocks)
        res = run_bi_block(
            store, task, all_vertex_starts(store.csr, 1),
            sim=DiskSim(params=store.params), loading="learned",
            load_model=model, record_paths=True,
        )
        ref = reference_walk(store.csr, task, all_vertex_starts(store.csr, 1))
        assert np.array_equal(res.recorder.paths, ref.paths)

    def test_prnv_like_workload_prefers_ondemand_sometimes(self):
        """With few walks in a big graph, the learned model should pick
        on-demand for most ancillary loads — the low-I/O-utilization regime
        of Fig. 10."""
        store = _store(n=300, m=1200, nb=6, seed=4)
        task = WalkTask(max_len=20, alpha=0.85, seed=4)
        q = int(np.argmax(store.csr.deg))
        starts = lambda: Walks.from_sources(np.arange(8), np.full(8, q))  # noqa: E731
        logs = LoadLogs()
        for mode in (FULL, ONDEMAND):
            run_bi_block(store, task, starts(), sim=DiskSim(params=store.params),
                         loading=mode, load_logs=logs)
        model = LearnedLoadModel.fit(logs, store.n_blocks)
        sim = DiskSim(params=store.params)
        run_bi_block(store, task, starts(), sim=sim, loading="learned", load_model=model)
        assert sim.ondemand_io_num > 0  # it actually used on-demand loads
