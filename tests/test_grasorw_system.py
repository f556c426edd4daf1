"""Tests for the GraphSystem facade (repro.core.grasorw)."""
import numpy as np
import pytest

import repro.engines.base
from repro.core.grasorw import GraphSystem
from repro.core.tasks import RWNVConfig
from repro.graphs.generators import er_pairs_graph, sbm_graph
from repro.walks.models import WalkTask
from repro.walks.reference import reference_walk


@pytest.fixture(scope="module")
def system(spark):
    edges = er_pairs_graph(spark, n=120, m=420, seed=55).localCheckpoint()
    return GraphSystem.build(edges, 120, n_blocks=6)


class TestBuild:
    def test_geometry(self, system):
        assert system.store.n_blocks == 6
        assert system.csr.n == 120

    def test_metis_build(self, spark):
        edges = sbm_graph(spark, n=64, k=4, p_in=0.6, p_out=0.05, seed=56)
        sys2 = GraphSystem.build(edges, 64, n_blocks=4, partition="metis")
        assert sys2.perm is not None
        assert sorted(sys2.perm.tolist()) == list(range(64))

    def test_bad_partition_name(self, spark):
        edges = er_pairs_graph(spark, n=30, m=60, seed=57)
        with pytest.raises(ValueError):
            GraphSystem.build(edges, 30, n_blocks=2, partition="nope")

    def test_metis_requires_n_blocks(self, spark):
        edges = er_pairs_graph(spark, n=30, m=60, seed=58)
        with pytest.raises(ValueError):
            GraphSystem.build(edges, 30, block_bytes=1000, partition="metis")

    def test_physical_build(self, spark, tmp_path):
        edges = er_pairs_graph(spark, n=40, m=100, seed=59)
        sys2 = GraphSystem.build(edges, 40, n_blocks=3, physical_dir=tmp_path)
        assert len(list(tmp_path.glob("block_*.npz"))) == 3
        cfg = RWNVConfig(walks_per_vertex=1, length=5)
        res = sys2.run("GraSorw", cfg.task(), cfg.starts(sys2.csr))
        assert res.sim.steps > 0


class TestRunDispatch:
    @pytest.mark.parametrize(
        "engine", ["SOGW", "SGSC", "PB", "GraSorw", "GraphWalker", "GraSorw-FO"]
    )
    def test_engines_run_and_agree(self, system, engine):
        first_order = engine in ("GraphWalker", "GraSorw-FO")
        task = WalkTask(max_len=6, first_order=first_order, seed=61)
        cfg = RWNVConfig(walks_per_vertex=1, length=6)
        starts = cfg.starts(system.csr)
        res = system.run(engine, task, starts, record_paths=True)
        ref = reference_walk(system.csr, task, cfg.starts(system.csr))
        assert np.array_equal(res.recorder.paths, ref.paths)

    def test_unknown_engine(self, system):
        cfg = RWNVConfig(walks_per_vertex=1, length=3)
        with pytest.raises(ValueError):
            system.run("Bogus", cfg.task(), cfg.starts(system.csr))

    def test_cache_mode_propagates(self, spark):
        edges = er_pairs_graph(spark, n=50, m=140, seed=62)
        hot = GraphSystem.build(edges, 50, n_blocks=3, cache="all")
        cold = GraphSystem.build(edges, 50, n_blocks=3, cache="none")
        cfg = RWNVConfig(walks_per_vertex=1, length=6)
        rh = hot.run("SOGW", cfg.task(), cfg.starts(hot.csr))
        rc = cold.run("SOGW", cfg.task(), cfg.starts(cold.csr))
        assert rh.sim.vertex_io_num == rc.sim.vertex_io_num  # same events
        assert rh.sim.vertex_io_s < rc.sim.vertex_io_s  # cheaper when cached


class TestTrainLoadModel:
    def test_second_order_training(self, system):
        cfg = RWNVConfig(walks_per_vertex=1, length=6)
        task, starts = cfg.task(), cfg.starts(system.csr)
        model, logs = system.train_load_model(task, starts)
        assert len(model.eta0) == system.store.n_blocks
        bid, eta, t, mode = logs.arrays()
        assert set(mode) == {"full", "ondemand"}
        res = system.run("GraSorw", task, starts, load_model=model, record_paths=True)
        ref = reference_walk(system.csr, task, cfg.starts(system.csr))
        assert np.array_equal(res.recorder.paths, ref.paths)

    def test_first_order_training(self, system):
        task = WalkTask(max_len=5, first_order=True, seed=63)
        cfg = RWNVConfig(walks_per_vertex=1, length=5)
        starts = cfg.starts(system.csr)
        model, _ = system.train_load_model(task, starts, first_order=True)
        res = system.run("GraSorw-FO", task, starts, load_model=model)
        assert res.name == "GraSorw"

    @pytest.mark.parametrize("first_order", [False, True])
    def test_training_walks_once(self, system, monkeypatch, first_order):
        """Training steps the walks as often as one forced run does: one
        walk pass makes the records of both loading modes."""
        task = WalkTask(max_len=6, first_order=first_order, seed=64)
        starts = RWNVConfig(walks_per_vertex=1, length=6).starts(system.csr)
        calls = []
        advance = repro.engines.base.advance
        monkeypatch.setattr(
            repro.engines.base, "advance", lambda *a, **kw: calls.append(1) or advance(*a, **kw)
        )
        system.train_load_model(task, starts, first_order=first_order)
        trained = len(calls)
        system.run("GraSorw-FO" if first_order else "GraSorw", task, starts, loading="full")
        assert trained == len(calls) - trained > 0
