"""Tests for the I/O cost model and counters (repro.disk.iosim)."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.iosim import DiskSim, IOParams


@pytest.fixture
def sim():
    return DiskSim(params=IOParams())


class TestBlockLoad:
    def test_counts(self, sim):
        sim.charge_block_load(0, 1000)
        sim.charge_block_load(1, 1000)
        assert sim.block_io_num == 2

    def test_sequential_cheaper_than_random(self):
        p = IOParams()
        a = DiskSim(params=p)
        a.charge_block_load(3, 10_000)
        a.charge_block_load(4, 10_000)  # sequential successor
        b = DiskSim(params=p)
        b.charge_block_load(3, 10_000)
        b.charge_block_load(9, 10_000)  # random jump
        assert a.block_io_s < b.block_io_s

    def test_time_formula_sequential(self):
        p = IOParams()
        sim = DiskSim(params=p)
        sim.charge_block_load(0, 2_000_000)
        sim.charge_block_load(1, 2_000_000)
        expect = (
            p.rand_block_seek_s + p.seq_seek_s + 2 * 2_000_000 / p.seq_bw_bps
        )  # first load is a jump from nowhere
        assert sim.block_io_s == pytest.approx(expect)

    def test_cached_block_cheaper(self):
        p = IOParams()
        cold = DiskSim(params=p)
        cold.charge_block_load(0, 1_000_000)
        hot = DiskSim(params=p, cache="all")
        hot.charge_block_load(0, 1_000_000)
        assert hot.block_io_s < cold.block_io_s


class TestVertexFetch:
    def test_counts_and_kinds(self, sim):
        sim.charge_vertex_fetch(np.array([100, 200]), kind="vertex")
        sim.charge_vertex_fetch(np.array([50]), kind="ondemand")
        assert sim.vertex_io_num == 2
        assert sim.ondemand_io_num == 1
        assert sim.vertex_io_s > 0 and sim.ondemand_io_s > 0

    def test_empty_is_free(self, sim):
        sim.charge_vertex_fetch(np.array([], dtype=np.int64))
        assert sim.vertex_io_num == 0 and sim.vertex_io_s == 0.0

    def test_bad_kind(self, sim):
        with pytest.raises(ValueError):
            sim.charge_vertex_fetch(np.array([1]), kind="bogus")

    def test_time_formula(self):
        p = IOParams()
        sim = DiskSim(params=p)
        sim.charge_vertex_fetch(np.array([1000, 3000]))
        assert sim.vertex_io_s == pytest.approx(2 * p.rand_lat_s + 4000 / p.rand_bw_bps)

    def test_cache_all_uses_hit_latency(self):
        p = IOParams()
        sim = DiskSim(params=p, cache="all")
        sim.charge_vertex_fetch(np.array([1000]))
        assert sim.vertex_io_s == pytest.approx(p.hit_lat_s + 1000 / p.mem_bw_bps)

    def test_block_load_beats_many_vertex_ios(self):
        """The paper's core premise: one sequential block I/O is far cheaper
        than fetching the same bytes as light random vertex I/Os (here a
        ~5x gap at 200 vertices; it grows linearly with block size)."""
        p = IOParams()
        block = DiskSim(params=p)
        block.charge_block_load(0, 0)  # position the head
        block.charge_block_load(1, 200 * 168)  # sequential successor
        base = DiskSim(params=p)
        base.charge_block_load(0, 0)
        scattered = DiskSim(params=p)
        scattered.charge_vertex_fetch(np.full(200, 168))
        seq_cost = block.block_io_s - base.block_io_s
        assert scattered.vertex_io_s > 5 * seq_cost


class TestWalkIO:
    def test_bytes(self, sim):
        sim.charge_walk_io(100)
        assert sim.walk_io_bytes == 100 * sim.params.walk_bytes
        assert sim.walk_io_s > 0

    def test_zero_free(self, sim):
        sim.charge_walk_io(0)
        assert sim.walk_io_bytes == 0 and sim.walk_io_s == 0.0


class TestClocks:
    def test_exec_model(self, sim):
        sim.steps = 1_000_000
        sim.bucket_execs = 10
        p = sim.params
        assert sim.exec_s == pytest.approx(1_000_000 * p.step_s + 10 * p.bucket_s)

    def test_wall_composition(self, sim):
        sim.charge_block_load(0, 1000)
        sim.charge_vertex_fetch(np.array([100]))
        sim.charge_walk_io(10)
        sim.steps = 100
        assert sim.wall_s == pytest.approx(sim.io_total_s + sim.exec_s)

    def test_snapshot_keys(self, sim):
        snap = sim.snapshot()
        for k in (
            "wall_s", "exec_s", "exec_real_s", "block_io_num", "block_io_s",
            "vertex_io_num", "vertex_io_s", "ondemand_io_num", "ondemand_io_s",
            "walk_io_bytes", "walk_io_s", "time_slots", "bucket_execs", "steps",
        ):
            assert k in snap


class TestArrayCharges:
    """The array charges a slot replay makes are the scalar charges, folded
    into each clock one by one: every field stays ``==``."""

    @settings(max_examples=200, deadline=None)
    @given(
        cache=st.sampled_from(["none", "all"]),
        clocks=st.tuples(*[st.floats(0, 1e12) for _ in range(4)]),
        last_block=st.sampled_from([-(10**9), 0, 3]),
        blocks=st.lists(st.tuples(st.integers(0, 6), st.integers(0, 10**7)), max_size=20),
        fetches=st.lists(st.lists(st.integers(8, 10**6), max_size=6), max_size=20),
        kind=st.sampled_from(["vertex", "ondemand"]),
        byte_type=st.sampled_from([np.int64, np.float64]),
        walks=st.lists(st.integers(0, 10**6), max_size=20),
    )
    def test_equal_to_scalar_charges(
        self, cache, clocks, last_block, blocks, fetches, kind, byte_type, walks
    ):
        def start() -> DiskSim:
            sim = DiskSim(params=IOParams(), cache=cache)
            sim.block_io_s, sim.vertex_io_s, sim.ondemand_io_s, sim.walk_io_s = clocks
            sim.block_io_num, sim.ondemand_io_num, sim.walk_io_bytes = 5, 7, 16
            sim._last_block = last_block
            return sim

        one, arr = start(), start()
        want_blocks, want_fetches = [one.block_io_s], [getattr(one, f"{kind}_io_s")]
        for bid, nbytes in blocks:
            one.charge_block_load(bid, nbytes)
            want_blocks.append(one.block_io_s)
        for seg in fetches:  # an empty list is a zero entry
            one.charge_vertex_fetch(np.array(seg, dtype=np.int64), kind=kind)
            want_fetches.append(getattr(one, f"{kind}_io_s"))
        for n in walks:
            one.charge_walk_io(n)

        got_blocks = arr.charge_block_loads(
            np.array([b for b, _ in blocks], dtype=np.int64),
            np.array([x for _, x in blocks], dtype=np.int64),
        )
        got_fetches = arr.charge_vertex_fetches(
            np.array([len(s) for s in fetches], dtype=np.int64),
            np.array([sum(s) for s in fetches], dtype=byte_type),
            kind=kind,
        )
        arr.charge_walk_ios(np.array(walks, dtype=np.int64))

        assert dataclasses.asdict(arr) == dataclasses.asdict(one)
        assert got_blocks.tolist() == want_blocks
        assert got_fetches.tolist() == want_fetches

    def test_bad_kind(self, sim):
        with pytest.raises(ValueError):
            sim.charge_vertex_fetches(np.array([1]), np.array([8]), kind="bogus")
