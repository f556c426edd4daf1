"""In-memory span tracing of the program's layers, from outside the program.

:class:`Tracer` keeps one span per call of a wrapped function: name, start,
end (``perf_counter_ns``), parent span and two size columns (walks moved,
vertices fetched, ...). :func:`instrument` wraps the public functions of
each layer by rebinding them in every ``repro`` module that holds them and
on their classes, and undoes that on exit, so the program itself is not
edited. Spans live in flat ``array`` columns and are written out once, at
the end of the run.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array
from pathlib import Path

import numpy as np


class Tracer:
    """Flat span store: column arrays plus a stack of the open spans."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.a = array("q")
        self.b = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self.a.append(-1)
        self.b.append(-1)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, a: int = -1, b: int = -1) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()
        self.a[idx] = a
        self.b[idx] = b

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, sizes=None):
        """``fn`` recorded as span ``name``; ``sizes(args, out)`` fills (a, b)."""
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            a = b = -1
            try:
                out = fn(*args, **kwargs)
                if sizes is not None:
                    a, b = sizes(args, out)
                return out
            finally:
                tracer.close(idx, a, b)

        traced.__wrapped__ = fn
        return traced

    def columns(self, lo: int = 0, hi: int | None = None) -> dict[str, np.ndarray]:
        """Spans ``[lo, hi)`` as numpy columns, with inclusive and self time."""
        hi = len(self) if hi is None else hi
        cols = {k: np.frombuffer(getattr(self, k), dtype=np.int64)[lo:hi].copy()
                for k in ("name", "start", "end", "parent", "a", "b")}
        dur = cols["end"] - cols["start"]
        child = np.zeros(hi - lo, dtype=np.int64)
        inside = (cols["parent"] >= lo) & (cols["parent"] < hi)
        np.add.at(child, cols["parent"][inside] - lo, dur[inside])
        cols["dur"] = dur
        cols["self"] = dur - child
        # A span nested in a span of the same name (a scheduler's pick
        # calling another pick) is counted once, through the outer span.
        pname = np.full(hi - lo, -1, dtype=np.int64)
        pname[inside] = cols["name"][cols["parent"][inside] - lo]
        cols["outer"] = pname != cols["name"]
        return cols

    def dump(self, path: Path, meta: dict) -> None:
        """Write every span as columns; ``name`` indexes ``names``, ``parent``
        is a row number (-1 at the top) and ``a``/``b`` are -1 when unused."""
        cols = {k: getattr(self, k).tolist() for k in ("name", "start", "end", "parent", "a", "b")}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names, "spans": cols}, fh,
                      separators=(",", ":"))


class _Patches:
    """Rebinds attributes and puts the originals back on exit."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def function(self, fn, wrapper) -> None:
        """Replace ``fn`` wherever a ``repro`` module binds it by name."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._set(mod, attr, wrapper)

    def method(self, cls, attr: str, wrap) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


@contextlib.contextmanager
def instrument(tracer: Tracer, *, setup: bool):
    """Wrap the set-up layers (``setup=True``) or the engine layers."""
    p = _Patches()
    try:
        if setup:
            _instrument_setup(tracer, p)
        else:
            _instrument_engines(tracer, p)
        yield tracer
    finally:
        p.restore()


def _instrument_setup(t: Tracer, p: _Patches) -> None:
    from repro.disk.store import BlockStore
    from repro.graphs import csr, partition

    for mod, name, span in (
        (partition, "sequential_partition", "graphs.partition.sequential_partition"),
        (partition, "metis_lite_partition", "graphs.partition.metis_lite_partition"),
        (partition, "relabel_edges", "graphs.partition.relabel_edges"),
        (csr, "build_csr", "graphs.csr.build_csr"),
    ):
        fn = getattr(mod, name)
        p.function(fn, t.wrap(span, fn))
    p.method(BlockStore, "__init__", lambda f: t.wrap("disk.store.BlockStore_init", f))


def _instrument_engines(t: Tracer, p: _Patches) -> None:
    from repro import rng
    from repro.core.grasorw import GraphSystem
    from repro.disk.store import BlockStore
    from repro.engines import base, bi_block, first_order, plain_bucket, sgsc, sogw
    from repro.engines.loading import ONDEMAND, BlockLoader, LearnedLoadModel
    from repro.engines.scheduling import SCHEDULERS
    from repro.walks import buckets, models
    from repro.walks.state import Walks

    def fn(mod, name, span, sizes=None):
        f = getattr(mod, name)
        p.function(f, t.wrap(span, f, sizes))

    fn(bi_block, "run_bi_block", "engines.bi_block")
    fn(first_order, "run_first_order", "engines.first_order")
    fn(sogw, "run_sogw", "engines.sogw")
    fn(plain_bucket, "run_plain_bucket", "engines.plain_bucket")
    fn(sgsc, "run_sgsc", "engines.sgsc")
    fn(sgsc, "build_static_cache", "engines.sgsc.build_static_cache")
    fn(models, "advance", "walks.models.advance", lambda a, out: (len(a[2]), -1))
    fn(models, "done_mask", "walks.models.done_mask")
    fn(rng, "unit_hash", "rng.unit_hash")
    fn(buckets, "collect_buckets", "walks.buckets.collect_buckets")
    fn(base, "split_done", "engines.base.split_done")

    def meth(cls, name, span, sizes=None):
        p.method(cls, name, lambda f: t.wrap(span, f, sizes))

    meth(buckets.ExtensionBuffers, "add", "walks.buckets.ExtensionBuffers.add")
    meth(buckets.ExtensionBuffers, "drain", "walks.buckets.ExtensionBuffers.drain")
    meth(base.WalkPools, "add_grouped", "engines.base.WalkPools.add_grouped",
         lambda a, out: (len(a[2]), -1))
    meth(base.WalkPools, "pop", "engines.base.WalkPools.pop", lambda a, out: (len(out), -1))
    meth(base.BlockSlots, "ensure", "engines.base.BlockSlots.ensure")
    meth(base.BlockSlots, "has_block", "engines.base.BlockSlots.has_block")
    meth(Walks, "select", "walks.state.Walks.select", lambda a, out: (len(out), -1))
    meth(Walks, "concat", "walks.state.Walks.concat")
    meth(BlockStore, "block_of", "disk.store.BlockStore.block_of")
    meth(BlockLoader, "load", "engines.loading.BlockLoader.load",
         lambda a, out: (int(out == ONDEMAND), -1))
    meth(LearnedLoadModel, "fit", "engines.loading.LearnedLoadModel.fit")
    meth(GraphSystem, "train_load_model", "core.grasorw.train_load_model")
    for cls in {c for c in SCHEDULERS.values() if c is not None}:
        if "pick" in cls.__dict__:
            meth(cls, "pick", "engines.scheduling.pick")

    # ensure: (vertices asked for, vertices fetched) — the on-demand hit ratio.
    def wrap_ensure(f):
        def ensure(self, vs):
            before = self.sim.ondemand_io_num
            idx = t.open("engines.loading.BlockLoader.ensure")
            try:
                return f(self, vs)
            finally:
                t.close(idx, len(vs), self.sim.ondemand_io_num - before)
        ensure.__wrapped__ = f
        return ensure

    p.method(BlockLoader, "ensure", wrap_ensure)


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------
SETUP_SPANS = (
    "spark.session",
    "graphs.partition.sequential_partition",
    "graphs.partition.metis_lite_partition",
    "graphs.partition.relabel_edges",
    "graphs.csr.build_csr",
    "disk.store.BlockStore_init",
)

# (span, report calls?) — every span below reports its inclusive seconds.
ENGINE_SPANS = (
    ("walks.models.advance", True),
    ("walks.models.done_mask", False),
    ("rng.unit_hash", True),
    ("walks.buckets.collect_buckets", True),
    ("walks.buckets.ExtensionBuffers.add", True),
    ("walks.buckets.ExtensionBuffers.drain", True),
    ("engines.base.WalkPools.add_grouped", True),
    ("engines.base.WalkPools.pop", True),
    ("engines.base.split_done", False),
    ("walks.state.Walks.select", True),
    ("walks.state.Walks.concat", True),
    ("disk.store.BlockStore.block_of", True),
    ("engines.loading.BlockLoader.load", True),
    ("engines.loading.BlockLoader.ensure", True),
    ("engines.scheduling.pick", True),
    ("engines.base.BlockSlots.ensure", False),
    ("engines.base.BlockSlots.has_block", False),
)
SELF_SPANS = ("engines.bi_block", "engines.first_order")
ONCE_SPANS = {  # metric name -> span, inclusive seconds
    "engines.loading.LearnedLoadModel.fit_s": "engines.loading.LearnedLoadModel.fit",
    "core.grasorw.train_load_model_s": "core.grasorw.train_load_model",
    "engines.sgsc.build_static_cache_s": "engines.sgsc.build_static_cache",
}
# Per-pass sizes and ratios computed from the spans' size columns.
DERIVED = (
    "walks.models.walks_per_advance",
    "engines.base.WalkPools.add_grouped.walks",
    "engines.base.WalkPools.pop.walks",
    "walks.state.select_empty_ratio",
    "engines.loading.ensure_fetch_ratio",
    "engines.loading.ondemand_load_fraction",
)


def setup_metric_names() -> list[str]:
    return [f"{s}_s" for s in SETUP_SPANS]


def engine_metric_names() -> list[str]:
    out = []
    for span, calls in ENGINE_SPANS:
        out += ([f"{span}.calls"] if calls else []) + [f"{span}.s"]
    out += [f"{s}.self_s" for s in SELF_SPANS]
    return out + list(ONCE_SPANS) + list(DERIVED)


def setup_metrics(tracer: Tracer, reps: list[tuple[int, int]]) -> dict[str, float]:
    """Median over set-up repetitions of each set-up layer's seconds."""
    per_rep = [_totals(tracer.columns(lo, hi), tracer.names) for lo, hi in reps]
    return {f"{s}_s": float(np.median([r.get(s, (0, 0.0))[1] for r in per_rep]))
            for s in SETUP_SPANS}


def engine_metrics(tracer: Tracer, passes: list[tuple[int, int]]) -> dict[str, float]:
    """Per-pass layer metrics: seconds are medians over the traced passes;
    counts and ratios are exact and must agree between passes."""
    per_pass = [_pass_metrics(tracer.columns(lo, hi), tracer.names) for lo, hi in passes]
    out = {}
    for name in engine_metric_names():
        vals = [m[name] for m in per_pass]
        if name.endswith((".s", "_s")):
            out[name] = float(np.median(vals))
        elif len(set(vals)) == 1:
            out[name] = float(vals[0])
        else:
            raise AssertionError(f"{name} differs between traced passes: {vals}")
    return out


def _totals(c: dict, names: list[str], sizes: bool = False) -> dict:
    """{span name: (outer calls, inclusive s[, sum a, sum b, empty-a calls])}."""
    res = {}
    for nid in np.unique(c["name"]):
        m = (c["name"] == nid) & c["outer"]
        row = (int(m.sum()), float(c["dur"][m].sum()) / 1e9)
        if sizes:
            row += (int(c["a"][m].sum()), int(c["b"][m].sum()), int((c["a"][m] == 0).sum()))
        res[names[nid]] = row
    return res


def _pass_metrics(c: dict, names: list[str]) -> dict[str, float]:
    tot = _totals(c, names, sizes=True)
    zero = (0, 0.0, 0, 0, 0)
    out = {}
    for span, calls in ENGINE_SPANS:
        n, s = tot.get(span, zero)[:2]
        if calls:
            out[f"{span}.calls"] = n
        out[f"{span}.s"] = s
    for span in SELF_SPANS:
        nid = names.index(span) if span in names else -1
        out[f"{span}.self_s"] = float(c["self"][c["name"] == nid].sum()) / 1e9
    for metric, span in ONCE_SPANS.items():
        out[metric] = tot.get(span, zero)[1]
    adv = tot.get("walks.models.advance", zero)
    add = tot.get("engines.base.WalkPools.add_grouped", zero)
    pop = tot.get("engines.base.WalkPools.pop", zero)
    sel = tot.get("walks.state.Walks.select", zero)
    ens = tot.get("engines.loading.BlockLoader.ensure", zero)
    load = tot.get("engines.loading.BlockLoader.load", zero)
    out["walks.models.walks_per_advance"] = adv[2] / max(adv[0], 1)
    out["engines.base.WalkPools.add_grouped.walks"] = add[2]
    out["engines.base.WalkPools.pop.walks"] = pop[2]
    out["walks.state.select_empty_ratio"] = sel[4] / max(sel[0], 1)
    out["engines.loading.ensure_fetch_ratio"] = ens[3] / max(ens[2], 1)
    out["engines.loading.ondemand_load_fraction"] = load[2] / max(load[0], 1)
    return out
