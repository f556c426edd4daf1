"""Two-clock benchmark of the GraSorw reproduction.

One run measures one workload (see ``workloads.py``) at one walk seed::

    python3 perfbench/run.py --workload highcut --seed 7 --seconds 12 --trace 0

The run builds the workload's disk image with Spark (``local[4]``) one or
more times, then shuts the JVM down and drives the numpy engines: one untimed
warm-up pass that records paths, then repeated timed passes for
``--seconds`` seconds (at least three). Every real-time figure is a median
over those repeated calls. Every call is checked: paths against the
in-memory reference walker (warm-up), count identities, counters equal to
the warm-up's, and at ``--scale table --seed 7`` the rows of
``results/*.csv``. ``--trace 1`` adds traced passes and reports per-layer
metrics instead of the end-to-end ones.

Progress goes to stderr; the last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Scratch
files (Spark's local dirs, span dumps) go to ``.perfbench/`` in the
checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
from probe import REF_S, Probe

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
WORKLOAD_NAMES = ("highcut", "learned-metis")
TABLE_SEED = 7
MIN_PASSES = {"bench": 3, "table": 1}

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "grasorw_steps_per_s": "steps/s",
    "sim_wall_s": "sim_s",
    "sim_speedup": "ratio",
    "peak_rss_mb": "MB",
}
# DiskSim counters reported per engine call in the traced run.
COUNTERS = ("block_io_num", "vertex_io_num", "ondemand_io_num", "walk_io_bytes",
            "bucket_execs", "time_slots", "steps")
# results/*.csv columns a table-scale, seed-7 call must reproduce.
CSV_INT = ("block_io_num", "vertex_io_num", "ondemand_io_num", "steps")
CSV_FLOAT = ("wall_s", "exec_s", "block_io_s", "vertex_io_s", "ondemand_io_s")
# Engines whose two resident blocks cover every step (no light vertex I/O).
NO_VERTEX_IO = ("GraSorw", "PB", "GraphWalker", "GraSorw-FO")


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=TABLE_SEED, help="walk seed")
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="length of the timed phase (at least three passes run)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("bench", "table"), default="bench",
                    help="table: the result tables' task sizes (slow)")
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment and Spark
# ---------------------------------------------------------------------------
def prepare_env() -> None:
    """Make ``src/`` importable (driver and Spark workers) and keep every
    scratch file Spark and the JVM write inside ``.perfbench/``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources at {src}")
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    for var in ("PYSPARK_GATEWAY_PORT", "PYSPARK_GATEWAY_SECRET"):
        os.environ.pop(var, None)
    java_opts = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        "--master local[4] --driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "--conf", shlex.quote(f"spark.local.dir={tmp}"),
        "--conf", shlex.quote(f"spark.driver.extraJavaOptions={java_opts}"),
        "pyspark-shell",
    ])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", 4)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_jvm() -> None:
    """Stop the Spark context and the JVM this process launched; wait for it."""
    from subprocess import TimeoutExpired

    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway exits at end of input
        try:
            proc.wait(timeout=60)
        except TimeoutExpired:
            proc.kill()
            proc.wait()


# ---------------------------------------------------------------------------
# Operations and their checks
# ---------------------------------------------------------------------------
class Tally:
    """Attempted and failed operations; a failure logs its reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                log(f"FAILED {what}: {p}")


@dataclass
class Outcome:
    counters: dict  # exact simulated results of the call
    paths: object = None
    model: object = None


def execute(system, call, task, starts, model, *, record_paths: bool = False) -> Outcome:
    from workloads import TRAIN

    if call.engine == TRAIN:
        fitted, logs = system.train_load_model(task, starts, first_order=task.first_order)
        return Outcome({"coef": fitted.coef.tolist(),
                        "logs": [logs.bid, logs.eta, logs.t, logs.mode]}, model=fitted)
    res = system.run(call.engine, task, starts, loading=call.loading,
                     load_model=model if call.uses_model else None,
                     record_paths=record_paths)
    counters = {k: v for k, v in res.metrics.items() if k not in ("engine", "exec_real_s")}
    return Outcome(counters, paths=res.recorder.paths if record_paths else None)


def identity_problems(call, counters: dict, task_steps: int | None) -> list[str]:
    out = []
    if task_steps is not None and counters["steps"] != task_steps:
        out.append(f"steps {counters['steps']} != {task_steps} of the task's first call")
    if call.engine in NO_VERTEX_IO and counters["vertex_io_num"] != 0:
        out.append(f"vertex_io_num {counters['vertex_io_num']} != 0")
    if call.engine == "SOGW" and counters["vertex_io_num"] <= 0:
        out.append("SOGW issued no vertex I/O")
    return out


def table_problems(wl, call, counters: dict) -> list[str]:
    import pandas as pd

    table, filt = call.csv
    df = pd.read_csv(ROOT / "results" / f"{table}.csv")
    m = df["dataset"] == wl.dataset
    for k, v in filt.items():
        m &= df[k] == v
    if not m.any():
        return [f"no row {filt} for {wl.dataset} in results/{table}.csv"]
    row = df[m].iloc[0]
    out = [f"{k} {counters[k]} != {row[k]} (results/{table}.csv)"
           for k in CSV_INT if counters[k] != int(row[k])]
    out += [f"{k} {round(counters[k], 4)} != {row[k]} (results/{table}.csv)"
            for k in CSV_FLOAT if round(counters[k], 4) != float(row[k])]
    return out


def same_system(a, b) -> bool:
    return (np.array_equal(a.csr.indptr, b.csr.indptr)
            and np.array_equal(a.csr.indices, b.csr.indices)
            and np.array_equal(a.part.block_starts, b.part.block_starts)
            and (a.perm is None) == (b.perm is None)
            and (a.perm is None or np.array_equal(a.perm, b.perm)))


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------
def set_up(wl, probe, tally: Tally, tracer=None):
    """Build the disk image ``wl.setup_reps`` times (SparkSession start +
    ``GraphSystem.build`` each); returns the system, each repetition's
    reference-host seconds (the probe runs before and after it) and its
    traced span range. The first repetition launches the JVM; later ones
    get the live session back and time a warm build."""
    span = _spans(tracer)
    times, ranges, first = [], [], None
    ctx = tracing.instrument(tracer, setup=True) if tracer is not None else contextlib.nullcontext()
    try:
        with ctx:
            for rep in range(wl.setup_reps):
                lo = len(tracer) if tracer is not None else 0
                probes = [probe() for _ in range(3)]
                t0 = time.perf_counter()
                with span("setup"):
                    with span("spark.session"):
                        spark = start_spark()
                    with span("graphs.datasets.DatasetSpec.build"):
                        system = wl.spec.build(spark, partition=wl.partition)
                raw = time.perf_counter() - t0
                probes += [probe() for _ in range(3)]
                times.append(raw * REF_S / statistics.median(probes))
                ranges.append((lo, len(tracer) if tracer is not None else 0))
                log(f"set-up {rep + 1}/{wl.setup_reps}: {raw:.2f} s, "
                    f"{times[-1]:.2f} reference-host s")
                if first is None:
                    first = system
                same = same_system(first, system)
                tally.record(f"set-up {rep + 1}",
                             [] if same else ["disk image differs from the first build"])
    finally:
        stop_jvm()
    return first, times, ranges


def _spans(tracer):
    """``tracer.span``, or a no-op span when the run is not traced."""
    return tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())


def warm_up(wl, system, prepared: dict, args, tally: Tally) -> dict:
    """One untimed pass that records paths; returns each call's Outcome."""
    from repro.walks.reference import reference_walk

    refs = {name: reference_walk(system.csr, task, starts).paths
            for name, (task, starts) in prepared.items()}
    expected: dict = {}
    task_steps: dict = {}
    model = None
    for call in wl.calls:
        task, starts = prepared[call.task]
        out = execute(system, call, task, starts, model, record_paths=True)
        problems = []
        if out.model is not None:
            model = out.model
        else:
            if not _paths_equal(out.paths, refs[call.task]):
                problems.append("paths differ from reference_walk")
            problems += identity_problems(call, out.counters, task_steps.get(call.task))
            task_steps.setdefault(call.task, out.counters["steps"])
            if args.scale == "table" and args.seed == TABLE_SEED and call.csv:
                problems += table_problems(wl, call, out.counters)
        out.paths = None
        expected[call.label] = out
        tally.record(f"warm-up {call.label}", problems)
    return expected


def _paths_equal(a, b) -> bool:
    return a is not None and a.shape == b.shape and bool(np.array_equal(a, b))


def timed_passes(wl, system, prepared, expected, probe, seconds: float, min_passes: int,
                 tally: Tally, tracer=None):
    """Repeat the pass until ``seconds`` are up (and ``min_passes`` ran).
    Returns {label: [(call seconds, mean of the probes just before and just
    after the call)]} and the span range of each pass."""
    span = _spans(tracer)
    samples = {c.label: [] for c in wl.calls}
    ranges = []
    warm_model = next((o.model for o in expected.values() if o.model is not None), None)
    deadline = time.perf_counter() + seconds
    while len(ranges) < min_passes or time.perf_counter() < deadline:
        model = warm_model
        lo = len(tracer) if tracer is not None else 0
        with span("pass"):
            gc.collect()
            probe_s = probe()
            for call in wl.calls:
                task, starts = prepared[call.task]
                try:
                    with span(f"call:{call.label}"):
                        t0 = time.perf_counter()
                        out = execute(system, call, task, starts, model)
                        dt = time.perf_counter() - t0
                except Exception:
                    tally.record(f"timed {call.label}", [traceback.format_exc()])
                    continue
                finally:
                    gc.collect()
                    before, probe_s = probe_s, probe()
                if out.model is not None:
                    model = out.model
                problems = [] if out.counters == expected[call.label].counters else \
                    ["counters differ from the warm-up call"]
                tally.record(f"timed {call.label}", problems)
                samples[call.label].append((dt, (before + probe_s) / 2))
        ranges.append((lo, len(tracer) if tracer is not None else 0))
    return samples, ranges


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
def call_steps(wl, expected) -> dict:
    """Steps per call; training runs the task twice."""
    from workloads import TRAIN

    per_task = {c.task: expected[c.label].counters["steps"]
                for c in wl.calls if c.engine != TRAIN}
    return {c.label: (2 * per_task[c.task] if c.engine == TRAIN
                      else expected[c.label].counters["steps"]) for c in wl.calls}


def ref_seconds(pairs) -> float:
    """Median over calls of call seconds / probe seconds, in reference-host s."""
    return statistics.median(dt / p for dt, p in pairs) * REF_S


def throughput(labels, samples, steps) -> float:
    """Steps of ``labels`` per reference-host second (0 if a call never ran)."""
    if not all(samples[lb] for lb in labels):
        return 0.0
    return sum(steps[lb] for lb in labels) / sum(ref_seconds(samples[lb]) for lb in labels)


def log_calls(samples: dict, phase: str) -> None:
    log(f"{phase} samples {json.dumps(samples)}")
    for label, pairs in samples.items():
        raw = [dt for dt, _ in pairs]
        if len(raw) >= 3:
            q1, med, q3 = statistics.quantiles(raw, n=4)
            log(f"{phase} {label:24s} n={len(raw):3d} median={med:.4f}s "
                f"spread={(q3 - q1) / med:.3f} reference={ref_seconds(pairs):.4f}s")


def end_to_end(wl, samples, expected, setup_times) -> dict[str, float]:
    steps = call_steps(wl, expected)
    wall = {lb: o.counters["wall_s"] for lb, o in expected.items() if "wall_s" in o.counters}
    sim_grasorw = sum(wall[g] for _, g in wl.speedup)
    return {
        "setup_s": statistics.median(setup_times),
        "steps_per_s": throughput([c.label for c in wl.calls], samples, steps),
        "grasorw_steps_per_s": throughput(wl.grasorw, samples, steps),
        "sim_wall_s": sim_grasorw,
        "sim_speedup": sum(wall[b] for b, _ in wl.speedup) / sim_grasorw,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_unit(name: str) -> str:
    if name.startswith("trace."):
        return "steps/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("walk_io_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    if name.endswith("walks_per_advance"):
        return "walks"
    return "count"


def per_layer_names() -> list[str]:
    from workloads import ALL_LABELS

    return (tracing.setup_metric_names() + tracing.engine_metric_names()
            + [f"disk.iosim.{lb}.{k}" for lb in ALL_LABELS for k in COUNTERS]
            + ["trace.steps_per_s_untraced", "trace.steps_per_s_traced",
               "trace.overhead_steps_per_s", "host.probe_s"])


# ---------------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    prepare_env()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    try:
        probe = Probe()
        system, setup_times, setup_ranges = set_up(wl, probe, tally, tracer)
        prepared = {}
        for name, cfg in wl.tasks(args.scale, args.seed).items():
            prepared[name] = (cfg.task(), cfg.starts(system.csr))
        expected = warm_up(wl, system, prepared, args, tally)
        min_passes = MIN_PASSES[args.scale]
        samples, _ = timed_passes(wl, system, prepared, expected, probe, args.seconds,
                                  min_passes, tally)
        log_calls(samples, "timed")
        steps = call_steps(wl, expected)
        labels = [c.label for c in wl.calls]
        if not args.trace:
            metrics = end_to_end(wl, samples, expected, setup_times)
            units = END_TO_END_UNITS
        else:
            with tracing.instrument(tracer, setup=False):
                t_samples, pass_ranges = timed_passes(
                    wl, system, prepared, expected, probe, args.seconds, min_passes, tally,
                    tracer)
            log_calls(t_samples, "traced")
            metrics = {
                **tracing.setup_metrics(tracer, setup_ranges),
                **tracing.engine_metrics(tracer, pass_ranges),
            }
            for lb in per_layer_names():
                metrics.setdefault(lb, 0.0)
            for label, out in expected.items():
                for k in COUNTERS:
                    if k in out.counters:
                        metrics[f"disk.iosim.{label}.{k}"] = float(out.counters[k])
            untraced = throughput(labels, samples, steps)
            traced = throughput(labels, t_samples, steps)
            metrics["trace.steps_per_s_untraced"] = untraced
            metrics["trace.steps_per_s_traced"] = traced
            metrics["trace.overhead_steps_per_s"] = untraced - traced
            metrics["host.probe_s"] = statistics.median(
                p for pairs in samples.values() for _, p in pairs)
            dump = OUT / f"trace-{wl.name}-seed{args.seed}.json"
            tracer.dump(dump, {"workload": wl.name, "seed": args.seed, "scale": args.scale,
                               "setup_reps": setup_ranges, "passes": pass_ranges})
            log(f"spans: {len(tracer)} written to {dump}")
            units = {n: per_layer_unit(n) for n in per_layer_names()}
    finally:
        shutil.rmtree(OUT / "tmp", ignore_errors=True)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
