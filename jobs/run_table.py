"""Reproduce one evaluation table on the lite datasets.

Each table name maps to its ``repro.core.tables.run_*`` runner (see
DESIGN.md section 5 and EXPERIMENTS.md for the paper-vs-measured diff). The
table is printed and, with ``--out``, also written to a file.

Run with: spark-submit jobs/run_table.py TABLE [--datasets NAME ...] [--out FILE]
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from pyspark.sql import SparkSession

from repro.core import tables as T


def _subset(run, default: tuple[str, ...] | None = None):
    """Runner handing ``--datasets`` (else ``default``, else the runner's
    own default set) to ``run``."""

    def runner(spark: SparkSession, datasets: list[str] | None):
        datasets = datasets or default
        return run(spark, datasets=tuple(datasets)) if datasets else run(spark)

    return runner


FIRST_ORDER_SET = ("lj_lite", "tw_lite", "fr_lite", "uk_lite")

#: table name -> (title, runner(spark, datasets or None))
TABLES = {
    "table2": ("Table 2 — dataset and partition statistics",
               lambda spark, datasets: T.run_table2(spark)),
    "table3": ("Table 3 — PB vs Bi-Block engines (RWNV + PRNV)", _subset(T.run_table3)),
    "table4": ("Table 4 — pure full load vs learning-based load x partitions",
               _subset(T.run_table4, ("tw_lite", "uk_lite"))),
    "table5": ("Table 5 — synthetic graph statistics",
               lambda spark, datasets: T.run_table5(spark)),
    "table6": ("Table 6 — SOGW vs SGSC vs GraSorw on synthetic distributions",
               _subset(T.run_table6)),
    "table7": ("Table 7 — first-order DeepWalk engines",
               _subset(T.run_table7, FIRST_ORDER_SET)),
    "table8": ("Table 8 — current-block scheduling strategies",
               _subset(T.run_table8, FIRST_ORDER_SET)),
    "e2e": ("End-to-end — SOGW vs SGSC vs GraSorw (Fig. 8 as a table)", _subset(T.run_e2e)),
}


def get_spark(app: str) -> SparkSession:
    """Session for standalone job runs (pytest uses the conftest fixture)."""
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 32)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv: list[str] | None = None) -> None:
    ap = argparse.ArgumentParser(description="Reproduce one evaluation table.")
    ap.add_argument("table", choices=list(TABLES))
    ap.add_argument("--datasets", nargs="*", default=None,
                    help="subset of dataset names (default: the table's set)")
    ap.add_argument("--out", type=Path, default=None,
                    help="also write the table to this file")
    args = ap.parse_args(argv)
    title, runner = TABLES[args.table]
    # Reuse an already-active session (pytest) rather than owning a new one.
    owns = SparkSession.getActiveSession() is None
    spark = get_spark(title)
    try:
        text = T.format_table(runner(spark, args.datasets), title)
        print(text)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            args.out.write_text(text)
    finally:
        if owns:
            spark.stop()
    sys.stdout.flush()


if __name__ == "__main__":
    main()
