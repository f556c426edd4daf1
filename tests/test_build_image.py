"""Golden digests of the disk images that ``GraphSystem.build`` produces.

The simulated counters of every table are functions of the image: the CSR
arrays, the block boundaries and, under METIS-lite, the vertex relabeling.
A change to how Spark builds the image (which jobs run, how joins are
planned, how LPA rounds aggregate) must leave all of them bit-identical.
``tests/data/image_golden.json`` holds the sha1 of ``csr.indptr``,
``csr.indices``, ``part.block_starts`` and ``perm`` (``null`` without a
relabeling) for a fixed set of ``dataset/partition`` cases; this test
rebuilds each image and compares.

Regenerate (only for an intended change of the image) with::

    PYTHONPATH=src python3 -m tests.test_build_image --write

Print the digests of any cases, for instance every dataset under ``seq``,
to compare two checkouts outside the test suite::

    PYTHONPATH=src python3 -m tests.test_build_image --print ba_lite/seq ...
    PYTHONPATH=src python3 -m tests.test_build_image --print --all-seq
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.graphs.datasets import ALL

GOLDEN = Path(__file__).parent / "data" / "image_golden.json"

CASES = (
    "lj_lite/seq",
    "ukx_lite/metis",
    "uk_lite/metis",
    "tw_lite/metis",
    "sbm1_lite/seq",
    "randomg5_lite/seq",
)


def _sha1(a: np.ndarray | None) -> str | None:
    if a is None:
        return None
    return hashlib.sha1(np.ascontiguousarray(a, dtype="<i8").tobytes()).hexdigest()


def image_digests(spark, case: str) -> dict:
    name, partition = case.split("/")
    system = ALL[name].build(spark, partition=partition)
    return {
        "indptr": _sha1(system.csr.indptr),
        "indices": _sha1(system.csr.indices),
        "block_starts": _sha1(system.part.block_starts),
        "perm": _sha1(system.perm),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_image_equals_golden(spark, golden, case):
    got = image_digests(spark, case)
    assert got == golden[case]
    assert (got["perm"] is None) == case.endswith("/seq")


def _session():
    """A local session configured like the test suite's ``spark`` fixture."""
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName("image-golden")
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )


if __name__ == "__main__":
    args = sys.argv[1:]
    if args == ["--write"]:
        spark = _session()
        GOLDEN.parent.mkdir(exist_ok=True)
        with open(GOLDEN, "w") as fh:
            json.dump({c: image_digests(spark, c) for c in CASES}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    elif args[:1] == ["--print"] and len(args) > 1:
        cases = [f"{n}/seq" for n in ALL] if args[1:] == ["--all-seq"] else args[1:]
        spark = _session()
        json.dump({c: image_digests(spark, c) for c in cases}, sys.stdout, indent=1)
        print()
    else:
        sys.exit(
            "usage: python3 -m tests.test_build_image --write\n"
            "       python3 -m tests.test_build_image --print (CASE ... | --all-seq)"
        )
