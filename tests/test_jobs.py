"""Smoke tests for the spark-submit job entrypoint (jobs/run_table.py)."""
import importlib.util
import sys
from pathlib import Path

import pytest

import repro.core.tables as T

from .test_tables import MINI2, MINI5

JOBS_DIR = Path(__file__).resolve().parents[1] / "jobs"
TABLE_ARGS = [
    ("table2", []),
    ("table5", []),
    ("table3", ["--datasets", "mini_social"]),
    ("table4", ["--datasets", "mini_web"]),
    ("table6", ["--datasets", "mini_dense"]),
    ("table7", ["--datasets", "mini_social"]),
    ("table8", ["--datasets", "mini_social"]),
    ("e2e", ["--datasets", "mini_social"]),
]


def _load_job(name):
    spec = importlib.util.spec_from_file_location(name, JOBS_DIR / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(autouse=True)
def mini_registry(monkeypatch):
    monkeypatch.setattr(T, "TABLE2", MINI2)
    monkeypatch.setattr(T, "TABLE5", MINI5)
    monkeypatch.setattr(T, "_SYSTEMS", {})
    yield


@pytest.mark.parametrize("table,args", TABLE_ARGS)
def test_job_main_runs(spark, capsys, tmp_path, table, args):
    mod = _load_job("run_table")
    out = tmp_path / f"{table}.txt"
    mod.main([table, *args, "--out", str(out)])
    captured = capsys.readouterr().out
    assert "##" in captured  # the formatted table header
    assert out.exists() and out.read_text().strip()


def test_all_jobs_have_main():
    mod = _load_job("run_table")
    assert hasattr(mod, "main")
    assert sorted(mod.TABLES) == sorted(t for t, _ in TABLE_ARGS)
