"""Smoke tests of the benchmark itself, at tiny scale.

Every workload runs once untraced and once traced through the same code
path the full benchmark uses, including the correctness gate; the tests
check the output schema against ``BENCHMARK.json``.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from bench_workloads import UNGATED, WORKLOAD_NAMES  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
CATALOGUE = run.load_catalogue()


def _names(kind):
    return {entry["name"]: entry["unit"] for entry in CATALOGUE[kind]}


def test_catalogue_names_units_and_bounds():
    assert set(CATALOGUE) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    workloads = [entry["name"] for entry in CATALOGUE["workloads"]]
    assert workloads == [name for name in WORKLOAD_NAMES
                         if name not in UNGATED]
    names = workloads + list(_names("end_to_end")) + list(_names("per_layer"))
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for kind in ("end_to_end", "per_layer"):
        for entry in CATALOGUE[kind]:
            assert UNIT.fullmatch(entry["unit"]), entry
            assert entry["better"] in ("lower", "higher"), entry
    bounds = {e["name"]: e["bound"] for e in CATALOGUE["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail_percentile(list(range(200)))
    assert (value, percentile, beyond) == (179, 90.0, 20)
    value, percentile, beyond = run.tail_percentile(list(range(50)))
    assert beyond == 10 and value == 39 and percentile == 80.0


def _check_schema(result, kind):
    assert result["correct"], result
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = _names(kind)
    assert set(result["metrics"]) == set(expected)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == expected[name]
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_end_to_end_run(workload, tmp_path):
    result = run.run_benchmark(workload, seed=0, seconds=0, trace=False,
                               scale="tiny", work=tmp_path)
    _check_schema(result, "end_to_end")
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_traced_run(workload, tmp_path):
    result = run.run_benchmark(workload, seed=0, seconds=0, trace=True,
                               scale="tiny", work=tmp_path)
    _check_schema(result, "per_layer")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["sim.events"] > 0
    assert metrics["piconet.transactions"] > 0
    # the coupled room carries no GS flows; the others do
    assert (metrics["core.gs_polls"] == 0) == (workload == "coupled_room")
    # at tiny scale only the coupled room has an interference field (the
    # tiny fanout runs without interferers)
    assert (metrics["baseband.collision_lookups"] > 0) == (
        workload == "coupled_room")
    assert (metrics["fabric.chunks_dispatched"] > 0) == (
        workload == "fanout_remote")
    assert list(tmp_path.glob("spans-*.json"))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_piconet",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
