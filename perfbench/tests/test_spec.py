"""BENCHMARK.json against the code that produces its metrics."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import layers, workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_the_layer_table():
    listed = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert listed == [row[:3] for row in layers.LAYER_METRICS]


def test_every_workload_exists(tmp_path):
    for w in SPEC["workloads"]:
        workloads.make(w["name"], tmp_path, {})
    with pytest.raises(ValueError):
        workloads.make("no-such-workload", tmp_path, {})


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
