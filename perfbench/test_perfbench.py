"""Tests of the benchmark itself, at each workload's smallest volume.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import run  # noqa: E402
from perfbench.layers import layer_of, profile_call  # noqa: E402
from perfbench.workloads import WORKLOADS, Spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--small"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> dict:
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_printed_metrics():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_end_to_end_metrics_are_printed_and_outputs_check(workload):
    result = _result(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
    assert set(result["metrics"]) == set(run.END_TO_END)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_per_layer_profile_is_complete_and_repeats(workload):
    first, second = _result(workload, trace=1), _result(workload, trace=1)
    for result in (first, second):
        # correct covers the output checks, the traced run's digest and
        # profile conservation.
        assert result["correct"] is True and result["failed"] == 0
        assert set(result["metrics"]) == set(run.PER_LAYER)
        for spec in SPEC["per_layer"]:
            assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    exact = [name for name, unit in run.PER_LAYER.items()
             if unit in ("count", "sim-ms")]
    for name in exact:
        assert first["metrics"][name] == second["metrics"][name], name
    shares = sum(first["metrics"][f"{layer}.share"]["value"]
                 for layer in run.LAYERS)
    assert shares == pytest.approx(1.0)


def test_profile_fold_conserves_self_time():
    workload = WORKLOADS["rd-leafspine"]
    rep, prof = profile_call(
        lambda: workload.run_once(1, Spans(), small=True),
        time.perf_counter)
    assert not rep.errors
    assert prof.conservation_error() <= run.CONSERVATION_TOLERANCE
    assert prof.calls["fabric"] > 0 and prof.self_s["sim"] > 0
    assert prof.stage_build_s > 0


def test_layer_of_folds_by_package():
    base = os.path.join(ROOT, "src", "repro")
    assert layer_of(os.path.join(base, "sim", "kernel.py")) == "sim"
    assert layer_of(os.path.join(base, "core", "policy.py")) == "policy"
    assert layer_of(os.path.join(base, "core", "transport", "credit.py")) \
        == "core"
    assert layer_of(os.path.join(base, "cluster.py")) == "other"
    assert layer_of(json.__file__) == "other"
    assert layer_of("~") == "other"


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("ud-mtu-repartition", trace=0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
