"""Tiny-size run of every workload: each named metric comes out with its unit.

Run from the repository root, either directly or under pytest::

    python3 perfbench/selftest.py
    python3 -m pytest perfbench/selftest.py -q

It takes a few seconds per workload.  The file is not named
``test_*.py`` so the repository's own test suite does not collect it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import NAMES  # noqa: E402


def run_tiny(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_result(result: dict, expected: dict) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_every_end_to_end_metric_is_emitted():
    expected = {name: unit for name, unit, _ in END_TO_END}
    for workload in NAMES:
        check_result(run_tiny(workload, 0), expected)


def test_every_per_layer_metric_is_emitted():
    expected = {name: unit for name, unit, _ in PER_LAYER}
    for workload in NAMES:
        check_result(run_tiny(workload, 1), expected)


def test_benchmark_json_matches_the_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "join_sample",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


if __name__ == "__main__":
    import tempfile

    test_benchmark_json_matches_the_metrics()
    test_every_end_to_end_metric_is_emitted()
    test_every_per_layer_metric_is_emitted()
    with tempfile.TemporaryDirectory() as tmp:
        test_refuses_to_run_outside_a_checkout(tmp)
    print("perfbench selftest: ok")
