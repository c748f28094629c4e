"""Fast self-check of the benchmark at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

run.load()
workloads = run.workloads


def run_cli(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=600, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_cli(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = run.LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_names_what_the_runs_emit():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_a_perturbed_reference_fails_its_golden_cell():
    bench = run.Bench("grid-parallel", 3, 0, tiny=True)
    summaries = bench.serial_pass(full=False).summaries
    bench.check(summaries)
    assert bench.failed == {}

    reference = copy.deepcopy(bench.reference)
    config = bench.configs[1]
    reference["cells"][f"{config.lb}@{config.load}"]["avg_fct_ms"] *= 1.001
    perturbed = run.Bench("grid-parallel", 3, 0, tiny=True, reference=reference)
    perturbed.check(summaries)
    assert list(perturbed.failed) == [1]
    assert "avg_fct_ms" in perturbed.failed[1]


def test_a_function_the_code_no_longer_has_fails_the_run():
    class Layer:
        def select_path(self):
            return 0

    inst = spans.Instrumentation(spans.SpanRecorder())
    inst.methods(Layer, ("select_path", "on_ack"))
    inst.attr(Layer, "on_timeout", "Layer.on_timeout", "lb")
    inst.restore()
    assert inst.missing == ["Layer.on_ack", "Layer.on_timeout"]
    bench = run.Bench("refgrid", 3, 0, tiny=True)
    bench.fail_missing(inst)
    assert "Layer.on_ack" in bench.failed[-1]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_the_seed_and_only_the_seed_changes_the_inputs(workload):
    cells = workloads.WORKLOADS[workload].cells
    tiny = workload != "grid-parallel"  # the tiny grid is the golden seed only

    def inputs(seed):
        return [workloads.arrival_sizes(c) for c in cells(seed, tiny)]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
