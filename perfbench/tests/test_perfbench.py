"""Tests of the benchmark itself, at the tiny problem scale.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads(
    (ROOT / "perfbench" / "predictions.json").read_text()
)


def run_benchmark(*args: str, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_emitted(workload, trace):
    proc = run_benchmark(
        "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", trace, "--scale", "tiny", "--setup-probes", "1",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in line["metrics"].items()
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())
        assert "failed_ratio" in proc.stdout


def test_corrupted_payload_counts_as_failed(monkeypatch):
    real = workloads.transpose

    def corrupting(network, dm, after):
        result = real(network, dm, after)
        result.matrix.local_data[1, 0] += 1.0
        return result

    monkeypatch.setattr(workloads, "transpose", corrupting)
    workload = workloads.build("run_mpt_2d", 7, "tiny")
    result = workload.run(0.05, traced=False)
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert "differs from A.T" in result.errors[0]


def test_changed_simulated_counts_count_as_failed():
    workload = workloads.build("run_sbnt_1d", 7, "tiny")
    workload.pinned = dict(workload.pinned,
                           messages=workload.pinned["messages"] + 1)
    result = workload.run(0.05, traced=False)
    assert result.failed == result.attempted >= 1
    assert "messages=" in result.errors[0]


def test_wrong_pinned_fingerprint_counts_as_failed():
    workload = workloads.build("serve_hot", 7, "tiny")
    try:
        workload.problems = {
            key: dict(pin, fingerprint="0" * 64)
            for key, pin in workload.problems.items()
        }
        result = workload.run(0.2, traced=False)
    finally:
        workload.close()
    # serve_hot has no faults, so every request is checked by its pin.
    assert result.attempted >= 1
    assert result.failed == result.attempted
    assert "differs from pinned" in result.errors[0]


def test_wrong_solo_fingerprint_counts_as_failed(monkeypatch):
    monkeypatch.setattr(workloads, "solo_fingerprint", lambda request: "0")
    workload = workloads.build("serve_hot", 7, "tiny")
    try:
        result = workload.run(0.2, traced=False)
    finally:
        workload.close()
    assert result.failed == min(workloads.SOLO_SAMPLE, result.attempted)
    assert "differs from solo" in result.errors[0]


def test_block_mix_is_fixed_and_order_is_seeded():
    case = workloads.CASES["full"]["serve_storm"]
    blocks = [
        workloads.build_block(case, seed, block)
        for seed, block in ((1, 0), (2, 0), (1, 1))
    ]

    def mix(requests):
        return Counter(
            (workloads.problem_key(r.problem), bool(r.problem.faults))
            for r in requests
        )

    assert mix(blocks[0]) == mix(blocks[1]) == mix(blocks[2])
    assert sum(1 for r in blocks[0] if r.problem.faults) == case.block // 4
    problems = [[r.problem for r in block] for block in blocks]
    assert problems[0] != problems[1] and problems[0] != problems[2]
    assert blocks[0] == workloads.build_block(case, 1, 0)
    assert [r.request_id for r in blocks[2]] == list(
        range(case.block, 2 * case.block)
    )


def test_pinned_seeds_and_counts_are_recorded():
    assert PREDICTIONS["default_seed"] == workloads.DEFAULT_SEED
    assert PREDICTIONS["held_out_seed"] == workloads.HELD_OUT_SEED
    counts = workloads.load_counts()
    for scale, cases in workloads.CASES.items():
        for name, case in cases.items():
            assert name in counts[scale]
            if isinstance(case, workloads.ServeCase):
                assert set(counts[scale][name]) == {
                    str(s) for s in workloads.PINNED_SEEDS
                }
                for problem in workloads.case_problems(case):
                    assert workloads.problem_key(problem) in (
                        counts[scale]["serve_problems"]
                    )


def test_predictions_name_real_workloads_and_metrics():
    names = set(workloads.WORKLOADS)
    metrics = set(workloads.PER_LAYER) | set(workloads.END_TO_END)
    assert set(PREDICTIONS["workloads"]) == names
    assert {w["name"] for w in BENCHMARK["workloads"]} <= names
    for layer in PREDICTIONS["layers"]:
        assert set(layer["metrics"]) <= metrics
        assert layer["moves"] in metrics
        assert set(layer["on"]) | set(layer["near_zero_on"]) <= names
    for item in PREDICTIONS["roadmap"]:
        assert set(item["layers"]) <= metrics
        for claim in item["improves"]:
            assert claim["workload"] in names
            assert claim["metric"] in metrics
        assert set(item["unchanged"]) | set(
            item.get("must_not_regress", [])
        ) <= names


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = run_benchmark("--workload", "serve_hot", "--seconds", "1",
                         cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_child_spans():
    from perfbench.harness import Tracer

    tracer = Tracer()
    with tracer.span("parent") as parent:
        with tracer.span("child"):
            pass
    child = tracer.named("child")[0]
    expected = (parent["end"] - parent["start"]) - (
        child["end"] - child["start"]
    )
    assert tracer.self_seconds(parent) == pytest.approx(expected)
    assert child["parent"] == parent["id"]
