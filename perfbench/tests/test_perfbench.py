"""Tests of the benchmark itself.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from spans import check_nesting, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS, make_case, tnorm_points  # noqa: E402


def tiny(workload):
    """The same workload at a size that runs in well under a second."""
    if workload.command == "apply":
        return replace(workload, left=min(workload.left, 6), right=min(workload.right, 5),
                       universe=min(workload.universe, 40))
    return replace(workload, grid=12, samples=300)


@pytest.mark.parametrize("trace", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_end_to_end_at_tiny_size(name, trace):
    result = run.run_workload(tiny(WORKLOADS[name]), seed=7, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1 + run.MIN_REPEATS * (2 if trace else 1)
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in table.items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_apply_oracle_rejects_one_flipped_bit(tmp_path):
    case = make_case(tiny(WORKLOADS["apply-deep"]), 3, tmp_path)
    case.output.write_bytes(case.expected)
    assert case.verify(0, b"")[0] is None
    flipped = bytearray(case.expected)
    at = re.compile(rb"0\.\d\d\d").search(case.expected, len(flipped) // 2).start() + 3
    flipped[at] ^= 1                                     # one digit of one value
    case.output.write_bytes(bytes(flipped))
    failure, _ = case.verify(0, b"")
    assert failure == f"output differs from the reference at byte {at}"


def _doctor_to_non_violation(witness):
    x = witness["args"][0]
    witness["args"] = [x, x]
    witness["got"] = witness["want"] = x * x * x


def _doctor_got(witness):
    witness["got"] += 1e-3


@pytest.mark.parametrize("doctor", [_doctor_to_non_violation, _doctor_got])
def test_check_fail_oracle_rejects_a_doctored_witness(tmp_path, doctor):
    case = make_case(tiny(WORKLOADS["check-fail"]), 5, tmp_path)
    sample, failure = run.repeat(case, tmp_path, run=1, traced=False)
    assert failure is None
    report = json.loads((tmp_path / "stdout").read_bytes())
    doctor(next(c for c in report["checks"] if c["label"] == "iii")["witness"])
    failure, _ = case.verify(1, json.dumps(report).encode())
    assert failure is not None and failure.startswith("axiom iii:")


def test_known_point_total_of_check_pass():
    assert tnorm_points(256, 20000) == 17_358_789


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        (0, None, "root", 0.0, 10.0, 1),
        (1, 0, "a", 1.0, 4.0, 1),
        (2, 0, "b", 3.0, 6.0, 1),       # overlaps a: [1, 6] is covered once
        (3, 0, "c", 8.0, 9.0, 1),
        (4, 1, "a1", 2.0, 3.0, 1),
    ]
    check_nesting(spans)
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 1.0}
    with pytest.raises(ValueError):
        check_nesting(spans + [(5, 3, "late", 8.5, 9.5, 1)])


def test_layer_metrics_split_kernel_time_out_of_its_caller():
    spans = [
        (0, None, "cli.apply", 0.0, 10.0, 1),
        (1, 0, "sets.apply", 1.0, 7.0, 1),
        (2, 1, "connectives.kernel_samples", 2.0, 3.0, 1),
        (3, 1, "connectives.kernel_samples", 4.0, 4.5, 1),
        (4, 0, "fileio.save", 7.0, 9.0, 1),
        (5, None, "tags.combine", 11.0, 11.25, 1),
    ]
    metrics = layer_metrics(spans, {"sets.pairs": 4}, root="cli.apply")
    assert metrics["sets.apply_s"] == 6.0
    assert metrics["sets.self_s"] == 4.5
    assert metrics["connectives.kernel_s"] == 1.5
    assert metrics["connectives.kernel_calls"] == 2
    assert metrics["fileio.save_s"] == 2.0
    assert metrics["tags.combine_s"] == 0.25
    assert metrics["trace.total_s"] == 10.0
    assert metrics["sets.pairs"] == 4


def test_benchmark_json_matches_the_harness():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
