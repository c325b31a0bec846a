"""Smoke test of the benchmark at tiny sizes: every metric named in
BENCHMARK.json is printed with its unit, no operation fails, and two
traced runs of one seed give the same call counts."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCHMARK["workloads"]]

#: Per-layer metrics that are counts or ratios of counts, not times.
COUNTED = ("calls_per", "candidates_per_call", "admit_ratio", "hit_ratio", "_end", "admissible_calls_per_tick")


def bench(capsys, workload: str, trace: int) -> tuple[list[str], dict]:
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, sizes=workloads.TINY) == 0
    lines = capsys.readouterr().out.splitlines()
    return lines, json.loads(lines[-1])


def assert_reported(lines: list[str], result: dict, declared: list[dict]) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert "failed_share 0 " in "\n".join(lines)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} ") and line.endswith(f" {metric['unit']}") for line in lines)


def test_workloads_match_benchmark_json():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(capsys, workload):
    lines, result = bench(capsys, workload, 0)
    assert_reported(lines, result, BENCHMARK["end_to_end"])
    for metric in BENCHMARK["end_to_end"]:
        assert result["metrics"][metric["name"]]["value"] > 0


@pytest.mark.parametrize("workload", NAMES)
def test_traced_counts_repeat(capsys, workload):
    lines, first = bench(capsys, workload, 1)
    assert_reported(lines, first, BENCHMARK["per_layer"])
    _, second = bench(capsys, workload, 1)
    counted = [name for name in first["metrics"] if any(key in name for key in COUNTED)]
    assert counted
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
