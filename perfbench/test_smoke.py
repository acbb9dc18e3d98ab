"""Smoke test of the benchmark on shortened slices of every workload.

    python3 -m pytest perfbench/test_smoke.py -q

Asserts that the result line names exactly the metrics, with the units,
that ``BENCHMARK.json`` lists for the mode, and that every check passes.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)

MS = 1_000_000
#: long enough for the checks to hold (fed4096's root must have merged
#: every region once), short enough for a quick test
SMOKE_SLICE_NS = {"fed4096": 3 * MS, "rubis8-socket": 100 * MS,
                  "rubis8-planes": 100 * MS}


def test_every_workload_has_a_smoke_slice():
    assert {w["name"] for w in BENCH["workloads"]} == set(SMOKE_SLICE_NS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(SMOKE_SLICE_NS))
def test_result_line_matches_benchmark_json(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv, slice_ns=SMOKE_SLICE_NS[workload]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = {m["name"]: m["unit"]
                for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
