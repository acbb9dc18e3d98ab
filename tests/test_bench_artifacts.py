"""Every archived benchmark artifact carries the schema header.

``results/BENCH_*.json`` files are compared across commits, so each must
say which shape it has and which commit produced it
(:func:`repro.analysis.bench.write_bench` stamps both). Regenerate a
file that fails here with the benchmark that writes it.
"""

import json
import pathlib

import pytest

from repro.analysis.bench import BENCH_SCHEMA_VERSION

RESULTS = pathlib.Path(__file__).resolve().parents[1] / "results"
ARTIFACTS = sorted(RESULTS.glob("BENCH_*.json"))


def test_artifacts_are_present():
    assert ARTIFACTS


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_artifact_has_schema_and_commit(path):
    doc = json.loads(path.read_text())
    assert doc.get("schema_version") == BENCH_SCHEMA_VERSION
    assert "commit" in doc.get("run", {})


def test_run_all_artifact_has_one_ok_job_per_runner():
    from repro.experiments.run_all import RUNNERS

    doc = json.loads((RESULTS / "BENCH_run_all.json").read_text())
    jobs = doc["jobs"]
    assert sorted(job["experiment"] for job in jobs) == sorted(RUNNERS)
    assert all(job["ok"] for job in jobs), [j for j in jobs if not j["ok"]]
