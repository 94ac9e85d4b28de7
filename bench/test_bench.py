"""Tests of the benchmark itself, on its smoke ladders (seconds in all).

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload: str, trace: int) -> tuple[int, dict]:
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                   "--trace", str(trace), "--smoke"])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric(capsys, workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        rc, result = _run(capsys, workload, trace)
        assert rc == 0
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_seed_changes_content_but_not_ring_sizes():
    for workload in ("ring", "ring-shared"):
        a, b = workloads.build(workload, 1), workloads.build(workload, 2)
        assert [q.argv for q in a] == [q.argv for q in b]
        assert [json.dumps(q.files) for q in a] != [json.dumps(q.files) for q in b]
        assert [len(json.dumps(q.files)) for q in a] == [len(json.dumps(q.files)) for q in b]
    for workload in ("convert", "verify"):
        a, b = workloads.build(workload, 1), workloads.build(workload, 2)
        assert [q.qid for q in a] == [q.qid for q in b]
        assert [json.dumps(q.files) + str(q.argv) for q in a] != [json.dumps(q.files) + str(q.argv) for q in b]
    assert json.dumps([q.files for q in workloads.build("verify", 5)]) == json.dumps(
        [q.files for q in workloads.build("verify", 5)])


def test_every_workload_has_frontier_copies():
    for workload in workloads.WORKLOADS:
        frontier = [q for q in workloads.build(workload, 1) if q.frontier]
        assert len(frontier) == workloads.FRONTIER_COPIES


def test_reference_rejects_a_wrong_verdict(tmp_path, monkeypatch):
    """A shared-goal instance answered by the CLI is UNREALIZABLE; checked
    against a table that says REALIZABLE, the reference must object."""
    monkeypatch.chdir(tmp_path)
    lib = run.import_ibgsolve(ROOT / "src")
    query = workloads.build("ring-shared", 1, smoke=True)[0]
    run.write_inputs(tmp_path / "w", [query])
    monkeypatch.chdir(tmp_path / "w")
    result = run.run_query(lib, query, None)
    outputs = {name: name for name in query.outputs}
    problems, _ = reference.check(query, lib, result.rc, f"{query.qid}.stdout", outputs, 1)
    assert problems == []
    query.expect["verdict"] = "REALIZABLE"
    problems, _ = reference.check(query, lib, result.rc, f"{query.qid}.stdout", outputs, 1)
    assert problems


def test_tracer_restores_functions_and_reports_missing():
    lib = run.import_ibgsolve(ROOT / "src")
    original = lib.realizability.determinize
    tracer = tracing.Tracer()
    del lib.realizability.buchi_nonempty
    try:
        tracer.install(lib.modules)
        assert lib.realizability.determinize is not original
        assert lib.automata.determinize is lib.realizability.determinize
    finally:
        tracer.remove()
    assert lib.realizability.determinize is original
    assert tracer.missing == ["realizability.buchi_nonempty"]


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ring", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
