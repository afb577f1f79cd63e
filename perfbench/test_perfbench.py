"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

The traced runs take about a minute in all: cold-m3 runs the m = 3 closure
four times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

# spans each workload must enter; a wrapper on a binding the program never
# looks up would read zero calls here
COMMON = {
    "combinatorics.distance_matrices",
    "orbits.build_centralizer",
    "linalg.matmul",
    "linalg.reduce",
    "linalg.insert",
    "terwilliger.verify_sandwich_identities",
    "covering.verify_intertwining",
    "checks.run",
    "checks.render_reports",
    "cli.main",
}
M3_SCANS = {
    "combinatorics.intersection_numbers",
    "orbits.orbits_by_group_action",
    "orbits.check_subalgebra",
    "terwilliger.verify_equality",
    "checks.load_basis",
}
CLOSURE = {
    "linalg.algebra_closure",
    "linalg.centralizer_within",
    "terwilliger.build_terwilliger",
    "terwilliger.center_basis",
    "checks.cache_basis",
}
REQUIRED = {
    "cold-m3": COMMON | M3_SCANS | CLOSURE,
    "warm-m3": COMMON | M3_SCANS | {"checks.export_matrices"},
    "orbits-m4": COMMON,
}
# spans a workload must not enter: the warm cache skips the closure and centre
ABSENT = {"cold-m3": set(), "warm-m3": CLOSURE, "orbits-m4": CLOSURE | M3_SCANS}


def run_bench(capsys, *args: str) -> tuple[dict, dict]:
    assert run.main(list(args)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def test_benchmark_json_matches_the_tables():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [(n, u) for n, (u, _) in run.PER_LAYER.items()]
    assert set(run.EXACT_COUNTERS) <= set(run.PER_LAYER)
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_report_gate_counts_every_kind_of_failure():
    reference = run.load_reference("orbits-m4")["reports"]
    good = json.dumps([dict(r, elapsed_ms=7) for r in reference])

    tally = run.Tally()
    run.check_reports(run.Invocation(1.0, 1.0, 1.0, 0, good), reference, tally, "good")
    assert (tally.attempted, tally.failed, tally.problems) == (len(reference), 0, [])

    changed = [dict(r, elapsed_ms=7) for r in reference]
    changed[2] = dict(changed[2], actual={"bijective_onto_block_I": ["II"]})
    failing_status = [dict(r, elapsed_ms=7) for r in reference]
    failing_status[0] = dict(failing_status[0], status="fail")
    for inv in (
        run.Invocation(1.0, 1.0, 1.0, 0, json.dumps(changed)),
        run.Invocation(1.0, 1.0, 1.0, 0, json.dumps(failing_status)),
        run.Invocation(1.0, 1.0, 1.0, 0, json.dumps(json.loads(good)[:-1])),
    ):
        tally = run.Tally()
        run.check_reports(inv, reference, tally, "bad")
        assert tally.failed == 1 and not run.result(tally, {})["correct"]

    tally = run.Tally()
    run.check_reports(run.Invocation(1.0, 1.0, 1.0, 1, good), reference, tally, "exit 1")
    assert tally.failed == len(reference)


def test_warm_and_cold_share_the_cold_reference():
    assert run.WORKLOADS["cold-m3"].reference == run.WORKLOADS["warm-m3"].reference == "m3"
    reports = run.load_reference("m3")["reports"]
    assert [r["check"] for r in reports] == list(run.CHECK_IDS)
    assert all(r["status"] in ("pass", "finding") for r in reports)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reaches_every_layer(capsys, workload):
    res, detail = run_bench(capsys, "--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    # correct also asserts the exact counters repeated across the two traced invocations
    assert res["correct"] and res["failed"] == 0
    assert len(detail["traced_wall_s_samples"]) >= 2
    reached = {name for name, span in detail["spans"].items() if span["calls"]}
    assert REQUIRED[workload] <= reached
    assert not ABSENT[workload] & reached
    assert set(res["metrics"]) == set(run.PER_LAYER)
    counters = detail["counters"]
    if workload == "cold-m3":
        assert res["metrics"]["linalg.closure_products"]["value"] == 19600
        assert (counters["cache_misses"], counters["cache_hits"]) == (2, 0)
    if workload == "warm-m3":
        assert (counters["cache_misses"], counters["cache_hits"]) == (0, 2)
        assert counters["export_files"] == 159
        assert res["metrics"]["checks.cache_bytes"]["value"] > 0  # from the traced set-up
    if workload != "orbits-m4":
        assert res["metrics"]["linalg.basis_nnz"]["value"] > 0


def test_untraced_run_prints_the_end_to_end_metrics(capsys):
    res, detail = run_bench(capsys, "--workload", "orbits-m4", "--seed", "6", "--seconds", "1", "--trace", "0")
    assert res["correct"] and res["attempted"] >= run.MIN_TIMED * 8
    assert set(res["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in res["metrics"].values())
    assert len(detail["setup_s_samples"]) == run.IMPORT_SETUPS


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-m3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
