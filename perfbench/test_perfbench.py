"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

workloads = run.load_program()

from tracing import UNITS, Span, Tracer, layer_metrics, self_times  # noqa: E402

# Counts that must repeat exactly at one seed, by the workload that makes them.
COUNTS = {
    "exact1d": (
        "dpsolve.solve_exact.subproblems",
        "dpsolve.solve_exact.memo_hits",
        "dpsolve.solve_opt_search.subproblems",
    ),
    "bruteforce": ("oracle.optimal_count",),
    "nna1d": ("nna.rounds",),
    "reduce2d": ("reduction.points",),
}


def bench(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], capture_output=True, text=True, timeout=300, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_workload_names_match():
    assert run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_emits_every_end_to_end_metric(name):
    result = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_at_one_seed(name):
    first = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    second = bench("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    assert first["correct"] and first["failed"] == 0
    assert {k: v["unit"] for k, v in first["metrics"].items()} == UNITS
    for key in COUNTS[name]:
        assert first["metrics"][key]["value"] > 0, key
        assert first["metrics"][key]["value"] == second["metrics"][key]["value"], key


def _cycle_one_receiver(witness):
    """Point a receiver at one of its own children, which makes a cycle."""
    child, parent = next((c, p) for c, p in witness.receiver.items() if p in witness.receiver)
    receiver = dict(witness.receiver)
    receiver[parent] = child
    return type(witness)(witness.model, receiver, witness.sink)


def test_tampered_witness_is_a_counted_failure(monkeypatch):
    solve_exact = workloads.dpsolve.solve_exact

    def tampered(instance, stats=None):
        result = solve_exact(instance, stats)
        result.witness = _cycle_one_receiver(result.witness)
        return result

    monkeypatch.setattr(workloads.dpsolve, "solve_exact", tampered)
    wl = workloads.WORKLOADS["exact1d"]
    pool = wl.make_pool(5, Tracer(enabled=False))
    assert run.attempt(wl, pool[0], Tracer(enabled=False), 0) == "check: solve_exact: witness is not valid"
    results = run.run_items(wl, pool, Tracer(enabled=False), time.perf_counter() + 0.1)
    assert results and len(results) % wl.block == 0
    assert {reason for _, _, reason in results} == {"check: solve_exact: witness is not valid"}


def test_crash_in_an_item_is_counted_and_the_loop_goes_on():
    def flaky(item, tracer):
        if item == "bad":
            raise ZeroDivisionError("boom")

    wl = workloads.Workload("flaky", None, flaky, block=4, nominal_items_per_s=1.0)
    results = run.run_items(wl, ["ok", "bad"], Tracer(enabled=False), time.perf_counter() + 0.1)
    assert results and len(results) % wl.block == 0
    assert [reason for _, _, reason in results] == [None, "ZeroDivisionError: boom"] * (len(results) // 2)


def test_self_time_subtracts_direct_children():
    outer = Span("item", 0.0, None, 0)
    outer.end = 10.0
    inner = Span("model.interference", 1.0, 0, 0)
    inner.end = 4.0
    inner.attrs = {"points": 3}
    assert self_times([outer, inner]) == [7.0, 3.0]
    metrics = layer_metrics([outer, inner], overhead_ratio=1.0)
    assert metrics["model.interference.s"] == 3.0
    assert metrics["model.share"] == 0.3
    assert metrics["model.points"] == 3
    assert metrics["model.interference.us_per_point"] == 1e6


def test_missing_program_source_exits_without_a_result():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    try:
        for path in HERE.glob("*.py"):
            shutil.copy(path, bare / "perfbench" / path.name)
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "exact1d", "--seconds", "1"],
            cwd=bare,
            capture_output=True,
            text=True,
            timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
