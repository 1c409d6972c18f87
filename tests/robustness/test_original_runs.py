"""Differential validation runs each original program once.

One optimize run executes its unchanged input once per workload and
compares every checked graph against those recorded observables; the
batch/serve worker then diffs only the workloads the optimizer's final
validation did not already run.  Verdicts and worker payloads are the
same as when every check re-ran the original.
"""

import random

import pytest

from tests.helpers import FGETC_LIKE, build

from repro import obs
from repro.benchgen.suite import load_benchmark
from repro.interp import run_icfg
from repro.ir import lower_program
from repro.robustness import (FaultPlan, OriginalRuns, corrupt_icfg,
                              differential_check, robustness_context,
                              seeded_workloads)
from repro.robustness import worker
from repro.transform import ICBEOptimizer, OptimizerOptions

CLASSIFY = """
proc classify(v) {
  if (v < 0) { return -1; }
  if (v == 0) { return 0; }
  return 1;
}
proc main() {
  var x = input();
  while (x != 0) {
    var k = classify(x);
    if (k == 1) { print x; }
    if (k == -1) { print -x; }
    x = input();
  }
  return 0;
}
"""


def _counters(active) -> dict:
    return active.metrics.snapshot()["counters"]


def _suite_icfg(name: str, scale: int = 1):
    return lower_program(load_benchmark(name, scale=scale).program)


def test_an_optimize_run_executes_its_input_once_per_workload():
    optimizer = ICBEOptimizer(OptimizerOptions(diff_check=True,
                                               duplication_limit=100))
    with obs.session() as active:
        report = optimizer.optimize(_suite_icfg("compress_like"))
    counters = _counters(active)
    assert report.optimized_count == 10
    # One check per adopted transaction plus final validation, each
    # running only the candidate graph on the four workloads.
    assert counters["diffcheck.calls"] == report.optimized_count + 1
    assert counters["diffcheck.original_runs"] == 4
    assert counters["interp.runs"] == 4 * (report.optimized_count + 2) == 48
    spans = [s for s in active.export_spans() if s["name"] == "diffcheck"]
    assert len(spans) == 11
    assert [s["attrs"]["original_runs"] for s in spans] == [4] + [0] * 10
    assert {s["attrs"]["workloads"] for s in spans} == {4}

    # The same optimizer on another graph runs that graph's original
    # afresh; nothing carries over from the previous run.
    with obs.session() as active:
        optimizer.optimize(_suite_icfg("li_like"))
    assert _counters(active)["diffcheck.original_runs"] == 4


def test_without_diff_check_nothing_runs():
    with obs.session() as active:
        ICBEOptimizer(OptimizerOptions(duplication_limit=100)).optimize(
            _suite_icfg("compress_like"))
    counters = _counters(active)
    assert "interp.runs" not in counters
    assert "diffcheck.calls" not in counters


def test_recorded_observables_give_the_same_verdicts():
    icfg = build(FGETC_LIKE)
    skewed = icfg.clone()
    corrupt_icfg(skewed, "skew-print", random.Random(3))
    fresh = differential_check(icfg, skewed)
    recorded = OriginalRuns(icfg)
    assert differential_check(recorded, icfg.clone()).ok
    reused = differential_check(recorded, skewed)
    assert recorded.executed == 4
    assert reused.mismatches == fresh.mismatches
    # A mismatch still carries the original's own observable.
    first = reused.mismatches[0]
    workload = next(w for w in seeded_workloads()
                    if w.name == first.workload_name)
    assert first.original == run_icfg(icfg, workload).observable


def test_a_graph_edited_between_checks_is_checked_as_edited():
    # The decoded step table lives for one check: a table kept on the
    # graph, its nodes or the recorded original would still see the
    # print as it was before the in-place edit.
    icfg = build(FGETC_LIKE)
    recorded = OriginalRuns(icfg)
    working = icfg.clone()
    assert differential_check(recorded, working).ok
    corrupt_icfg(working, "skew-print", random.Random(3))
    assert not differential_check(recorded, working).ok
    assert recorded.executed == 4


def test_each_check_still_hits_the_fault_site_once():
    icfg = build(FGETC_LIKE)
    recorded = OriginalRuns(icfg)
    plan = FaultPlan()
    with robustness_context(plan=plan):
        for _ in range(3):
            differential_check(recorded, icfg.clone())
    assert plan.hits["diffcheck:run"] == 3
    assert recorded.executed == 4


@pytest.fixture
def worker_checks(monkeypatch):
    """The workload names of every check the worker itself makes (the
    optimizer's own checks bind ``differential_check`` elsewhere)."""
    checks = []
    real = worker.differential_check

    def recording(original, optimized, workloads=None, **kwargs):
        checks.append([w.name for w in workloads])
        return real(original, optimized, workloads=workloads, **kwargs)

    monkeypatch.setattr(worker, "differential_check", recording)
    return checks


def _spec(job: str, diff_check: bool) -> dict:
    return {"job": job, "tier": 0, "budget": 1000, "duplication_limit": 100,
            "diff_check": diff_check, "diff_seed": 7,
            "conditional_deadline_s": None, "timeout_s": None,
            "memory_mb": None, "inject": None, "faults": [],
            "strict": False, "trace": False}


def _payload(spec: dict) -> dict:
    payload = worker.run_attempt(spec)
    payload.pop("telemetry")
    return payload


CLASSIFY_COUNTS = {"conditionals": 5, "failed": 0, "nodes_after": 17,
                   "nodes_before": 32, "optimized": 3, "rolled_back": 0}
LI_LIKE_COUNTS = {"conditionals": 16, "failed": 0, "nodes_after": 118,
                  "nodes_before": 140, "optimized": 10, "rolled_back": 0}
SEEDED = ["empty", "seeded-7", "seeded-8", "seeded-9"]


def _ok(counts: dict) -> dict:
    return {"ok": True, "tier": 0, "verify_ok": True, "diff_ok": True,
            "counts": counts}


def test_worker_leaves_a_diff_checked_program_to_the_optimizer(
        tmp_path, worker_checks):
    path = tmp_path / "classify.mc"
    path.write_text(CLASSIFY)
    assert _payload(_spec(str(path), True)) == _ok(CLASSIFY_COUNTS)
    assert worker_checks == []


def test_worker_checks_only_the_ref_workload_of_a_suite_job(worker_checks):
    assert _payload(_spec("suite:li_like@1", True)) == _ok(LI_LIKE_COUNTS)
    assert worker_checks == [["li_like-ref"]]


def test_worker_without_diff_check_checks_the_battery_and_ref(
        tmp_path, worker_checks):
    assert _payload(_spec("suite:li_like@1", False)) == _ok(LI_LIKE_COUNTS)
    path = tmp_path / "classify.mc"
    path.write_text(CLASSIFY)
    assert _payload(_spec(str(path), False)) == _ok(CLASSIFY_COUNTS)
    assert worker_checks == [SEEDED + ["li_like-ref"], SEEDED]
