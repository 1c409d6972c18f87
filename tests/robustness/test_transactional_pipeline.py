"""The transactional optimizer end to end: rollback, guards, diffcheck.

Includes the headline acceptance scenario: a fault injected in the
middle of optimizing a multi-conditional program rolls back only the
affected conditional; the optimizer completes, the final graph passes
``verify_icfg`` *and* the differential trace check, and the failure is
recorded in the ``BranchRecord``s.
"""

import pytest

from tests.helpers import FGETC_LIKE, build

from repro import obs
from repro.analysis import AnalysisConfig
from repro.errors import (BudgetExceeded, DifferentialMismatch,
                          FaultInjected)
from repro.ir import dump_icfg, verify_icfg
from repro.robustness import FaultPlan, FaultSpec, differential_check
from repro.transform import BranchOutcome, ICBEOptimizer, OptimizerOptions


def make_optimizer(**kwargs):
    kwargs.setdefault("config", AnalysisConfig(budget=10_000))
    return ICBEOptimizer(OptimizerOptions(**kwargs))


def test_acceptance_mid_run_fault_rolls_back_only_one_conditional():
    icfg = build(FGETC_LIKE)
    baseline = make_optimizer(diff_check=True).optimize(icfg)
    assert baseline.optimized_count >= 2  # genuinely multi-conditional

    # Crash the splitter in the middle of the run: the second
    # conditional whose restructuring reaches the splitting phase dies.
    plan = FaultPlan.raising("transform:split", hit=2)
    report = make_optimizer(diff_check=True, fault_plan=plan).optimize(icfg)

    assert plan.fired, "the fault must actually fire mid-run"
    # Exactly one conditional failed, and it was rolled back.
    failed = [r for r in report.records
              if r.outcome is BranchOutcome.FAILED]
    assert len(failed) == 1
    assert "FaultInjected" in failed[0].failure
    assert report.failed_count == 1
    # The optimizer completed and still optimized other conditionals.
    assert report.optimized_count >= 1
    # The final graph is structurally valid and semantically faithful.
    verify_icfg(report.optimized)
    assert differential_check(icfg, report.optimized).ok
    # The failure produced a diagnostics bundle with the ICFG dump.
    bundles = [b for b in report.diagnostics if b.phase == "restructure"]
    assert bundles and "FaultInjected" in bundles[0].failure
    assert "proc" in bundles[0].icfg_dump


def test_input_graph_is_never_touched_even_under_faults():
    icfg = build(FGETC_LIKE)
    reference = dump_icfg(icfg)
    plan = FaultPlan([
        FaultSpec("pipeline:branch-start", hit=1, action="drop-edge"),
        FaultSpec("analysis:pair", hit=30, action="raise"),
    ])
    make_optimizer(diff_check=True, fault_plan=plan).optimize(icfg)
    assert dump_icfg(icfg) == reference
    verify_icfg(icfg)


def test_corruption_of_live_graph_is_healed_by_rollback():
    icfg = build(FGETC_LIKE)
    plan = FaultPlan.corrupting("pipeline:branch-start", hit=2,
                                action="drop-edge")
    report = make_optimizer(diff_check=True, fault_plan=plan).optimize(icfg)
    assert plan.fired
    verify_icfg(report.optimized)
    assert differential_check(icfg, report.optimized).ok
    # Later conditionals were not poisoned by the earlier corruption.
    assert report.optimized_count >= 1


def test_semantic_corruption_is_rolled_back_by_differential_check():
    icfg = build(FGETC_LIKE)
    # Skew a print constant after splitting but before the structural
    # verifier: the graph stays verifier-clean, so only the differential
    # check can catch it.
    plan = FaultPlan.corrupting("transform:verify", hit=1,
                                action="skew-print")
    report = make_optimizer(diff_check=True, fault_plan=plan).optimize(icfg)
    assert report.rolled_back_count == 1
    rolled = [r for r in report.records
              if r.outcome is BranchOutcome.ROLLED_BACK]
    assert "mismatch" in rolled[0].failure
    verify_icfg(report.optimized)
    assert differential_check(icfg, report.optimized).ok
    bundle = [b for b in report.diagnostics if b.phase == "diff-check"]
    assert bundle and bundle[0].diff is not None


def test_final_rollback_reports_no_optimized_conditional():
    icfg = build(FGETC_LIKE)
    # Skew a print constant just before the end-of-run compaction: its
    # frontier verify passes, so only final validation's differential
    # check catches it and rolls the whole run back to the input.
    plan = FaultPlan.corrupting("pipeline:simplify", hit=1,
                                action="skew-print")
    with obs.session() as active:
        report = make_optimizer(diff_check=True,
                                fault_plan=plan).optimize(icfg)
    assert [b.phase for b in report.diagnostics] == ["final-diff"]
    assert dump_icfg(report.optimized) == dump_icfg(icfg)
    assert differential_check(icfg, report.optimized).ok
    # The records and counters describe the graph that is returned.
    assert report.optimized_count == 0
    assert report.outcome_counts() == {"rolled-back": 2,
                                       "no-correlation": 2}
    rolled = [r for r in report.records
              if r.outcome is BranchOutcome.ROLLED_BACK]
    for record in rolled:
        assert record.failure.startswith("final-diff: differential mismatch")
        assert record.node_growth == 0
    assert report.node_growth == 0
    counters = active.metrics.snapshot()["counters"]
    assert counters["optimize.optimized"] == 0
    assert counters["optimize.rolled_back"] == 2


def test_deadline_guard_fails_conditionals_not_the_run():
    icfg = build(FGETC_LIKE)
    report = make_optimizer(deadline_s=0.0).optimize(icfg)
    # With a zero deadline every analyzable conditional blows its budget
    # at the first checkpoint, but the run itself completes.
    assert report.optimized_count == 0
    assert report.failed_count >= 1
    assert all("BudgetExceeded" in r.failure for r in report.records
               if r.outcome is BranchOutcome.FAILED)
    verify_icfg(report.optimized)


def test_growth_guard_bounds_one_transaction():
    icfg = build(FGETC_LIKE)
    report = make_optimizer(guard_growth_factor=1.01).optimize(icfg)
    verify_icfg(report.optimized)
    # The guard may fail some conditionals, never the run.
    assert len(report.records) >= icfg.conditional_node_count()
    for record in report.records:
        if record.outcome is BranchOutcome.FAILED:
            assert "BudgetExceeded" in record.failure


def test_strict_mode_reraises_injected_faults():
    icfg = build(FGETC_LIKE)
    plan = FaultPlan.raising("transform:split", hit=1)
    with pytest.raises(FaultInjected):
        make_optimizer(strict=True, fault_plan=plan).optimize(icfg)


def test_strict_mode_reraises_budget_exhaustion():
    icfg = build(FGETC_LIKE)
    with pytest.raises(BudgetExceeded):
        make_optimizer(strict=True, deadline_s=0.0).optimize(icfg)


def test_strict_mode_raises_differential_mismatch():
    icfg = build(FGETC_LIKE)
    plan = FaultPlan.corrupting("transform:verify", hit=1,
                                action="skew-print")
    with pytest.raises(DifferentialMismatch):
        make_optimizer(strict=True, diff_check=True,
                       fault_plan=plan).optimize(icfg)


def test_simplify_fault_rolls_back_compaction_only():
    icfg = build(FGETC_LIKE)
    plan = FaultPlan.corrupting("pipeline:simplify", hit=1,
                                action="clear-exits")
    report = make_optimizer(diff_check=True, fault_plan=plan).optimize(icfg)
    # Optimization itself survived; only the nop compaction was undone.
    assert report.optimized_count >= 2
    verify_icfg(report.optimized)
    assert differential_check(icfg, report.optimized).ok
    assert any(b.phase == "simplify" for b in report.diagnostics)


def test_diagnostics_bundles_spill_to_disk(tmp_path):
    icfg = build(FGETC_LIKE)
    plan = FaultPlan.raising("transform:split", hit=1)
    report = make_optimizer(fault_plan=plan,
                            diagnostics_dir=str(tmp_path)).optimize(icfg)
    assert report.failed_count == 1
    written = list(tmp_path.glob("icbe-diag-*.md"))
    assert len(written) == 1
    text = written[0].read_text()
    assert "FaultInjected" in text and "Traceback" in text
    assert "proc" in text  # the ICFG dump made it into the bundle


def test_fault_free_run_matches_legacy_behaviour():
    icfg = build(FGETC_LIKE)
    robust = make_optimizer(diff_check=True).optimize(icfg)
    legacy = make_optimizer().optimize(icfg)
    assert robust.optimized_count == legacy.optimized_count
    assert robust.failed_count == legacy.failed_count == 0
    assert robust.rolled_back_count == 0
    assert dump_icfg(robust.optimized) == dump_icfg(legacy.optimized)


def test_outcome_counts_cover_every_record():
    icfg = build(FGETC_LIKE)
    plan = FaultPlan.raising("transform:split", hit=2)
    report = make_optimizer(fault_plan=plan).optimize(icfg)
    counts = report.outcome_counts()
    assert sum(counts.values()) == len(report.records)
    assert counts.get(BranchOutcome.FAILED.value) == 1
