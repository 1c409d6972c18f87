from tests.helpers import FGETC_LIKE, build, check_equivalent

from repro.analysis import AnalysisConfig
from repro.interp import Workload, run_icfg
from repro.ir import verify_icfg
from repro.transform import (BranchOutcome, ICBEOptimizer, OptimizerOptions)


def make_optimizer(interprocedural=True, limit=None, budget=10000):
    return ICBEOptimizer(OptimizerOptions(
        config=AnalysisConfig(interprocedural=interprocedural, budget=budget),
        duplication_limit=limit))


def test_optimizes_fgetc_example(fgetc_icfg):
    report = make_optimizer().optimize(fgetc_icfg)
    verify_icfg(report.optimized)
    conds_before, conds_after = check_equivalent(
        fgetc_icfg, report.optimized, [[], [5, 0], [1, 1, 0]])
    assert conds_after < conds_before
    assert report.optimized_count >= 2


def test_every_branch_gets_exactly_one_record(fgetc_icfg):
    report = make_optimizer().optimize(fgetc_icfg)
    # Every conditional present at some point was considered once.
    branch_ids = [r.branch_id for r in report.records]
    assert len(branch_ids) == len(set(branch_ids))
    assert len(branch_ids) >= fgetc_icfg.conditional_node_count()


def test_counts_and_growth_accounted(fgetc_icfg):
    report = make_optimizer().optimize(fgetc_icfg)
    assert report.nodes_before == fgetc_icfg.node_count()
    assert report.nodes_after == report.optimized.node_count()
    assert report.node_growth == report.nodes_after - report.nodes_before
    assert report.conditionals_before == fgetc_icfg.conditional_node_count()
    assert report.elapsed_seconds >= 0
    assert report.total_pairs_examined() > 0


def test_input_graph_untouched(fgetc_icfg):
    snapshot = set(fgetc_icfg.nodes)
    make_optimizer().optimize(fgetc_icfg)
    assert set(fgetc_icfg.nodes) == snapshot
    verify_icfg(fgetc_icfg)


def test_zero_duplication_limit_blocks_costly_branches():
    source = """
        proc main() {
            var c = input();
            var x = 0;
            if (c > 0) { x = 1; }
            print c;
            if (x == 1) { print 1; }
        }
    """
    icfg = build(source)
    report = make_optimizer(limit=0).optimize(icfg)
    outcomes = {r.branch_id: r.outcome for r in report.records}
    assert BranchOutcome.OVER_LIMIT in outcomes.values()


def test_intraprocedural_never_beats_interprocedural():
    icfg = build(FGETC_LIKE)
    inter = make_optimizer(interprocedural=True).optimize(icfg)
    intra = make_optimizer(interprocedural=False).optimize(icfg)
    workload = [[], [3, 0], [2, 2, 0]]
    _, inter_conds = check_equivalent(icfg, inter.optimized, workload)
    _, intra_conds = check_equivalent(icfg, intra.optimized, workload)
    assert inter_conds <= intra_conds


def test_idempotent_second_pass_changes_little():
    icfg = build(FGETC_LIKE)
    first = make_optimizer().optimize(icfg)
    second = make_optimizer().optimize(first.optimized)
    check_equivalent(icfg, second.optimized, [[], [4, 0]])
    first_conds = run_icfg(first.optimized,
                           Workload([4, 0])).profile.executed_conditionals
    second_conds = run_icfg(second.optimized,
                            Workload([4, 0])).profile.executed_conditionals
    assert second_conds <= first_conds


def test_records_capture_analysis_stats(fgetc_icfg):
    report = make_optimizer(budget=3).optimize(fgetc_icfg)
    assert any(r.budget_exhausted for r in report.records)
