"""The three contracts of a per-conditional transaction, property-style.

- **Rollback is exact.**  Whatever a transaction did to the live graph
  (in-place restructuring, every corruption action, raises mid-split),
  rolling its undo log back leaves the graph equal to a clone taken at
  ``begin()``: same nodes and fields, same adjacency, entry and exit
  list orders, same next id.  A write inside a transaction that
  bypasses the log breaks this.
- **The frontier is sound.**  On every transaction, the edit-frontier
  check and the full check agree (both pass or both raise), with edges
  dropped or strayed just before verification.
- **The reference agrees.**  On fault-free runs, every transaction (one
  in-place analysis, in-place restructuring, frontier verification)
  produces the record, and for an optimized conditional the graph, of
  :func:`~repro.transform.restructure.restructure_branch` without
  ``since``: a clone of the graph the transaction began on, a fresh
  analysis and a full verification.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import AnalysisConfig
from repro.benchgen import GeneratorOptions, generate_program
from repro.benchgen.suite import load_benchmark
from repro.errors import VerificationError
from repro.ir import dump_icfg, lower_program, verify_icfg
from repro.ir.icfg import ICFG
from repro.robustness import CORRUPTION_ACTIONS, FaultPlan, FaultSpec
from repro.transform import ICBEOptimizer, OptimizerOptions
from repro.transform import pipeline
from repro.transform.pipeline import BranchRecord
from repro.transform.restructure import restructure_branch

OPTIONS = GeneratorOptions(procedures=3, statements_per_proc=7)

SITES = ("analysis:pair", "transform:split", "transform:eliminate",
         "transform:verify", "pipeline:branch-start", "pipeline:simplify",
         "diffcheck:run")

fault_specs = st.builds(
    FaultSpec, site=st.sampled_from(SITES), hit=st.integers(1, 4),
    action=st.sampled_from(("raise",) + CORRUPTION_ACTIONS),
    seed=st.integers(0, 99))


def assert_same_graph(live, reference):
    assert dump_icfg(live) == dump_icfg(reference)
    assert list(live.nodes) == list(reference.nodes)
    for node_id, node in reference.nodes.items():
        assert live.nodes[node_id] == node
        assert live.succ_edges(node_id) == reference.succ_edges(node_id)
        assert live.pred_edges(node_id) == reference.pred_edges(node_id)
    assert list(live.procs) == list(reference.procs)
    for name, info in reference.procs.items():
        assert live.procs[name] == info
    assert live.globals == reference.globals
    assert live._ids.next_id == reference._ids.next_id


def optimize_checking_rollbacks(icfg, options):
    """Optimize with every rollback compared against a clone taken at
    its transaction's ``begin()``."""
    begin, rollback = ICFG.begin, ICFG.rollback
    references = {}

    def checked_begin(graph):
        mark = begin(graph)
        references[id(mark)] = (mark, graph.clone())
        return mark

    def checked_rollback(graph, mark):
        replayed = rollback(graph, mark)
        assert_same_graph(graph, references[id(mark)][1])
        return replayed

    with mock.patch.object(ICFG, "begin", checked_begin), \
            mock.patch.object(ICFG, "rollback", checked_rollback):
        report = ICBEOptimizer(options).optimize(icfg)
    verify_icfg(report.optimized)


@given(seed=st.integers(0, 4_000),
       specs=st.lists(fault_specs, min_size=1, max_size=3),
       budget=st.sampled_from((80, 10_000)))
@settings(max_examples=15, deadline=None)
def test_rollback_restores_the_graph_begin_saw(seed, specs, budget):
    icfg = lower_program(generate_program(seed, OPTIONS))
    optimize_checking_rollbacks(icfg, OptimizerOptions(
        config=AnalysisConfig(budget=budget), diff_check=True,
        fault_plan=FaultPlan(list(specs))))


@pytest.mark.parametrize("action", CORRUPTION_ACTIONS)
@pytest.mark.parametrize("site", ("analysis:pair", "transform:split",
                                  "transform:eliminate", "transform:verify",
                                  "pipeline:branch-start"))
def test_rollback_heals_every_corruption_exactly(site, action):
    """Every corruption action, at every site that hands a transaction's
    graph to the fault plan, on the first conditional that gets there."""
    icfg = lower_program(generate_program(1, OPTIONS))
    plan = FaultPlan([FaultSpec(site, 1, action, seed=3)])
    optimize_checking_rollbacks(icfg, OptimizerOptions(
        config=AnalysisConfig(budget=10_000), diff_check=True,
        fault_plan=plan))
    assert plan.fired


def verdict(check):
    try:
        check()
    except VerificationError:
        return "raise"
    return "pass"


@given(seed=st.integers(0, 4_000),
       hits=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       action=st.sampled_from(("drop-edge", "stray-edge")),
       fault_seed=st.integers(0, 99))
@settings(max_examples=15, deadline=None)
def test_frontier_and_full_checks_agree(seed, hits, action, fault_seed):
    icfg = lower_program(generate_program(seed, OPTIONS))
    verdicts = []

    def both_checks(graph, since=None):
        if since is not None:
            frontier = verdict(lambda: verify_icfg(graph, since=since))
            full = verdict(lambda: verify_icfg(graph))
            verdicts.append((frontier, full))
            assert frontier == full
        verify_icfg(graph, since=since)

    plan = FaultPlan([FaultSpec("transform:verify", hit, action,
                                seed=fault_seed) for hit in set(hits)])
    optimizer = ICBEOptimizer(OptimizerOptions(
        config=AnalysisConfig(budget=10_000), fault_plan=plan))
    # Both corruptions go through the logged mutators; without the
    # blanket mark_all_dirty() the frontier check does the work instead
    # of falling back to the full check.
    with mock.patch.object(ICFG, "mark_all_dirty", lambda graph: None), \
            mock.patch("repro.transform.restructure.verify_icfg",
                       both_checks), \
            mock.patch("repro.transform.pipeline.verify_icfg", both_checks):
        report = optimizer.optimize(icfg)
    verify_icfg(report.optimized)
    if plan.fired and not plan.fired[0].detail.startswith("noop"):
        assert ("raise", "raise") in verdicts


def record_fields(result):
    record = BranchRecord.from_result(result)
    return (record.outcome, record.duplication_bound, record.node_growth,
            record.eliminated_copies, record.pairs_examined,
            record.budget_exhausted)


def optimize_checking_transactions(icfg, options):
    """Optimize with every transaction compared against
    ``restructure_branch`` without ``since`` on the graph it began on.
    A failed comparison is collected rather than raised, because the
    optimizer would record it as a failed transaction and carry on."""
    attempt = pipeline._attempt
    seen, expected = [], []

    def checked_attempt(state, branch_id, mark):
        opts = state.options
        reference = restructure_branch(
            state.current, branch_id, opts.config, opts.duplication_limit,
            profile=state.gate_profile,
            min_benefit_per_node=opts.min_benefit_per_node)
        result = attempt(state, branch_id, mark)
        same_graph = (not result.applied or dump_icfg(result.new_icfg)
                      == dump_icfg(reference.new_icfg))
        seen.append((branch_id, record_fields(result), same_graph))
        expected.append((branch_id, record_fields(reference), True))
        return result

    with mock.patch.object(pipeline, "_attempt", checked_attempt):
        report = ICBEOptimizer(options).optimize(icfg)
    assert seen == expected
    assert len(seen) == len(report.records)
    return report


@given(seed=st.integers(0, 4_000), budget=st.sampled_from((80, 10_000)))
@settings(max_examples=10, deadline=None)
def test_every_transaction_matches_the_reference(seed, budget):
    icfg = lower_program(generate_program(seed, OPTIONS))
    optimize_checking_transactions(icfg, OptimizerOptions(
        config=AnalysisConfig(budget=budget)))


@pytest.mark.parametrize("program, options", [
    # A suite program under the default budget and a duplication limit.
    (lambda: load_benchmark("compress_like", 2).program,
     OptimizerOptions(duplication_limit=100)),
    # A budget-truncated restructuring whose in-place result once
    # diverged from the reference's: cloning must keep predecessor
    # list order.
    (lambda: generate_program(1460, OPTIONS),
     OptimizerOptions(config=AnalysisConfig(budget=80))),
], ids=["compress_like@2", "generated-1460"])
def test_known_transactions_match_the_reference(program, options):
    report = optimize_checking_transactions(lower_program(program()),
                                            options)
    assert report.optimized_count > 0
