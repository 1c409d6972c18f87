"""Per-conditional restructuring scenarios with dynamic verification."""

import re

from tests.helpers import build, check_equivalent

from repro import obs
from repro.analysis import AnalysisConfig
from repro.interp import Workload, run_icfg
from repro.ir import verify_icfg
from repro.ir.nodes import BranchNode
from repro.transform import BranchOutcome, restructure_branch

CONFIG = AnalysisConfig(budget=100000)


def find_branch(icfg, fragment, occurrence=0):
    matches = [n for n in icfg.iter_nodes() if isinstance(n, BranchNode)
               and fragment in re.sub(r"\w+::", "", n.label())]
    return matches[occurrence]


def apply(source, fragment, config=CONFIG, limit=None, workloads=None):
    """Restructure one branch; assert semantics preserved; return result."""
    icfg = build(source)
    branch = find_branch(icfg, fragment)
    result = restructure_branch(icfg, branch.id, config, limit)
    if result.applied:
        verify_icfg(result.new_icfg)
        check_equivalent(icfg, result.new_icfg,
                         workloads if workloads is not None
                         else [[], [1, 2, 3], [-1, 0, 5, 7]])
    return icfg, result


def test_trivially_true_branch_removed():
    icfg, result = apply("""
        proc main() {
            var x = 1;
            if (x == 1) { print 1; } else { print 2; }
        }
    """, "x == 1")
    assert result.applied
    assert result.eliminated_copies == 1
    assert result.new_icfg.conditional_node_count() == 0
    assert run_icfg(result.new_icfg, Workload([])).output == [1]


def test_no_correlation_leaves_graph_untouched():
    icfg, result = apply("""
        proc main() {
            var x = input();
            if (x == 1) { print 1; }
        }
    """, "x == 1")
    assert result.outcome is BranchOutcome.NO_CORRELATION
    assert result.new_icfg is None


def test_unanalyzable_branch_reported():
    icfg, result = apply("""
        proc main() {
            var x = input(); var y = input();
            if (x == y) { print 1; }
        }
    """, "x == y")
    assert result.outcome is BranchOutcome.NOT_ANALYZABLE


def test_duplication_limit_gates_restructuring():
    source = """
        proc main() {
            var c = input();
            var x = 0;
            if (c > 0) { x = 1; }
            print c; print c; print c;
            if (x == 1) { print 1; }
        }
    """
    icfg = build(source)
    branch = find_branch(icfg, "x == 1")
    rejected = restructure_branch(icfg, branch.id, CONFIG,
                                  duplication_limit=1)
    assert rejected.outcome is BranchOutcome.OVER_LIMIT
    assert rejected.duplication_bound > 1
    accepted = restructure_branch(icfg, branch.id, CONFIG,
                                  duplication_limit=100)
    assert accepted.applied


def test_partial_correlation_splits_merge():
    """The diamond-merge case: the test is bypassed on correlated paths
    and kept on the unknown one."""
    source = """
        proc main() {
            var c = input();
            var x = 0;
            if (c > 0) { x = 1; }
            print c;
            if (x == 1) { print 10; } else { print 20; }
        }
    """
    icfg, result = apply(source, "x == 1",
                         workloads=[[5], [0], [-3]])
    assert result.applied
    assert result.eliminated_copies == 2  # both TRUE and FALSE copies
    # Dynamically the second test disappears entirely.
    before = run_icfg(icfg, Workload([5])).profile.executed_conditionals
    after = run_icfg(result.new_icfg,
                     Workload([5])).profile.executed_conditionals
    assert after == before - 1


def test_loop_invariant_flag_splits_loop():
    """Fig. 6: correlation across loop iterations duplicates the loop."""
    source = """
        proc main() {
            var flag = input();
            var x = 0;
            if (flag > 0) { x = 1; }
            var i = 0;
            while (i < 5) {
                if (x == 1) { print 1; } else { print 0; }
                i = i + 1;
            }
        }
    """
    icfg, result = apply(source, "x == 1", workloads=[[1], [0], [9]])
    assert result.applied
    # The inner test executed 5 times before; afterwards never.
    before = run_icfg(icfg, Workload([1]))
    after = run_icfg(result.new_icfg, Workload([1]))
    inner_before = sum(
        count for node_id, count in before.profile.node_counts.items()
        if isinstance(icfg.nodes.get(node_id), BranchNode)
        and "x == 1" in icfg.nodes[node_id].label())
    assert inner_before == 5
    inner_after = sum(
        count for node_id, count in after.profile.node_counts.items()
        if isinstance(result.new_icfg.nodes.get(node_id), BranchNode)
        and "x == 1" in result.new_icfg.nodes[node_id].label())
    assert inner_after == 0


def test_exit_splitting_return_value_check():
    """The paper's fgetc/EOF case: the callee's exits are split so the
    caller's check disappears on classified paths."""
    source = """
        proc classify(v) {
            if (v <= 0) { return -1; }
            return (unsigned) v;
        }
        proc main() {
            var i = 0;
            while (i < 4) {
                var r = classify(input());
                if (r == -1) { print 0; } else { print r; }
                i = i + 1;
            }
        }
    """
    icfg, result = apply(source, "r == -1",
                         workloads=[[1, -2, 3, -4], [0, 0, 0, 0]])
    assert result.applied
    # classify now has multiple exits.
    assert len(result.new_icfg.procs["classify"].exits) >= 2
    before = run_icfg(icfg, Workload([1, -2, 3, -4]))
    after = run_icfg(result.new_icfg, Workload([1, -2, 3, -4]))
    assert (after.profile.executed_conditionals
            == before.profile.executed_conditionals - 4)


def test_entry_splitting_parameter_guard():
    """The callee's own parameter check is eliminated for the guarded
    call path via entry splitting."""
    source = """
        proc worker(p) {
            if (p == 0) { return -2; }
            return p * 2;
        }
        proc main() {
            var v = input();
            if (v != 0) {
                var r = worker(v);
                print r;
            } else {
                var s = worker(0);
                print s;
            }
        }
    """
    icfg, result = apply(source, "p == 0", workloads=[[3], [0], [-7]])
    assert result.applied
    # worker now has multiple entries (one per correlated context).
    assert len(result.new_icfg.procs["worker"].entries) >= 2
    # Dynamically, worker's guard never executes again.
    for inputs in ([3], [0]):
        after = run_icfg(result.new_icfg, Workload(inputs))
        guard_runs = sum(
            count for node_id, count in after.profile.node_counts.items()
            if isinstance(result.new_icfg.nodes.get(node_id), BranchNode)
            and "p == 0" in result.new_icfg.nodes[node_id].label())
        assert guard_runs == 0


def test_global_flag_through_call():
    source = """
        global err = 0;
        proc may_fail(v) {
            if (v < 0) { err = 1; return 0; }
            err = 0;
            return v;
        }
        proc main() {
            var i = 0;
            while (i < 3) {
                var r = may_fail(input());
                if (err == 1) { print -1; } else { print r; }
                i = i + 1;
            }
        }
    """
    icfg, result = apply(source, "err == 1",
                         workloads=[[1, -1, 2], [-5, -5, -5]])
    assert result.applied
    before = run_icfg(icfg, Workload([1, -1, 2]))
    after = run_icfg(result.new_icfg, Workload([1, -1, 2]))
    assert (after.profile.executed_conditionals
            < before.profile.executed_conditionals)


def test_operations_never_increase_on_any_tested_path():
    """Paper §3.3 safety: restructuring never lengthens a path."""
    source = """
        proc classify(v) {
            if (v <= 0) { return -1; }
            return (unsigned) v;
        }
        proc main() {
            var r = classify(input());
            if (r == -1) { print 0; } else { print r; }
        }
    """
    icfg = build(source)
    branch = find_branch(icfg, "r == -1")
    result = restructure_branch(icfg, branch.id, CONFIG)
    assert result.applied
    for inputs in ([5], [-5], [0], [100]):
        before = run_icfg(icfg, Workload(inputs))
        after = run_icfg(result.new_icfg, Workload(inputs))
        assert (after.profile.executed_operations
                <= before.profile.executed_operations)


def test_input_graph_is_never_mutated():
    source = """
        proc main() {
            var x = 1;
            if (x == 1) { print 1; }
        }
    """
    icfg = build(source)
    snapshot = set(icfg.nodes)
    branch = find_branch(icfg, "x == 1")
    restructure_branch(icfg, branch.id, CONFIG)
    assert set(icfg.nodes) == snapshot
    verify_icfg(icfg)


def test_intraprocedural_mode_still_transforms_local_cases():
    source = """
        proc main() {
            var x = input();
            if (x == 7) { print 1; }
            if (x == 7) { print 2; }
        }
    """
    icfg = build(source)
    second = find_branch(icfg, "x == 7", occurrence=1)
    result = restructure_branch(
        icfg, second.id, AnalysisConfig(interprocedural=False), None)
    assert result.applied
    check_equivalent(icfg, result.new_icfg, [[7], [1], [0]])
    # After splitting, the second test never executes.
    after = run_icfg(result.new_icfg, Workload([7]))
    assert after.profile.executed_conditionals == 1


LOCALITY = """
    proc main() {
        var x = input();
        var f = 0;
        if (x > 0) { f = 1; }
        if (f == 1) { print 1; }
        PADDING
        return 0;
    }
"""


def counting_verified_nodes(action):
    """``action()``'s result and the ``verify.nodes_checked`` it added."""
    with obs.session() as active:
        result = action()
    return result, active.metrics.snapshot()["counters"]["verify.nodes_checked"]


def locality_transaction(padding):
    """One conditional's in-place transaction on LOCALITY; returns the
    nodes its frontier check examined and the full check's count for
    the same graph."""
    icfg = build(LOCALITY.replace("PADDING", padding))
    branch = find_branch(icfg, "f == 1")
    mark = icfg.begin()
    result, frontier = counting_verified_nodes(
        lambda: restructure_branch(icfg, branch.id, CONFIG, since=mark))
    assert result.applied
    _, full = counting_verified_nodes(lambda: verify_icfg(icfg))
    return frontier, full


def test_frontier_verification_is_local():
    """Padding the conditional's procedure with unrelated straight-line
    code must not change what its transaction verifies."""
    frontier, full = locality_transaction("")
    padded_frontier, padded_full = locality_transaction(
        "x = x + 1; print x;\n" * 40)
    assert padded_frontier == frontier
    # The full check, by contrast, re-checks the padding.
    assert padded_full >= full + 80
