"""The shared analysis context: interning, memoization, invalidation."""

from tests.helpers import build

from repro.analysis import AnalysisConfig, analyze_branch
from repro.analysis.context import AnalysisContext
from repro.analysis.query import Query
from repro.ir.expr import Const, VarId
from repro.ir.nodes import BranchNode, NopNode

CONFIG = AnalysisConfig(budget=100_000)

SOURCE = """
    global err = 0;
    proc may_fail(v) {
        if (v < 0) { err = 1; return 0; }
        err = 0;
        return v;
    }
    proc wrapper(v) {
        return may_fail(v);
    }
    proc main() {
        var a = wrapper(input());
        if (err == 1) { print 1; }
        var b = wrapper(input());
        if (err == 1) { print 2; }
        if (err == 0) { print 3; }
    }
"""


def bound_context(icfg):
    context = AnalysisContext()
    context.bind(icfg)
    return context


def main_branches(icfg):
    return [b.id for b in icfg.branch_nodes() if b.proc == "main"]


def test_interning_returns_the_canonical_instance():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    a = Query(VarId(None, "err"), "==", 1)
    b = Query(VarId(None, "err"), "==", 1)
    assert a is not b
    assert context.intern_query(a) is context.intern_query(b) is a


def test_context_assisted_analysis_matches_a_fresh_one():
    """The context shares interned queries and memos only: every branch
    examines exactly the pairs, and reaches exactly the answers, of a
    context-free analysis."""
    icfg = build(SOURCE)
    context = bound_context(icfg)
    for branch in main_branches(icfg):
        shared = analyze_branch(icfg, branch, CONFIG, context=context)
        fresh = analyze_branch(icfg, branch, CONFIG)
        assert shared.branch_answers == fresh.branch_answers
        assert shared.stats.pairs_examined == fresh.stats.pairs_examined


def test_commit_with_clean_graph_invalidates_nothing():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    ids = context.branch_ids(icfg)
    context.commit(icfg)
    assert context.branch_ids(icfg) is ids
    assert context.stats.index_invalidated == 0
    assert context.in_sync(icfg)


def test_commit_invalidates_summaries_reaching_dirty_procs():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    mods = context.mod_sets(icfg)
    ids = context.branch_ids(icfg)
    # Dirty the innermost callee: MOD is a whole-program fixpoint, so
    # the mod/ref summaries go, and so does the branch index.
    icfg.add_node(NopNode(icfg.new_id(), "may_fail"))
    context.commit(icfg)
    assert context.stats.modref_invalidated == 1
    assert context.stats.index_invalidated == 1
    assert context.in_sync(icfg)
    assert context.mod_sets(icfg) is not mods
    assert context.branch_ids(icfg) is not ids


def test_preserved_summaries_survive_a_dirtying_commit():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    mods = context.mod_sets(icfg)
    icfg.add_node(NopNode(icfg.new_id(), "may_fail"))
    context.commit(icfg, preserves=frozenset({AnalysisContext.MODREF}))
    assert context.mod_sets(icfg) is mods
    assert context.stats.modref_invalidated == 0


def test_out_of_sync_context_stands_aside():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    ids = context.branch_ids(icfg)
    icfg.add_node(NopNode(icfg.new_id(), "main"))  # no commit
    assert not context.in_sync(icfg)
    assert context.branch_ids(icfg) is not ids
    assert context.stats.index_reuses == 0
    # And an analysis given the stale context simply runs without it.
    result = analyze_branch(icfg, main_branches(icfg)[1], CONFIG,
                            context=context)
    assert result.engine.context is None


def test_rollback_to_the_cached_generation_keeps_everything():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    ids = context.branch_ids(icfg)
    context.rollback(icfg)  # generation unchanged
    assert context.branch_ids(icfg) is ids
    assert context.in_sync(icfg)


def test_restore_onto_a_foreign_generation_rebinds():
    """Rolling back to a mark from *before* the cached state (a
    different generation) must resynchronise rather than trust an index
    built for a graph the rolled-back one is not."""
    icfg = build(SOURCE)
    context = bound_context(icfg)
    mark = icfg.begin()
    icfg.add_node(BranchNode(icfg.new_id(), "may_fail", Const(1)))
    context.commit(icfg)         # cache now ahead of the mark
    ahead = context.branch_ids(icfg)

    icfg.rollback(mark)
    icfg.commit()
    context.rollback(icfg)

    assert context.in_sync(icfg)
    assert context.branch_ids(icfg) == sorted(
        b.id for b in icfg.branch_nodes())
    assert context.branch_ids(icfg) != ahead


def test_memoized_mod_sets_count_reuses():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    first = context.mod_sets(icfg)
    assert context.mod_sets(icfg) is first
    assert VarId(None, "err") in first["wrapper"]
    assert context.stats.modref_reuses == 1


def test_branch_index_is_cached_and_sorted():
    icfg = build(SOURCE)
    context = bound_context(icfg)
    ids = context.branch_ids(icfg)
    assert ids == sorted(b.id for b in icfg.branch_nodes())
    assert context.branch_ids(icfg) is ids
    assert context.stats.index_reuses == 1
