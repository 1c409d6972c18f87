"""Generation counter and per-procedure dirty sets on the ICFG.

Every mutator must bump the generation and mark the touched procedures,
clones must carry both, and a transaction rollback must put them back —
that last property is what lets the optimizer's analysis context keep
its caches across a rolled-back transaction.
"""

import pytest

from repro.ir.expr import Const
from repro.ir.icfg import EdgeKind, ICFG, ProcInfo
from repro.ir.nodes import BranchNode, EntryNode, ExitNode, NopNode


def two_proc_graph():
    icfg = ICFG()
    for name in ("main", "helper"):
        icfg.add_proc(ProcInfo(name))
        entry = icfg.add_node(EntryNode(icfg.new_id(), name))
        exit_node = icfg.add_node(ExitNode(icfg.new_id(), name))
        icfg.procs[name].entries.append(entry.id)
        icfg.procs[name].exits.append(exit_node.id)
        icfg.add_edge(entry.id, exit_node.id, EdgeKind.NORMAL)
    return icfg


def test_every_mutator_bumps_the_generation():
    icfg = two_proc_graph()
    seen = icfg.generation
    node = icfg.add_node(NopNode(icfg.new_id(), "main"))
    assert icfg.generation > seen
    seen = icfg.generation
    entry_id = icfg.procs["main"].entries[0]
    edge = icfg.add_edge(entry_id, node.id, EdgeKind.NORMAL)
    assert icfg.generation > seen
    seen = icfg.generation
    icfg.remove_edge(edge)
    assert icfg.generation > seen
    seen = icfg.generation
    icfg.remove_node(node.id)
    assert icfg.generation > seen
    seen = icfg.generation
    icfg.duplicate_node(icfg.nodes[icfg.procs["main"].exits[0]])
    assert icfg.generation > seen
    seen = icfg.generation
    icfg.remove_unreachable()
    assert icfg.generation > seen


def test_dirty_sets_name_exactly_the_touched_procedures():
    icfg = two_proc_graph()
    base = icfg.generation
    icfg.add_node(NopNode(icfg.new_id(), "helper"))
    assert icfg.dirty_procs_since(base) == {"helper"}
    assert icfg.dirty_procs_since(icfg.generation) == set()


def test_cross_procedure_edge_dirties_both_endpoints():
    icfg = two_proc_graph()
    base = icfg.generation
    icfg.add_edge(icfg.procs["main"].entries[0],
                  icfg.procs["helper"].entries[0], EdgeKind.CALL)
    assert icfg.dirty_procs_since(base) == {"main", "helper"}


def test_mark_all_dirty_taints_every_procedure():
    icfg = two_proc_graph()
    base = icfg.generation
    icfg.mark_all_dirty()
    assert icfg.dirty_procs_since(base) == {"main", "helper"}


def test_clone_carries_generation_and_dirty_sets():
    icfg = two_proc_graph()
    base = icfg.generation
    icfg.add_node(NopNode(icfg.new_id(), "main"))
    copy = icfg.clone()
    assert copy.generation == icfg.generation
    assert copy.dirty_procs_since(base) == icfg.dirty_procs_since(base)
    # Divergent mutation after the clone stays divergent.
    copy.add_node(NopNode(copy.new_id(), "helper"))
    assert copy.generation > icfg.generation


def test_snapshot_restore_restores_the_generation():
    icfg = two_proc_graph()
    mark = icfg.begin()
    taken_at = icfg.generation
    icfg.add_node(NopNode(icfg.new_id(), "main"))
    assert icfg.generation > taken_at
    icfg.rollback(mark)
    assert icfg.generation == taken_at
    assert icfg.dirty_procs_since(taken_at) == set()


def test_restore_after_rollback_leaves_cached_analyses_valid():
    """The satellite regression: a rolled-back transaction must not
    cost the analysis context its caches.  After restore, the context
    bound to the pre-transaction generation is in sync again and its
    memoized facts still describe the restored graph exactly."""
    from tests.helpers import build

    from repro.analysis.context import AnalysisContext

    icfg = build("""
        global err = 0;
        proc may_fail(v) {
            if (v < 0) { err = 1; return 0; }
            err = 0;
            return v;
        }
        proc main() {
            var a = may_fail(input());
            if (err == 1) { print 1; }
            var b = may_fail(input());
            if (err == 1) { print 2; }
        }
    """)
    context = AnalysisContext()
    context.bind(icfg)
    ids = context.branch_ids(icfg)
    mods = context.mod_sets(icfg)

    # A transaction mutates the graph, then rolls back its undo log.
    mark = icfg.begin()
    doomed = icfg.add_node(NopNode(icfg.new_id(), "main"))
    icfg.add_edge(icfg.procs["main"].entries[0], doomed.id, EdgeKind.CALL)
    assert not context.in_sync(icfg)
    icfg.rollback(mark)
    icfg.commit()
    context.rollback(icfg)
    assert context.in_sync(icfg)
    # Nothing was invalidated, and the memos match a fresh derivation.
    assert context.branch_ids(icfg) is ids
    assert context.mod_sets(icfg) is mods
    assert ids == sorted(b.id for b in icfg.branch_nodes())


def test_branch_node_alone_does_not_dirty_other_procs():
    icfg = two_proc_graph()
    base = icfg.generation
    icfg.add_node(BranchNode(icfg.new_id(), "main", Const(1)))
    assert icfg.dirty_procs_since(base) == {"main"}
