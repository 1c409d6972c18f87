"""Transaction rollback: the mechanism under every transaction.

``ICFG.begin`` takes a mark (a constant-size snapshot of the undo-log
depth, the id allocator and the node count); every mutator then logs how to undo itself,
and ``ICFG.rollback`` replays that log back to the mark.
"""

import pytest

from tests.helpers import FGETC_LIKE, build

from repro.ir import dump_icfg, verify_icfg
from repro.ir.icfg import EdgeKind, ProcInfo
from repro.ir.nodes import AssignNode, PrintNode


def adjacency(icfg):
    return {node_id: (icfg.succ_edges(node_id), icfg.pred_edges(node_id))
            for node_id in icfg.nodes}


def split_one_node(icfg):
    """A transaction's worth of edits: copy a node, move its in-edges
    to the copy, delete the original, sweep unreachable code."""
    victim = next(n for n in icfg.iter_nodes() if isinstance(n, AssignNode))
    copy = icfg.duplicate_node(victim)
    for edge in icfg.pred_edges(victim.id):
        icfg.remove_edge(edge)
        icfg.add_edge(edge.src, copy.id, edge.kind)
    icfg.add_edge(copy.id, icfg.only_succ(victim.id), EdgeKind.NORMAL)
    icfg.remove_node(victim.id)
    icfg.remove_unreachable()


def test_restore_roundtrips_structure():
    icfg = build(FGETC_LIKE)
    reference = dump_icfg(icfg)
    lists = adjacency(icfg)
    mark = icfg.begin()
    split_one_node(icfg)
    assert dump_icfg(icfg) != reference
    assert icfg.rollback(mark) > 0
    verify_icfg(icfg)
    assert dump_icfg(icfg) == reference
    assert adjacency(icfg) == lists
    assert list(icfg.nodes) == sorted(icfg.nodes)
    assert mark.node_count == icfg.node_count()


def test_taking_a_snapshot_leaves_the_graph_unharmed():
    icfg = build(FGETC_LIKE)
    reference = dump_icfg(icfg)
    mark = icfg.begin()
    assert dump_icfg(icfg) == reference
    assert not icfg.changed_since(mark)
    verify_icfg(icfg)


def test_restore_in_place_heals_mutation():
    icfg = build(FGETC_LIKE)
    reference = dump_icfg(icfg)
    mark = icfg.begin()
    # Corrupt the live graph thoroughly, through the mutators and
    # through logged raw writes.
    some_node = next(iter(sorted(icfg.nodes)))
    for edge in list(icfg.succ_edges(some_node)):
        icfg.remove_edge(edge)
    exits = icfg.procs[icfg.main].exits
    icfg.note_list(exits)
    exits.clear()
    printer = next(n for n in icfg.iter_nodes() if isinstance(n, PrintNode))
    icfg.note_item(icfg.nodes, printer.id)
    del icfg.nodes[printer.id]
    icfg.add_proc(ProcInfo("late"))
    icfg.rollback(mark)
    assert dump_icfg(icfg) == reference
    assert icfg.nodes[printer.id] is printer
    assert "late" not in icfg.procs
    verify_icfg(icfg)


def test_snapshot_survives_multiple_restores():
    icfg = build(FGETC_LIKE)
    reference = dump_icfg(icfg)
    mark = icfg.begin()
    split_one_node(icfg)
    icfg.rollback(mark)
    # A different edit after the first rollback rolls back to the same
    # mark just as well.
    victim = sorted(icfg.nodes)[0]
    for edge in list(icfg.succ_edges(victim)):
        icfg.remove_edge(edge)
    icfg.rollback(mark)
    verify_icfg(icfg)
    assert dump_icfg(icfg) == reference


def test_restored_id_allocator_does_not_recycle_ids():
    icfg = build(FGETC_LIKE)
    mark = icfg.begin()
    split_one_node(icfg)
    icfg.rollback(mark)
    fresh = icfg.new_id()
    assert fresh not in icfg.nodes
    # The allocator is rewound with the graph, so a rolled-back graph
    # hands out the ids a clone taken at the mark would.
    assert fresh == mark.next_id


def test_commit_keeps_the_edits_and_ends_the_transaction():
    icfg = build(FGETC_LIKE)
    mark = icfg.begin()
    split_one_node(icfg)
    edited = dump_icfg(icfg)
    assert icfg.commit() > 0
    assert dump_icfg(icfg) == edited
    verify_icfg(icfg)
    assert icfg.commit() == 0  # nothing open any more
    with pytest.raises(RuntimeError, match="outside a transaction"):
        icfg.rollback(mark)


def test_mutations_outside_a_transaction_are_not_logged():
    icfg = build(FGETC_LIKE)
    split_one_node(icfg)
    mark = icfg.begin()
    assert icfg.edited_since(mark) == (set(), set())
    assert icfg.rollback(mark) == 0
