"""The procedures a transaction touched, read from its undo log.

:meth:`~repro.ir.icfg.ICFG.edited_since` scans the log once and returns
the nodes it names and the procedures whose nodes or edges were added
or removed.  The frontier check reads both: the procedures scope the
entry/exit-list checks and bring the callers of their entries into the
frontier.
"""

import pytest

from tests.helpers import build

from repro.errors import VerificationError
from repro.ir.expr import Const
from repro.ir.icfg import EdgeKind, ICFG, ProcInfo
from repro.ir.nodes import BranchNode, EntryNode, ExitNode, NopNode
from repro.ir.verify import verify_icfg


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


def touched_procs(icfg, mark):
    return icfg.edited_since(mark)[1]


def test_every_structural_mutator_names_its_procedure():
    icfg = two_proc_graph()
    mark = icfg.begin()
    node = icfg.add_node(NopNode(icfg.new_id(), "helper"))
    assert touched_procs(icfg, mark) == {"helper"}
    mark = icfg.begin()
    entry_id = icfg.procs["main"].entries[0]
    edge = icfg.add_edge(entry_id, icfg.procs["main"].exits[0],
                         EdgeKind.TRUE)
    assert touched_procs(icfg, mark) == {"main"}
    mark = icfg.begin()
    icfg.remove_edge(edge)
    assert touched_procs(icfg, mark) == {"main"}
    mark = icfg.begin()
    icfg.remove_node(node.id)
    assert touched_procs(icfg, mark) == {"helper"}
    mark = icfg.begin()
    icfg.duplicate_node(icfg.nodes[icfg.procs["helper"].exits[0]])
    assert touched_procs(icfg, mark) == {"helper"}
    mark = icfg.begin()
    icfg.remove_unreachable()
    # Nothing calls helper: every node of it goes, and so does it.
    assert "helper" not in icfg.procs
    assert touched_procs(icfg, mark) == {"helper"}


def test_dirty_sets_name_exactly_the_touched_procedures():
    icfg = two_proc_graph()
    mark = icfg.begin()
    icfg.add_node(NopNode(icfg.new_id(), "helper"))
    assert touched_procs(icfg, mark) == {"helper"}
    assert touched_procs(icfg, icfg.begin()) == set()


def test_cross_procedure_edge_dirties_both_endpoints():
    icfg = two_proc_graph()
    mark = icfg.begin()
    icfg.add_edge(icfg.procs["main"].entries[0],
                  icfg.procs["helper"].entries[0], EdgeKind.CALL)
    assert touched_procs(icfg, mark) == {"main", "helper"}


def test_a_removed_endpoint_still_names_its_procedure():
    icfg = two_proc_graph()
    mark = icfg.begin()
    nop = icfg.add_node(NopNode(icfg.new_id(), "helper"))
    icfg.add_edge(icfg.procs["main"].entries[0], nop.id, EdgeKind.CALL)
    icfg.remove_node(nop.id)
    assert touched_procs(icfg, mark) == {"main", "helper"}


def test_mark_all_dirty_taints_every_procedure():
    """Mutation of unknown extent leaves the log unbounded, so the next
    check is a full one: it finds damage in a procedure the log never
    named."""
    icfg = two_proc_graph()
    mark = icfg.begin()
    icfg.mark_all_dirty()
    assert icfg.edited_since(mark) is None
    icfg.procs["helper"].exits.clear()  # an unlogged raw write
    with pytest.raises(VerificationError, match="'helper' has no exit"):
        verify_icfg(icfg, since=mark)


def test_rollback_leaves_nothing_named():
    icfg = two_proc_graph()
    mark = icfg.begin()
    icfg.add_node(NopNode(icfg.new_id(), "main"))
    assert icfg.changed_since(mark)
    icfg.rollback(mark)
    assert not icfg.changed_since(mark)
    assert icfg.edited_since(mark) == (set(), set())


def test_field_writes_name_nodes_but_no_procedure():
    """A call's return map or entry is a field of the call: it changes
    the call's own verdict, not its procedure's body."""
    icfg = build("""
        proc f(v) { return v; }
        proc main() { var a = f(input()); print a; }
    """)
    call = icfg.call_nodes()[0]
    mark = icfg.begin()
    icfg.set_call_entry(call, call.entry_id)
    assert icfg.edited_since(mark) == ({call.id}, set())


def test_branch_node_alone_does_not_dirty_other_procs():
    icfg = two_proc_graph()
    mark = icfg.begin()
    icfg.add_node(BranchNode(icfg.new_id(), "main", Const(1)))
    assert touched_procs(icfg, mark) == {"main"}
