import pytest

from tests.helpers import build

from repro.errors import VerificationError
from repro.ir import verify_icfg
from repro.ir.icfg import EdgeKind
from repro.ir.nodes import BranchNode, CallExitNode, CallNode, NopNode


SOURCE = """
proc f(a) { if (a == 0) { return 1; } return 2; }
proc main() { var x = f(3); print x; }
"""


def test_lowered_program_verifies(fgetc_icfg):
    verify_icfg(fgetc_icfg)


def branch_of(icfg):
    return [n for n in icfg.iter_nodes() if isinstance(n, BranchNode)][0]


def test_detects_branch_missing_false_edge():
    icfg = build(SOURCE)
    branch = branch_of(icfg)
    for edge in icfg.succ_edges(branch.id):
        if edge.kind is EdgeKind.FALSE:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError, match="branch"):
        verify_icfg(icfg)


def test_detects_flowthrough_with_two_successors():
    icfg = build(SOURCE)
    nop = [n for n in icfg.iter_nodes() if isinstance(n, NopNode)][0]
    other = icfg.procs[nop.proc].exits[0]
    icfg.add_edge(nop.id, other, EdgeKind.NORMAL)
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_cross_procedure_normal_edge():
    icfg = build(SOURCE)
    main_nodes = [n for n in icfg.iter_nodes()
                  if n.proc == "main" and isinstance(n, NopNode)]
    f_exit = icfg.procs["f"].exits[0]
    source = main_nodes[0] if main_nodes else icfg.nodes[icfg.main_entry()]
    icfg.add_edge(source.id, f_exit, EdgeKind.NORMAL)
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_call_exit_without_return_edge():
    icfg = build(SOURCE)
    call_exit = [n for n in icfg.iter_nodes()
                 if isinstance(n, CallExitNode)][0]
    return_edge = [e for e in icfg.pred_edges(call_exit.id)
                   if e.kind is EdgeKind.RETURN][0]
    icfg.remove_edge(return_edge)
    with pytest.raises(VerificationError, match="call-exit"):
        verify_icfg(icfg)


def test_detects_return_map_value_mismatch():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    exit_id = icfg.procs["f"].exits[0]
    call.return_map[exit_id] = 999999
    with pytest.raises(VerificationError, match="return_map"):
        verify_icfg(icfg)


def test_detects_missing_return_address_for_reachable_exit():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    # Pretend the exit is unmapped by removing both the map entry and
    # the LOCAL/RETURN edges so value consistency still holds.
    exit_id = icfg.procs["f"].exits[0]
    call_exit_id = call.return_map.pop(exit_id)
    for edge in list(icfg.succ_edges(call.id)):
        if edge.kind is EdgeKind.LOCAL and edge.dst == call_exit_id:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_call_to_wrong_entry():
    icfg = build(SOURCE + "proc g() { return 0; }")
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    call.entry_id = icfg.procs["g"].entries[0]
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_unregistered_entry_node():
    icfg = build(SOURCE)
    icfg.procs["f"].entries.remove(icfg.procs["f"].entries[0])
    with pytest.raises(VerificationError):
        verify_icfg(icfg)


def test_detects_missing_exit_list():
    icfg = build(SOURCE)
    icfg.procs["f"].exits.clear()
    with pytest.raises(VerificationError, match="no exit"):
        verify_icfg(icfg)


def test_detects_asymmetric_edge_indices():
    icfg = build(SOURCE)
    node_id = icfg.main_entry()
    edge = icfg.succ_edges(node_id)[0]
    # Corrupt the internal index directly (white-box).
    icfg._preds[edge.dst].remove(edge)
    with pytest.raises(VerificationError, match="disagree"):
        verify_icfg(icfg)


# ---------------------------------------------------------------------------
# One deliberately corrupted graph per checked invariant class (the six
# classes in the module docstring of repro/ir/verify.py), asserting the
# specific VerificationError message so a future refactor cannot
# silently weaken a check.
# ---------------------------------------------------------------------------


def test_invariant1_duplicate_out_edges_named():
    icfg = build(SOURCE)
    node_id = icfg.main_entry()
    # Bypass add_edge's own duplicate rejection (white-box).
    icfg._succs[node_id].append(icfg.succ_edges(node_id)[0])
    with pytest.raises(VerificationError, match="duplicate out-edges"):
        verify_icfg(icfg)


def test_invariant1_dangling_edge_target_named():
    icfg = build(SOURCE)
    victim = [n.id for n in icfg.iter_nodes() if isinstance(n, NopNode)][0]
    del icfg.nodes[victim]  # leave every incident edge dangling
    with pytest.raises(VerificationError, match="targets unknown node"):
        verify_icfg(icfg)


def test_invariant2_unknown_procedure_named():
    icfg = build(SOURCE)
    del icfg.procs["f"]  # every node of f now floats proc-less
    with pytest.raises(VerificationError,
                       match="unknown procedure 'f'"):
        verify_icfg(icfg)


def test_invariant3_branch_out_edge_arity_named():
    icfg = build(SOURCE)
    branch = branch_of(icfg)
    for edge in list(icfg.succ_edges(branch.id)):
        if edge.kind is EdgeKind.TRUE:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError,
                       match=rf"branch {branch.id} has out-edges"):
        verify_icfg(icfg)


def test_invariant3_flowthrough_out_edge_arity_named():
    icfg = build(SOURCE)
    nop = [n for n in icfg.iter_nodes() if isinstance(n, NopNode)][0]
    for edge in list(icfg.succ_edges(nop.id)):
        icfg.remove_edge(edge)
    with pytest.raises(VerificationError,
                       match="expected exactly one NORMAL"):
        verify_icfg(icfg)


def test_invariant4_call_without_call_site_exit_named():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    for edge in list(icfg.succ_edges(call.id)):
        if edge.kind is EdgeKind.LOCAL:
            icfg.remove_edge(edge)
    with pytest.raises(VerificationError, match="no call-site exit"):
        verify_icfg(icfg)


def test_invariant5_return_map_key_not_an_exit_named():
    icfg = build(SOURCE)
    call = [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]
    exit_id = icfg.procs["f"].exits[0]
    call_exit = call.return_map.pop(exit_id)
    call.return_map[icfg.main_entry()] = call_exit
    with pytest.raises(VerificationError,
                       match="return_map key .* is not an exit"):
        verify_icfg(icfg)


def test_invariant6_entry_with_non_call_in_edge_named():
    icfg = build(SOURCE)
    entry = icfg.procs["f"].entries[0]
    nop = [n for n in icfg.iter_nodes()
           if isinstance(n, NopNode) and n.proc == "f"][0]
    for edge in list(icfg.succ_edges(nop.id)):
        icfg.remove_edge(edge)
    icfg.add_edge(nop.id, entry, EdgeKind.NORMAL)
    with pytest.raises(VerificationError, match="non-CALL in-edges"):
        verify_icfg(icfg)


def test_invariant6_exit_with_non_return_out_edge_named():
    icfg = build(SOURCE)
    exit_id = icfg.procs["f"].exits[0]
    nop = [n for n in icfg.iter_nodes()
           if isinstance(n, NopNode) and n.proc == "f"][0]
    icfg.add_edge(exit_id, nop.id, EdgeKind.NORMAL)
    with pytest.raises(VerificationError, match="non-RETURN out-edges"):
        verify_icfg(icfg)


# ---------------------------------------------------------------------------
# The edit frontier (``verify_icfg(icfg, since=mark)``).  One case per
# invariant class: a transaction breaks the invariant through the
# mutators (or, where only a raw write can, through a logged one) and
# the frontier check must reject the graph.
# ---------------------------------------------------------------------------


def frontier_rejects(icfg, mark, match):
    with pytest.raises(VerificationError, match=match):
        verify_icfg(icfg, since=mark)


def nop_of(icfg, proc):
    return [n for n in icfg.iter_nodes()
            if isinstance(n, NopNode) and n.proc == proc][0]


def call_of(icfg):
    return [n for n in icfg.iter_nodes() if isinstance(n, CallNode)][0]


def test_frontier_accepts_an_untouched_and_a_well_formed_edit():
    icfg = build(SOURCE)
    mark = icfg.begin()
    verify_icfg(icfg, since=mark)
    nop = nop_of(icfg, "f")
    copy = icfg.duplicate_node(nop)
    for edge in icfg.pred_edges(nop.id):
        icfg.remove_edge(edge)
        icfg.add_edge(edge.src, copy.id, edge.kind)
    icfg.add_edge(copy.id, icfg.only_succ(nop.id), EdgeKind.NORMAL)
    icfg.remove_node(nop.id)
    verify_icfg(icfg, since=mark)


def test_frontier_invariant1_dangling_edge():
    icfg = build(SOURCE)
    mark = icfg.begin()
    victim = nop_of(icfg, "f").id
    icfg.note_item(icfg.nodes, victim)
    del icfg.nodes[victim]
    frontier_rejects(icfg, mark, "unknown node")


def test_frontier_invariant2_unknown_procedure():
    icfg = build(SOURCE)
    mark = icfg.begin()
    icfg.add_node(NopNode(icfg.new_id(), "nowhere"))
    frontier_rejects(icfg, mark, "unknown procedure 'nowhere'")


def test_frontier_invariant2_cross_procedure_edge():
    icfg = build(SOURCE)
    mark = icfg.begin()
    nop = nop_of(icfg, "f")
    for edge in icfg.succ_edges(nop.id):
        icfg.remove_edge(edge)
    icfg.add_edge(nop.id, icfg.procs["main"].exits[0], EdgeKind.NORMAL)
    frontier_rejects(icfg, mark, "crosses procedures")


def test_frontier_invariant3_branch_and_flowthrough_arity():
    icfg = build(SOURCE)
    mark = icfg.begin()
    branch = branch_of(icfg)
    for edge in icfg.succ_edges(branch.id):
        if edge.kind is EdgeKind.TRUE:
            icfg.remove_edge(edge)
    frontier_rejects(icfg, mark, rf"branch {branch.id} has out-edges")
    icfg.rollback(mark)
    nop = nop_of(icfg, "f")
    for edge in icfg.succ_edges(nop.id):
        icfg.remove_edge(edge)
    frontier_rejects(icfg, mark, "expected exactly one NORMAL")


def test_frontier_invariant4_call_site_normal_form():
    icfg = build(SOURCE)
    mark = icfg.begin()
    call = call_of(icfg)
    for edge in icfg.succ_edges(call.id):
        if edge.kind is EdgeKind.LOCAL:
            icfg.remove_edge(edge)
    frontier_rejects(icfg, mark, "no call-site exit")
    icfg.rollback(mark)
    call_exit = [n for n in icfg.iter_nodes()
                 if isinstance(n, CallExitNode)][0]
    icfg.remove_edge([e for e in icfg.pred_edges(call_exit.id)
                      if e.kind is EdgeKind.RETURN][0])
    frontier_rejects(icfg, mark, "call-exit")
    icfg.rollback(mark)
    icfg.set_call_entry(call, icfg.procs["f"].exits[0])
    frontier_rejects(icfg, mark, "is not an entry of")


def test_frontier_invariant5_return_maps():
    icfg = build(SOURCE)
    mark = icfg.begin()
    call = call_of(icfg)
    exit_id = icfg.procs["f"].exits[0]
    icfg.set_return(call, exit_id, 999999)
    frontier_rejects(icfg, mark, "return_map")
    icfg.rollback(mark)
    call_exit = call.return_map[exit_id]
    icfg.set_return(call, exit_id, None)
    icfg.set_return(call, icfg.main_entry(), call_exit)
    frontier_rejects(icfg, mark, "return_map key .* is not an exit")


def test_frontier_rechecks_calls_into_an_edited_callee():
    """Splitting the callee's exit without touching the caller leaves
    the caller's return map incomplete.  Only the callee is dirty, so
    the frontier must reach the caller through the callee's entry."""
    icfg = build(SOURCE)
    mark = icfg.begin()
    exit_node = icfg.nodes[icfg.procs["f"].exits[0]]
    copy = icfg.duplicate_node(exit_node)
    moved = icfg.pred_edges(exit_node.id)[0]
    icfg.remove_edge(moved)
    icfg.add_edge(moved.src, copy.id, moved.kind)
    assert icfg.edited_since(mark)[1] == {"f"}
    frontier_rejects(icfg, mark, "lacks return addresses")


def test_frontier_invariant6_entry_and_exit_edges():
    icfg = build(SOURCE)
    mark = icfg.begin()
    entry = icfg.procs["f"].entries[0]
    nop = nop_of(icfg, "f")
    for edge in icfg.succ_edges(nop.id):
        icfg.remove_edge(edge)
    icfg.add_edge(nop.id, entry, EdgeKind.NORMAL)
    frontier_rejects(icfg, mark, "non-CALL in-edges")
    icfg.rollback(mark)
    icfg.add_edge(icfg.procs["f"].exits[0], nop.id, EdgeKind.NORMAL)
    frontier_rejects(icfg, mark, "non-RETURN out-edges")


def test_frontier_falls_back_when_the_log_cannot_bound_the_edit():
    icfg = build(SOURCE)
    mark = icfg.begin()
    icfg.mark_all_dirty()
    exits = icfg.procs["f"].exits
    icfg.note_list(exits)
    exits.clear()
    assert icfg.edited_since(mark) is None
    frontier_rejects(icfg, mark, "no exit")
