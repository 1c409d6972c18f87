"""The interprocedural control flow graph (ICFG).

The ICFG combines every procedure's CFG and connects call sites with
procedure entries and exits (paper Fig. 3).  It is kept in *call-site
normal form*:

- each call node has exactly one procedure-entry successor (CALL edge)
  plus one LOCAL edge per associated call-site exit node;
- each call-site exit node has exactly one call-node predecessor (LOCAL)
  and one procedure-exit predecessor (RETURN).

Procedures may own multiple entry and exit nodes — that is the whole
point of entry/exit splitting — so :class:`ProcInfo` tracks lists.

The graph owns all mutation: nodes never hold edges, and the successor
and predecessor indices are updated together.  That is what makes
transactions cheap: between :meth:`ICFG.begin` and :meth:`ICFG.commit`
every mutator appends an undo record, so :meth:`ICFG.rollback` costs
what the transaction edited, and the log names the nodes and
procedures whose well-formedness the edit can have changed (the
verifier's *frontier*).  The log is the graph's only record of change.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.errors import LoweringError
from repro.ir.expr import VarId
from repro.ir.nodes import (AssignNode, BranchNode, CallExitNode, CallNode,
                            EntryNode, ExitNode, Node, NopNode)
from repro.utils.ids import IdAllocator

#: Undo-record tags.  A record is a tuple led by its tag; the remaining
#: items are what :meth:`ICFG.rollback` needs to reverse the edit.
_NODE_ADDED = "node-added"        # node id
_NODE_REMOVED = "node-removed"    # node, entry-list index, exit-list index
_EDGE_ADDED = "edge-added"        # edge
_EDGE_REMOVED = "edge-removed"    # edge, successor index, predecessor index
_LISTED = "listed"                # node id, the entry/exit list it joined
_PROC_ADDED = "proc-added"        # name
_PROC_DELETED = "proc-deleted"    # ProcInfo, position in ``procs``
_FIELD_SET = "field-set"          # object, attribute, old value
_ITEM_SET = "item-set"            # mapping, key, old value (or _ABSENT)
_LIST_SET = "list-set"            # list, old contents
_ALL_DIRTY = "all-dirty"          # (nothing: the extent is unknown)

_ABSENT = object()


@unique
class EdgeKind(Enum):
    """How control (or analysis information) flows along an edge."""

    NORMAL = "normal"    # ordinary intraprocedural fallthrough
    TRUE = "true"        # branch taken
    FALSE = "false"      # branch not taken
    CALL = "call"        # call node -> procedure entry
    LOCAL = "local"      # call node -> call-site exit (bypass bookkeeping)
    RETURN = "return"    # procedure exit -> call-site exit

    def __str__(self) -> str:
        return self.value


#: Edge kinds a walker follows for *intraprocedural* control flow.
INTRA_KINDS = (EdgeKind.NORMAL, EdgeKind.TRUE, EdgeKind.FALSE)

@dataclass(frozen=True)
class Edge:
    """A directed edge; identity is the full (src, dst, kind) triple."""

    src: int
    dst: int
    kind: EdgeKind

    def __str__(self) -> str:
        return f"{self.src} -{self.kind}-> {self.dst}"


@dataclass
class ProcInfo:
    """Per-procedure bookkeeping the graph structure does not encode."""

    name: str
    params: List[VarId] = field(default_factory=list)
    locals: List[VarId] = field(default_factory=list)
    entries: List[int] = field(default_factory=list)
    exits: List[int] = field(default_factory=list)

    @property
    def ret_var(self) -> VarId:
        return VarId.ret(self.name)

    def copy(self) -> "ProcInfo":
        return ProcInfo(self.name, list(self.params), list(self.locals),
                        list(self.entries), list(self.exits))


@dataclass(frozen=True)
class UndoMark:
    """Where a transaction began: :meth:`ICFG.rollback` returns here.

    Everything the undo log does not record per edit is captured once,
    in constant space.
    """

    #: Undo-log length at the mark.
    depth: int
    #: The id the allocator would hand out next.
    next_id: int
    node_count: int


class ICFG:
    """Whole-program interprocedural CFG in call-site normal form."""

    def __init__(self, main: str = "main") -> None:
        self.main = main
        self.nodes: Dict[int, Node] = {}
        self.procs: Dict[str, ProcInfo] = {}
        self.globals: Dict[VarId, int] = {}
        self._succs: Dict[int, List[Edge]] = {}
        self._preds: Dict[int, List[Edge]] = {}
        self._ids = IdAllocator()
        #: The open transaction's undo log (None outside transactions).
        self._undo: Optional[List[tuple]] = None

    def mark_all_dirty(self) -> None:
        """Declare out-of-band mutation of unknown extent (e.g. fault
        injection that bypasses the mutator methods): from here on the
        open transaction's log cannot bound its edit."""
        if self._undo is not None:
            self._undo.append((_ALL_DIRTY,))

    # -- transactions -----------------------------------------------------------

    def begin(self) -> UndoMark:
        """Open a transaction (or, inside one, a savepoint) and return
        its mark.  From now until :meth:`commit`, every mutator logs how
        to undo itself."""
        if self._undo is None:
            self._undo = []
        return UndoMark(len(self._undo), self._ids.next_id, len(self.nodes))

    def commit(self) -> int:
        """End the open transaction, keeping its edits; returns how many
        undo records it dropped.  A no-op outside a transaction."""
        log, self._undo = self._undo, None
        return len(log) if log is not None else 0

    def rollback(self, mark: UndoMark) -> int:
        """Undo every edit made since ``mark``; returns how many undo
        records were replayed.

        The graph ends up exactly as :meth:`begin` found it: adjacency
        and entry/exit lists in their old order, node objects and their
        fields, and the id allocator.  The transaction stays open;
        :meth:`commit` ends it.  Nodes are kept
        in id order (ids are allocated ascending), so a rollback that
        revives removed nodes re-sorts the node tables.
        """
        log = self._undo
        if log is None:
            raise RuntimeError("rollback outside a transaction")
        records = log[mark.depth:]
        del log[mark.depth:]
        resort = False
        for record in reversed(records):
            tag = record[0]
            if tag is _EDGE_ADDED:
                edge = record[1]
                self._succs[edge.src].pop()
                self._preds[edge.dst].pop()
            elif tag is _EDGE_REMOVED:
                edge, at_src, at_dst = record[1:]
                self._succs[edge.src].insert(at_src, edge)
                self._preds[edge.dst].insert(at_dst, edge)
            elif tag is _NODE_ADDED:
                node_id = record[1]
                del self.nodes[node_id]
                del self._succs[node_id]
                del self._preds[node_id]
            elif tag is _NODE_REMOVED:
                node, entry_at, exit_at = record[1:]
                self.nodes[node.id] = node
                self._succs[node.id] = []
                self._preds[node.id] = []
                info = self.procs.get(node.proc)
                if exit_at >= 0:
                    info.exits.insert(exit_at, node.id)
                if entry_at >= 0:
                    info.entries.insert(entry_at, node.id)
                resort = True
            elif tag is _LISTED:
                record[2].pop()
            elif tag is _FIELD_SET:
                setattr(record[1], record[2], record[3])
            elif tag is _ITEM_SET:
                mapping, key, old = record[1:]
                if old is _ABSENT:
                    del mapping[key]
                else:
                    mapping[key] = old
                resort = resort or mapping is self.nodes
            elif tag is _LIST_SET:
                record[1][:] = record[2]
            elif tag is _PROC_ADDED:
                del self.procs[record[1]]
            elif tag is _PROC_DELETED:
                info, position = record[1:]
                items = list(self.procs.items())
                items.insert(position, (info.name, info))
                self.procs.clear()
                self.procs.update(items)
        if resort:
            for table in (self.nodes, self._succs, self._preds):
                ordered = sorted(table.items(), key=lambda item: item[0])
                table.clear()
                table.update(ordered)
        self._ids = IdAllocator(mark.next_id)
        return len(records)

    def changed_since(self, mark: UndoMark) -> bool:
        """Whether the open transaction logged any edit since ``mark``."""
        return self._undo is not None and len(self._undo) > mark.depth

    def edited_since(self, mark: UndoMark
                     ) -> Optional[Tuple[Set[int], Set[str]]]:
        """What the open transaction's log names since ``mark``: the ids
        of the nodes added, removed, re-wired or written, and the names
        of the procedures whose nodes or edges were added or removed
        (deleted procedures included; an edge names the procedures of
        both endpoints).  None when the log cannot bound the edit —
        outside a transaction, or once :meth:`mark_all_dirty` declared
        mutation of unknown extent."""
        log = self._undo
        if log is None:
            return None
        named: Set[int] = set()
        # Nodes whose own edges or existence changed; a node removed
        # since names its procedure through its removal record.
        structural: Set[int] = set()
        procs: Set[str] = set()
        for index in range(mark.depth, len(log)):
            record = log[index]
            tag = record[0]
            if tag is _EDGE_ADDED or tag is _EDGE_REMOVED:
                structural.add(record[1].src)
                structural.add(record[1].dst)
            elif tag is _NODE_ADDED:
                structural.add(record[1])
            elif tag is _LISTED:
                named.add(record[1])
            elif tag is _NODE_REMOVED:
                named.add(record[1].id)
                procs.add(record[1].proc)
            elif tag is _PROC_DELETED:
                procs.add(record[1].name)
            elif tag is _FIELD_SET:
                if isinstance(record[1], Node):
                    named.add(record[1].id)
            elif tag is _ITEM_SET:
                if record[1] is self.nodes:
                    key = record[2]
                    named.add(key)
                    named.update(e.dst for e in self._succs.get(key, ()))
                    named.update(e.src for e in self._preds.get(key, ()))
            elif tag is _LIST_SET:
                named.update(record[2])
            elif tag is _ALL_DIRTY:
                return None
        named |= structural
        nodes = self.nodes
        procs.update(nodes[node_id].proc for node_id in structural
                     if node_id in nodes)
        return named, procs

    # -- logged raw writes --------------------------------------------------------
    #
    # Writes that bypass the mutators (fault injection simulates exactly
    # that kind of bug) announce themselves first, so a rollback still
    # restores the old value.  Outside a transaction they are no-ops.

    def note_field(self, obj: object, attribute: str) -> None:
        """Log ``obj.attribute`` before it is overwritten."""
        if self._undo is not None:
            self._undo.append((_FIELD_SET, obj, attribute,
                               getattr(obj, attribute)))

    def note_item(self, mapping: dict, key: object) -> None:
        """Log ``mapping[key]`` (or its absence) before it changes."""
        if self._undo is not None:
            self._undo.append((_ITEM_SET, mapping, key,
                               mapping.get(key, _ABSENT)))

    def note_list(self, items: list) -> None:
        """Log the contents of ``items`` before it is rewritten."""
        if self._undo is not None:
            self._undo.append((_LIST_SET, items, list(items)))

    # -- construction -------------------------------------------------------
    #
    # Each mutator validates before it writes and logs right after, so
    # a mutator that raises leaves nothing unlogged behind.

    def add_proc(self, info: ProcInfo) -> None:
        if info.name in self.procs:
            raise LoweringError(f"duplicate procedure {info.name!r}")
        self.procs[info.name] = info
        if self._undo is not None:
            self._undo.append((_PROC_ADDED, info.name))

    def add_node(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise LoweringError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        self._succs[node.id] = []
        self._preds[node.id] = []
        if self._undo is not None:
            self._undo.append((_NODE_ADDED, node.id))
        self._ids.reserve_through(node.id)
        return node

    def new_id(self) -> int:
        return self._ids.allocate()

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> Edge:
        edge = Edge(src, dst, kind)
        succs = self._succs[src]
        if edge in succs:
            raise LoweringError(f"duplicate edge {edge}")
        preds = self._preds[dst]
        succs.append(edge)
        preds.append(edge)
        if self._undo is not None:
            self._undo.append((_EDGE_ADDED, edge))
        return edge

    def remove_edge(self, edge: Edge) -> None:
        succs = self._succs[edge.src]
        preds = self._preds[edge.dst]
        at_src = succs.index(edge)
        at_dst = preds.index(edge)
        del succs[at_src]
        del preds[at_dst]
        if self._undo is not None:
            self._undo.append((_EDGE_REMOVED, edge, at_src, at_dst))

    def has_edge(self, src: int, dst: int, kind: EdgeKind) -> bool:
        return Edge(src, dst, kind) in self._succs[src]

    def remove_node(self, node_id: int) -> None:
        """Remove a node and every incident edge."""
        for edge in list(self._succs[node_id]):
            self.remove_edge(edge)
        for edge in list(self._preds[node_id]):
            self.remove_edge(edge)
        node = self.nodes.pop(node_id)
        del self._succs[node_id]
        del self._preds[node_id]
        entry_at = exit_at = -1
        info = self.procs.get(node.proc)
        if info is not None:
            if node_id in info.entries:
                entry_at = info.entries.index(node_id)
                del info.entries[entry_at]
            if node_id in info.exits:
                exit_at = info.exits.index(node_id)
                del info.exits[exit_at]
        if self._undo is not None:
            self._undo.append((_NODE_REMOVED, node, entry_at, exit_at))

    def duplicate_node(self, node: Node) -> Node:
        """Register a copy of ``node`` under a fresh id (no edges).

        Entry/exit copies are appended to their procedure's entry/exit
        lists — duplication of those nodes *is* entry/exit splitting.
        """
        copy = node.copy_with_id(self.new_id())
        self.add_node(copy)
        info = self.procs[node.proc]
        if isinstance(node, EntryNode):
            listed = info.entries
        elif isinstance(node, ExitNode):
            listed = info.exits
        else:
            return copy
        listed.append(copy.id)
        if self._undo is not None:
            self._undo.append((_LISTED, copy.id, listed))
        return copy

    def set_call_entry(self, call: CallNode, entry_id: int) -> None:
        """Point ``call`` at another entry of its callee."""
        self.note_field(call, "entry_id")
        call.entry_id = entry_id

    def set_return(self, call: CallNode, exit_id: int,
                   call_exit_id: Optional[int]) -> None:
        """Make control leaving the callee through ``exit_id`` resume at
        ``call_exit_id``, or with None drop that return address."""
        return_map = dict(call.return_map)
        if call_exit_id is None:
            if return_map.pop(exit_id, None) is None:
                return
        else:
            return_map[exit_id] = call_exit_id
        self.note_field(call, "return_map")
        call.return_map = return_map

    # -- queries ---------------------------------------------------------

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def succ_edges(self, node_id: int) -> Tuple[Edge, ...]:
        return tuple(self._succs[node_id])

    def pred_edges(self, node_id: int) -> Tuple[Edge, ...]:
        return tuple(self._preds[node_id])

    def successors(self, node_id: int) -> Tuple[int, ...]:
        return tuple(e.dst for e in self._succs[node_id])

    def predecessors(self, node_id: int) -> Tuple[int, ...]:
        return tuple(e.src for e in self._preds[node_id])

    def only_succ(self, node_id: int, kind: Optional[EdgeKind] = None) -> int:
        """The unique successor (optionally restricted to one edge kind)."""
        edges = [e for e in self._succs[node_id]
                 if kind is None or e.kind is kind]
        if len(edges) != 1:
            raise LoweringError(
                f"node {node_id} has {len(edges)} successors of kind {kind}")
        return edges[0].dst

    def branch_targets(self, node_id: int) -> Tuple[int, int]:
        """(true_successor, false_successor) of a branch node."""
        true_dst = false_dst = None
        for edge in self._succs[node_id]:
            if edge.kind is EdgeKind.TRUE:
                true_dst = edge.dst
            elif edge.kind is EdgeKind.FALSE:
                false_dst = edge.dst
        if true_dst is None or false_dst is None:
            raise LoweringError(f"branch {node_id} lacks true/false successors")
        return true_dst, false_dst

    def call_exits_of(self, call_id: int) -> Tuple[int, ...]:
        return tuple(e.dst for e in self._succs[call_id]
                     if e.kind is EdgeKind.LOCAL)

    def call_pred_of_call_exit(self, call_exit_id: int) -> int:
        for edge in self._preds[call_exit_id]:
            if edge.kind is EdgeKind.LOCAL:
                return edge.src
        raise LoweringError(f"call-exit {call_exit_id} has no call predecessor")

    def exit_pred_of_call_exit(self, call_exit_id: int) -> int:
        for edge in self._preds[call_exit_id]:
            if edge.kind is EdgeKind.RETURN:
                return edge.src
        raise LoweringError(f"call-exit {call_exit_id} has no exit predecessor")

    def iter_nodes(self) -> Iterator[Node]:
        """All nodes in ascending id order (deterministic)."""
        for node_id in sorted(self.nodes):
            yield self.nodes[node_id]

    def branch_nodes(self) -> List[BranchNode]:
        return [n for n in self.iter_nodes() if isinstance(n, BranchNode)]

    def call_nodes(self) -> List[CallNode]:
        return [n for n in self.iter_nodes() if isinstance(n, CallNode)]

    def main_entry(self) -> int:
        """The original entry of ``main`` (splitting never retargets it:
        the program always starts at entry 0 of main)."""
        return self.procs[self.main].entries[0]

    # -- metrics -------------------------------------------------------------

    def executable_node_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.is_executable)

    def conditional_node_count(self) -> int:
        return sum(1 for n in self.nodes.values() if isinstance(n, BranchNode))

    def node_count(self) -> int:
        return len(self.nodes)

    # -- maintenance -----------------------------------------------------------

    def remove_unreachable(self) -> int:
        """Drop nodes unreachable from main's entries; return count removed.

        Reachability follows control semantics: intraprocedural edges,
        CALL edges, LOCAL edges (a call's return points are reachable if
        the call is).  RETURN edges are *not* followed — a call-site exit
        is justified by its call, not by the callee's exit — but exits
        reachable inside a callee keep their RETURN edges meaningful.
        """
        reachable = set()
        stack = list(self.procs[self.main].entries[:1])
        while stack:
            node_id = stack.pop()
            if node_id in reachable:
                continue
            reachable.add(node_id)
            for edge in self._succs[node_id]:
                if edge.kind is EdgeKind.RETURN:
                    continue
                if edge.dst not in reachable:
                    stack.append(edge.dst)
        nodes = self.nodes
        doomed = [nid for nid in nodes if nid not in reachable]
        for node_id in doomed:
            self.remove_node(node_id)
        # Prune return maps of entries/exits that vanished.
        for node in nodes.values():
            if isinstance(node, CallNode) and not all(
                    ex in nodes and ce in nodes
                    for ex, ce in node.return_map.items()):
                self.note_field(node, "return_map")
                node.return_map = {ex: ce for ex, ce in node.return_map.items()
                                   if ex in nodes and ce in nodes}
        # Procedures whose every node vanished (fully inlined or never
        # called) no longer exist.
        populated = {node.proc for node in nodes.values()}
        for name in list(self.procs):
            if name not in populated and name != self.main:
                if self._undo is not None:
                    position = list(self.procs).index(name)
                    self._undo.append((_PROC_DELETED, self.procs[name],
                                       position))
                del self.procs[name]
        return len(doomed)

    def sort_predecessors(self) -> None:
        """Re-list every node's predecessors in source order: sources in
        node-table (ascending id) order, each source's edges in
        successor-list order.  The optimizer starts from this canonical
        order, so its result does not depend on the order in which the
        input's edges were added."""
        for edges in self._preds.values():
            edges.clear()
        for edges in self._succs.values():
            for edge in edges:
                self._preds[edge.dst].append(edge)

    def clone(self) -> "ICFG":
        """Deep structural copy preserving every node id and the order
        of every adjacency, entry and exit list."""
        other = ICFG(self.main)
        other.globals = dict(self.globals)
        for name, info in self.procs.items():
            other.procs[name] = info.copy()
        for node_id, node in self.nodes.items():
            other.nodes[node_id] = node.copy_with_id(node_id)
            other._succs[node_id] = list(self._succs[node_id])
            other._preds[node_id] = list(self._preds[node_id])
        other._ids = self._ids.clone()
        return other
