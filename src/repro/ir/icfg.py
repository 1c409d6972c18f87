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
and predecessor indices are updated together.
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
        #: Monotonically-increasing mutation counter.  Every structural
        #: mutation bumps it, so ``generation`` equality between two
        #: points in time proves the graph was not touched in between —
        #: the validity token for every cached analysis.
        self.generation: int = 0
        #: proc name -> generation of its last structural change.  A
        #: name may outlive its procedure (``remove_unreachable`` can
        #: delete procs); staleness queries must tolerate that.
        self._proc_touched: Dict[str, int] = {}

    # -- mutation tracking ---------------------------------------------------

    def _touch(self, *procs: str) -> None:
        """Record a structural mutation affecting ``procs``."""
        self.generation += 1
        for proc in procs:
            self._proc_touched[proc] = self.generation

    def mark_all_dirty(self) -> None:
        """Declare out-of-band mutation of unknown extent (e.g. fault
        injection that bypasses the mutator methods): every procedure is
        considered touched and the generation advances."""
        self.generation += 1
        for name in self.procs:
            self._proc_touched[name] = self.generation
        for name in self._proc_touched:
            self._proc_touched[name] = self.generation

    def dirty_procs_since(self, generation: int) -> Set[str]:
        """Names of procedures structurally changed after ``generation``
        (including procedures deleted since then)."""
        return {name for name, gen in self._proc_touched.items()
                if gen > generation}

    # -- construction -------------------------------------------------------

    def add_proc(self, info: ProcInfo) -> None:
        if info.name in self.procs:
            raise LoweringError(f"duplicate procedure {info.name!r}")
        self.procs[info.name] = info

    def add_node(self, node: Node) -> Node:
        if node.id in self.nodes:
            raise LoweringError(f"duplicate node id {node.id}")
        self.nodes[node.id] = node
        self._succs[node.id] = []
        self._preds[node.id] = []
        self._ids.reserve_through(node.id)
        self._touch(node.proc)
        return node

    def new_id(self) -> int:
        return self._ids.allocate()

    def add_edge(self, src: int, dst: int, kind: EdgeKind) -> Edge:
        edge = Edge(src, dst, kind)
        if edge in self._succs[src]:
            raise LoweringError(f"duplicate edge {edge}")
        self._succs[src].append(edge)
        self._preds[dst].append(edge)
        self._touch(self.nodes[src].proc, self.nodes[dst].proc)
        return edge

    def remove_edge(self, edge: Edge) -> None:
        self._succs[edge.src].remove(edge)
        self._preds[edge.dst].remove(edge)
        self._touch(self.nodes[edge.src].proc, self.nodes[edge.dst].proc)

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
        self._touch(node.proc)
        info = self.procs.get(node.proc)
        if info is not None:
            if node_id in info.entries:
                info.entries.remove(node_id)
            if node_id in info.exits:
                info.exits.remove(node_id)

    def duplicate_node(self, node: Node) -> Node:
        """Register a copy of ``node`` under a fresh id (no edges).

        Entry/exit copies are appended to their procedure's entry/exit
        lists — duplication of those nodes *is* entry/exit splitting.
        """
        copy = node.copy_with_id(self.new_id())
        self.add_node(copy)
        info = self.procs[node.proc]
        if isinstance(node, EntryNode):
            info.entries.append(copy.id)
        elif isinstance(node, ExitNode):
            info.exits.append(copy.id)
        return copy

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

    def proc_nodes(self, proc: str) -> Iterator[Node]:
        for node in self.iter_nodes():
            if node.proc == proc:
                yield node

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
        doomed = [nid for nid in self.nodes if nid not in reachable]
        for node_id in doomed:
            self.remove_node(node_id)
        # Prune return maps of entries/exits that vanished.
        for node in self.nodes.values():
            if isinstance(node, CallNode):
                node.return_map = {ex: ce for ex, ce in node.return_map.items()
                                   if ex in self.nodes and ce in self.nodes}
        # Procedures whose every node vanished (fully inlined or never
        # called) no longer exist.
        populated = {node.proc for node in self.nodes.values()}
        for name in list(self.procs):
            if name not in populated and name != self.main:
                del self.procs[name]
                self._touch(name)
        return len(doomed)

    def clone(self) -> "ICFG":
        """Deep structural copy preserving every node id."""
        other = ICFG(self.main)
        other.globals = dict(self.globals)
        for name, info in self.procs.items():
            other.procs[name] = info.copy()
        for node_id, node in self.nodes.items():
            copy = node.copy_with_id(node_id)
            other.nodes[node_id] = copy
            other._succs[node_id] = []
            other._preds[node_id] = []
        for edges in self._succs.values():
            for edge in edges:
                other._succs[edge.src].append(edge)
                other._preds[edge.dst].append(edge)
        other._ids = self._ids.clone()
        other.generation = self.generation
        other._proc_touched = dict(self._proc_touched)
        return other
