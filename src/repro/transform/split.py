"""Answer-driven node splitting (the engine of paper Fig. 8).

Given one analyzed conditional, every node hosting queries is replaced
by one copy per *assignment* — a choice of one answer for each hosted
query (cross product, paper §3.1's duplication bound).  Edges are then
re-derived so that a copy only receives control from predecessors whose
own assignment yields exactly the copy's answers; this is the paper's
``fix-edges`` discipline expressed constructively.  The uniqueness of
the compatible target makes every non-branch copy keep out-degree one,
which is why restructuring never duplicates *operations along a path*.

Call-site exit nodes are special (paper Fig. 4 lines 14-26 / Fig. 7):
they are rebuilt per (call copy, exit copy) pair with freshly wired
LOCAL/RETURN edges and return maps, and their answers are *derived*:
from the exit copy's summary answer when it is TRUE/FALSE/UNDEF, from
the call copy's continuation answer when the callee was transparent.
Pairs whose derivation is contradictory (a transparent path entering
through an entry this call does not invoke) are provably unreachable
and are simply not built.

Entry and exit copies land in their procedure's entry/exit lists —
that *is* entry/exit splitting; callers' CALL edges and ``entry_id``
fields are re-pointed during the generic wiring pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.answers import Answer, UNDEF
from repro.analysis.engine import (CallExitDisposition, CorrelationEngine,
                                   DecidedDisposition, PerEdgeDisposition)
from repro.analysis.query import Query
from repro.analysis.rollback import AnswerMap
from repro.errors import TransformError
from repro.ir.icfg import Edge, EdgeKind, ICFG
from repro.ir.nodes import CallExitNode, CallNode, EntryNode, ExitNode, Node
from repro.robustness.runtime import checkpoint

#: A choice of one answer per hosted query.
Assignment = Tuple[Tuple[Query, Answer], ...]


def _make_assignment(pairs: Dict[Query, Answer]) -> Assignment:
    return tuple(sorted(pairs.items(),
                        key=lambda item: item[0].sort_key()))


@dataclass
class CloneSet:
    """All copies of one original node, keyed by assignment."""

    original: Node
    clones: Dict[Assignment, Node] = field(default_factory=dict)

    def lookup(self, assignment: Assignment) -> Node:
        try:
            return self.clones[assignment]
        except KeyError:
            raise TransformError(
                f"no copy of node {self.original.id} for assignment "
                f"{[(str(q), str(a)) for q, a in assignment]}")


@dataclass
class SplitOutcome:
    """What the splitter produced (consumed by elimination/cleanup)."""

    #: assignment-keyed copies of every visited non-call-exit node
    clone_sets: Dict[int, CloneSet]
    #: rebuilt call-site exits: original id -> list of copies
    call_exit_clones: Dict[int, List[Node]]
    #: new node id -> original node id (for pipeline bookkeeping)
    cloned_from: Dict[int, int]
    #: copies of the analyzed conditional with their answer for the query
    branch_copies: List[Tuple[Node, Answer]]


class Splitter:
    """Performs one conditional's restructuring on a working graph."""

    def __init__(self, icfg: ICFG, engine: CorrelationEngine,
                 answers: AnswerMap, branch_id: int,
                 initial_query: Query) -> None:
        self.icfg = icfg
        self.engine = engine
        self.answers = answers
        self.branch_id = branch_id
        self.initial_query = initial_query
        self.clone_sets: Dict[int, CloneSet] = {}
        self.call_exit_clones: Dict[int, List[Node]] = {}
        self.call_exit_assignments: Dict[int, Dict[Query, Answer]] = {}
        self.cloned_from: Dict[int, int] = {}
        self._doomed_originals: List[int] = []

    # -- queries about the analysis --------------------------------------------

    def hosted(self, node_id: int) -> Tuple[Query, ...]:
        return tuple(self.engine.raised.get(node_id, ()))

    def answer_set(self, node_id: int, query: Query) -> Tuple[Answer, ...]:
        found = self.answers.get((node_id, query), frozenset())
        if not found:
            # No answers can only happen on unreachable regions; give the
            # copy a consistent placeholder so wiring stays total.
            return (UNDEF,)
        return tuple(sorted(found, key=Answer.sort_key))

    def is_visited(self, node_id: int) -> bool:
        return bool(self.engine.raised.get(node_id))

    # -- main entry point --------------------------------------------------------

    def split(self) -> SplitOutcome:
        visited = [nid for nid in sorted(self.engine.raised)
                   if self.engine.raised[nid] and nid in self.icfg.nodes]
        plain_visited = [nid for nid in visited
                         if not isinstance(self.icfg.nodes[nid], CallExitNode)]

        for node_id in plain_visited:
            checkpoint("transform:split", self.icfg)
            self._make_clones(node_id)

        self._rebuild_call_exits()
        self._wire_generic_edges()
        self._delete_originals()

        branch_copies = self._collect_branch_copies()
        return SplitOutcome(clone_sets=self.clone_sets,
                            call_exit_clones=self.call_exit_clones,
                            cloned_from=self.cloned_from,
                            branch_copies=branch_copies)

    # -- phase 1: copies of visited nodes ---------------------------------------

    def _make_clones(self, node_id: int) -> None:
        node = self.icfg.nodes[node_id]
        queries = self.hosted(node_id)
        per_query = [self.answer_set(node_id, q) for q in queries]
        clone_set = CloneSet(original=node)
        for combo in itertools.product(*per_query):
            assignment = _make_assignment(dict(zip(queries, combo)))
            copy = self.icfg.duplicate_node(node)
            self.cloned_from[copy.id] = node_id
            clone_set.clones[assignment] = copy
        self.clone_sets[node_id] = clone_set
        self._doomed_originals.append(node_id)

    # -- phase 2: call-site exits -----------------------------------------------

    def _call_exit_needs_rebuild(self, node: CallExitNode) -> bool:
        call_id = self.icfg.call_pred_of_call_exit(node.id)
        exit_id = self.icfg.exit_pred_of_call_exit(node.id)
        return (self.is_visited(node.id) or call_id in self.clone_sets
                or exit_id in self.clone_sets)

    def _rebuild_call_exits(self) -> None:
        """Rebuild, in id order, every call-site exit the split touches:
        the visited ones and the LOCAL/RETURN successors of split call
        and exit nodes."""
        nodes = self.icfg.nodes
        candidates = {node_id for node_id, hosted in self.engine.raised.items()
                      if hosted and isinstance(nodes.get(node_id),
                                               CallExitNode)}
        for node_id in self.clone_sets:
            for edge in self.icfg.succ_edges(node_id):
                if edge.kind is EdgeKind.LOCAL or edge.kind is EdgeKind.RETURN:
                    candidates.add(edge.dst)
        for node_id in sorted(candidates):
            node = nodes[node_id]
            if (isinstance(node, CallExitNode)
                    and self._call_exit_needs_rebuild(node)):
                self._rebuild_one_call_exit(node)

    def _candidates(self, node_id: int) -> List[Tuple[Node, Assignment]]:
        """Copies of a node with their assignments ([original, ()] when
        the node was not split)."""
        clone_set = self.clone_sets.get(node_id)
        if clone_set is None:
            return [(self.icfg.nodes[node_id], ())]
        return [(copy, assignment)
                for assignment, copy in clone_set.clones.items()]

    def _rebuild_one_call_exit(self, node: CallExitNode) -> None:
        call_id = self.icfg.call_pred_of_call_exit(node.id)
        exit_id = self.icfg.exit_pred_of_call_exit(node.id)
        copies: List[Node] = []
        for call_copy, call_assignment in self._candidates(call_id):
            assert isinstance(call_copy, CallNode)
            # The copy's return map is rebuilt from scratch below; drop
            # entries inherited from the original.
            self.icfg.set_return(call_copy, exit_id, None)
            for exit_copy, exit_assignment in self._candidates(exit_id):
                derived = self._derive_call_exit_assignment(
                    node, dict(call_assignment), dict(exit_assignment))
                if derived is None:
                    continue  # provably unreachable (call, exit) pairing
                fresh = self.icfg.duplicate_node(node)
                self.cloned_from[fresh.id] = node.id
                self.icfg.add_edge(call_copy.id, fresh.id, EdgeKind.LOCAL)
                self.icfg.add_edge(exit_copy.id, fresh.id, EdgeKind.RETURN)
                self.icfg.set_return(call_copy, exit_copy.id, fresh.id)
                self.call_exit_assignments[fresh.id] = derived
                copies.append(fresh)
        self.call_exit_clones[node.id] = copies
        self._doomed_originals.append(node.id)

    def _derive_call_exit_assignment(
            self, node: CallExitNode, call_assignment: Dict[Query, Answer],
            exit_assignment: Dict[Query, Answer]
    ) -> Optional[Dict[Query, Answer]]:
        """Answers a call-site exit copy hosts, given its call copy's and
        exit copy's assignments; None if the pairing is unreachable."""
        derived: Dict[Query, Answer] = {}
        for query in self.hosted(node.id):
            disposition = self.engine.dispositions.get((node.id, query))
            if disposition is None:
                derived[query] = UNDEF  # budget-truncated pair
                continue
            if isinstance(disposition, DecidedDisposition):
                derived[query] = disposition.answer
                continue
            if not isinstance(disposition, CallExitDisposition):
                raise TransformError(
                    f"call-exit {node.id} has unexpected disposition "
                    f"{type(disposition).__name__}")
            if disposition.local_query is not None:
                derived[query] = self._assigned(call_assignment,
                                                disposition.call_id,
                                                disposition.local_query)
                continue
            assert disposition.summary_query is not None
            summary_answer = self._assigned(exit_assignment,
                                            disposition.exit_id,
                                            disposition.summary_query)
            if not summary_answer.is_trans:
                derived[query] = summary_answer
                continue
            key = (disposition.call_id, summary_answer.trans_query,
                   disposition.outer_tag)
            continuation = self.engine.cont_table.get(key)
            if continuation is None:
                return None  # transparent path enters via another entry
            if isinstance(continuation, Answer):
                derived[query] = continuation
            else:
                derived[query] = self._assigned(call_assignment,
                                                disposition.call_id,
                                                continuation)
        return derived

    def _assigned(self, assignment: Dict[Query, Answer],
                  node_id: Optional[int], query: Query) -> Answer:
        if query in assignment:
            return assignment[query]
        # The neighbour was not split (single combination): read its
        # unique answer directly.
        assert node_id is not None
        answers = self.answer_set(node_id, query)
        if len(answers) != 1:
            raise TransformError(
                f"query {query} at unsplit node {node_id} has "
                f"{len(answers)} answers")
        return answers[0]

    # -- phase 3: generic edge wiring ------------------------------------------------

    def _source_copies(self, node_id: int) -> List[Tuple[Node,
                                                         Dict[Query, Answer]]]:
        """Copies of ``node_id`` acting as edge sources, with assignments."""
        if node_id in self.clone_sets:
            return [(copy, dict(assignment)) for assignment, copy
                    in self.clone_sets[node_id].clones.items()]
        if node_id in self.call_exit_clones:
            return [(copy, self.call_exit_assignments[copy.id])
                    for copy in self.call_exit_clones[node_id]]
        return [(self.icfg.nodes[node_id], {})]

    def _wire_generic_edges(self) -> None:
        """Re-derive every original edge incident to a split node, in
        source-id order and then successor-list order.  Fresh copies
        and LOCAL/RETURN edges (rebuilt by the call-exit phase) do not
        drive wiring; edges between untouched nodes survive as they
        are."""
        touched = set(self.clone_sets) | set(self.call_exit_clones)
        sources = set(touched)
        for node_id in touched:
            sources.update(edge.src for edge in self.icfg.pred_edges(node_id)
                           if edge.src not in self.cloned_from)
        original_edges: List[Edge] = []
        for node_id in sorted(sources):
            source_touched = node_id in touched
            for edge in self.icfg.succ_edges(node_id):
                if edge.kind in (EdgeKind.LOCAL, EdgeKind.RETURN):
                    continue
                if edge.dst in self.cloned_from:
                    continue
                if source_touched or edge.dst in touched:
                    original_edges.append(edge)

        for edge in original_edges:
            for source_copy, source_assignment in self._source_copies(edge.src):
                target = self._target_copy(edge, source_assignment)
                if not self.icfg.has_edge(source_copy.id, target.id, edge.kind):
                    self.icfg.add_edge(source_copy.id, target.id, edge.kind)
                if (edge.kind is EdgeKind.CALL
                        and isinstance(source_copy, CallNode)
                        and source_copy.entry_id != target.id):
                    self.icfg.set_call_entry(source_copy, target.id)

    def _target_copy(self, edge: Edge, source_assignment: Dict[Query, Answer]
                     ) -> Node:
        """The unique copy of ``edge.dst`` compatible with the source copy."""
        if edge.dst not in self.clone_sets:
            return self.icfg.nodes[edge.dst]
        required: Dict[Query, Answer] = {}
        for query in self.hosted(edge.dst):
            disposition = self.engine.dispositions.get((edge.dst, query))
            if disposition is None:
                required[query] = UNDEF
                continue
            if isinstance(disposition, DecidedDisposition):
                required[query] = disposition.answer
                continue
            if not isinstance(disposition, PerEdgeDisposition):
                raise TransformError(
                    f"node {edge.dst} has unexpected disposition for wiring")
            contribution = None
            for contrib in disposition.contribs:
                if contrib.edge == edge:
                    contribution = contrib
                    break
            if contribution is None:
                raise TransformError(
                    f"edge {edge} missing from contributions of query "
                    f"{query} at node {edge.dst}")
            if contribution.answer is not None:
                required[query] = contribution.answer
            else:
                assert contribution.pred_query is not None
                required[query] = self._assigned(source_assignment,
                                                 edge.src,
                                                 contribution.pred_query)
        return self.clone_sets[edge.dst].lookup(_make_assignment(required))

    # -- phase 4: cleanup ---------------------------------------------------------

    def _delete_originals(self) -> None:
        for node_id in self._doomed_originals:
            if node_id in self.icfg.nodes:
                self.icfg.remove_node(node_id)

    def _collect_branch_copies(self) -> List[Tuple[Node, Answer]]:
        clone_set = self.clone_sets.get(self.branch_id)
        if clone_set is None:
            return []
        copies: List[Tuple[Node, Answer]] = []
        for assignment, copy in clone_set.clones.items():
            answer = dict(assignment)[self.initial_query]
            copies.append((copy, answer))
        return copies
