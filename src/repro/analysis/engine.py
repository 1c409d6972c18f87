"""The demand-driven correlation analysis worklist (paper Fig. 4).

One :class:`CorrelationEngine` analyzes one conditional branch.  It
seeds the worklist with the branch's own query and propagates backwards:

- ordinary nodes resolve via :func:`~repro.analysis.resolve.node_transfer`
  or forward the (possibly back-substituted) query to predecessors, with
  branch assertions applied per incoming edge;
- procedure entries either split the query out to every call site
  (non-summary queries, rewriting parameters to arguments) or resolve to
  TRANS (summary queries), recording the surviving variant;
- call-site exits look up / create *summary-node entries*: the query is
  rewritten into the callee (return-value binding → the callee's
  ``$ret``), raised at the procedure exit as a summary query, and every
  TRANS variant that survives to the callee's entry is continued at the
  call node (paper Fig. 4 lines 14-26).  Queries on variables the callee
  cannot touch bypass it along the LOCAL edge.

Every processed ``(node, query)`` pair gets a *disposition* recording
how its answers derive from its neighbours; the rollback phase
(:mod:`repro.analysis.rollback`) runs a forward fixpoint over these
dispositions, and the restructuring phase wires node copies using the
same per-edge records.

The node-query-pair budget (Fig. 4 line 5, §4) stops the worklist;
anything still pending resolves conservatively to UNDEF.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.answers import Answer, UNDEF, from_bool, trans
from repro.analysis.config import AnalysisConfig
from repro.analysis.query import Query
from repro.analysis.resolve import (Decided, Proceed, arg_index_of_param,
                                    edge_assertion, entry_param_contribution,
                                    node_transfer)
from repro.analysis.modref import transitive_mod_sets
from repro.errors import AnalysisError
from repro.ir.expr import VarId
from repro.ir.icfg import Edge, EdgeKind, ICFG
from repro.ir.nodes import BranchNode, CallExitNode, CallNode, EntryNode
from repro.robustness.runtime import checkpoint
from repro.utils.ordered import OrderedSet
from repro.utils.worklist import Worklist

NodeQuery = Tuple[int, Query]


# --------------------------------------------------------------------------
# Dispositions: how the answers of a hosted (node, query) pair derive.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeContribution:
    """One incoming edge's share of a pair's answers: either an answer
    decided on the edge itself, or the query raised at the edge's source."""

    edge: Edge
    answer: Optional[Answer] = None
    pred_query: Optional[Query] = None

    def __post_init__(self) -> None:
        if (self.answer is None) == (self.pred_query is None):
            raise AnalysisError("contribution needs exactly one of "
                                "answer/pred_query")


@dataclass(frozen=True)
class DecidedDisposition:
    """The pair is a source: the node itself decides the query."""

    answer: Answer


@dataclass(frozen=True)
class PerEdgeDisposition:
    """Answers are the union of per-incoming-edge contributions."""

    contribs: Tuple[EdgeContribution, ...]


@dataclass(frozen=True)
class CallExitDisposition:
    """Answers at a call-site exit (paper Fig. 4 lines 14-26).

    Either a pure bypass (``local_query`` raised at the call node: the
    callee cannot affect the variable) or a summary lookup
    (``summary_query`` raised at ``exit_id``; TRANS variants continue at
    the call node via the engine's continuation table, keyed by this
    pair's own summary tag ``outer_tag``).
    """

    call_id: int
    local_query: Optional[Query] = None
    exit_id: Optional[int] = None
    summary_query: Optional[Query] = None
    outer_tag: Optional[int] = None


Disposition = Union[DecidedDisposition, PerEdgeDisposition,
                    CallExitDisposition]

#: Continuation key: (call node id, surviving variant, outer summary tag).
ContKey = Tuple[int, Query, Optional[int]]


@dataclass
class AnalysisStats:
    """Cost accounting for one conditional (Table 2 raw material)."""

    pairs_examined: int = 0
    queries_raised: int = 0
    budget_exhausted: bool = False
    summary_entries_created: int = 0
    cache_hits: int = 0


class CorrelationEngine:
    """Demand-driven correlation analysis for a single ICFG."""

    def __init__(self, icfg: ICFG,
                 config: Optional[AnalysisConfig] = None) -> None:
        self.icfg = icfg
        self.config = config if config is not None else AnalysisConfig()
        self._mod_sets = None  # lazy; only the intraprocedural mode needs it

        # Per-analysis state (reset by analyze()).
        self.raised: Dict[int, OrderedSet[Query]] = {}
        self.dispositions: Dict[NodeQuery, Disposition] = {}
        self.worklist: Worklist[NodeQuery] = Worklist()
        self.cont_table: Dict[ContKey, Union[Answer, Query]] = {}
        self._trans_records: Dict[int, OrderedSet[Tuple[int, Query]]] = {}
        self._exit_dependents: Dict[int, OrderedSet[Tuple[int, Optional[int]]]] = {}
        self._pre_existing: frozenset = frozenset()
        self.stats = AnalysisStats()

    # -- public API ---------------------------------------------------------

    def analyze(self, branch: BranchNode,
                reuse_cache: bool = False) -> Optional[Query]:
        """Run the worklist for ``branch``; returns the initial query, or
        None when the predicate is not in analyzable ``(v relop c)`` form.

        Results live on the engine afterwards (``raised``,
        ``dispositions``, ``cont_table``, ``stats``); feed them to
        :func:`repro.analysis.rollback.collect_answers`.

        With ``reuse_cache=True`` the pairs resolved by previous
        analyses on this engine are kept (the query cache of paper
        §3.3): a query already raised at a node is not re-processed.
        Only valid while the graph is unmodified; the default wipes all
        state, which is what the paper's implementation settled on
        ("maintaining the cache proved counterproductive... due to
        increased memory requirements").
        """
        pattern = branch.correlation_pattern()
        if pattern is None:
            return None
        var, relop, const = pattern
        initial = Query(var, relop, const)

        if not reuse_cache:
            self.raised = {}
            self.dispositions = {}
            self.cont_table = {}
            self._trans_records = {}
            self._exit_dependents = {}
        self.worklist = Worklist()
        self.stats = AnalysisStats()
        self._pre_existing = (frozenset(self.dispositions)
                              if reuse_cache else frozenset())

        self._raise(branch.id, initial)
        while self.worklist:
            if self.stats.pairs_examined >= self.config.budget:
                self.stats.budget_exhausted = True
                break
            node_id, query = self.worklist.pop()
            self.stats.pairs_examined += 1
            checkpoint("analysis:pair", self.icfg)
            self._process(node_id, query)
        return initial

    # -- worklist plumbing ------------------------------------------------------

    def _raise(self, node_id: int, query: Query) -> None:
        """Paper Fig. 4 ``raise_query``: dedup via Q[n]."""
        queries = self.raised.setdefault(node_id, OrderedSet())
        if queries.add(query):
            self.stats.queries_raised += 1
            self.worklist.push((node_id, query))
            return
        key = (node_id, query)
        if key in self.dispositions:
            if key in self._pre_existing:
                self.stats.cache_hits += 1
            return
        # Raised earlier but never processed (a previous analysis ran
        # out of budget, or it is pending): (re)queue it.
        self.worklist.push(key)

    # -- node processing ---------------------------------------------------------

    def _process(self, node_id: int, query: Query) -> None:
        node = self.icfg.nodes[node_id]
        if isinstance(node, EntryNode):
            self._process_entry(node, query)
        elif isinstance(node, CallExitNode):
            self._process_call_exit(node, query)
        else:
            self._process_plain(node_id, query)

    def _process_plain(self, node_id: int, query: Query) -> None:
        node = self.icfg.nodes[node_id]
        transfer = node_transfer(self.icfg, node, query, self.config)
        if isinstance(transfer, Decided):
            self.dispositions[(node_id, query)] = DecidedDisposition(
                transfer.answer)
            return
        assert isinstance(transfer, Proceed)
        pre_query = transfer.query
        pred_edges = self.icfg.pred_edges(node_id)
        if not pred_edges:
            # A plain node with no predecessors is dead code; nothing
            # can be asserted about paths reaching it.
            self.dispositions[(node_id, query)] = DecidedDisposition(UNDEF)
            return
        contribs: List[EdgeContribution] = []
        for edge in pred_edges:
            verdict = edge_assertion(self.icfg, edge, pre_query, self.config)
            if verdict is not None:
                contribs.append(EdgeContribution(edge,
                                                 answer=from_bool(verdict)))
            else:
                contribs.append(EdgeContribution(edge, pred_query=pre_query))
                self._raise(edge.src, pre_query)
        self.dispositions[(node_id, query)] = PerEdgeDisposition(
            tuple(contribs))

    # -- procedure entries ---------------------------------------------------

    def _process_entry(self, node: EntryNode, query: Query) -> None:
        info = self.icfg.procs[node.proc]
        var = query.var
        is_param = var in info.params
        is_local = (var.scope == node.proc) and not is_param

        if is_local:
            # MiniC locals (incl. $ret and temporaries) are definitely
            # zero at entry, so the query resolves exactly.
            self.dispositions[(node.id, query)] = DecidedDisposition(
                from_bool(query.holds_for(0)))
            return

        if query.is_summary:
            # Paper Fig. 4 line 7: summary queries stop at the entry with
            # TRANS; record the surviving variant for continuations.
            answer = trans(node.id, query)
            self.dispositions[(node.id, query)] = DecidedDisposition(answer)
            self._record_trans(query.summary_exit, node.id, query)
            return

        pred_edges = [e for e in self.icfg.pred_edges(node.id)
                      if e.kind is EdgeKind.CALL]
        if not pred_edges:
            self.dispositions[(node.id, query)] = DecidedDisposition(
                self._program_start_answer(query))
            return

        if node.id == self.icfg.main_entry():
            # A *recursive* main: control reaches this entry both from
            # call sites and from program start, but only the former
            # appear as edges.  Resolve conservatively rather than miss
            # the startup path.
            self.dispositions[(node.id, query)] = DecidedDisposition(UNDEF)
            return

        if not self.config.interprocedural:
            # Baseline: queries never leave the procedure.
            self.dispositions[(node.id, query)] = DecidedDisposition(UNDEF)
            return

        contribs: List[EdgeContribution] = []
        for edge in pred_edges:
            call = self.icfg.nodes[edge.src]
            assert isinstance(call, CallNode)
            if var.is_global:
                contribs.append(EdgeContribution(edge, pred_query=query))
                self._raise(call.id, query)
                continue
            index = arg_index_of_param(self.icfg, node.proc, var)
            if index is None:
                raise AnalysisError(
                    f"query {query} at entry of {node.proc!r} is neither "
                    f"global, local, nor parameter")
            outcome = entry_param_contribution(call, index, query, self.config)
            if isinstance(outcome, Answer):
                contribs.append(EdgeContribution(edge, answer=outcome))
            else:
                assert isinstance(outcome, Query)
                contribs.append(EdgeContribution(edge, pred_query=outcome))
                self._raise(call.id, outcome)
        self.dispositions[(node.id, query)] = PerEdgeDisposition(
            tuple(contribs))

    def _program_start_answer(self, query: Query) -> Answer:
        """An entry with no callers is the program's start (main)."""
        if query.var.is_global and self.config.resolve_initialized_globals:
            initial = self.icfg.globals.get(query.var, 0)
            return from_bool(query.holds_for(initial))
        return UNDEF

    # -- call-site exits ---------------------------------------------------------

    def _process_call_exit(self, node: CallExitNode, query: Query) -> None:
        call_id = self.icfg.call_pred_of_call_exit(node.id)
        exit_id = self.icfg.exit_pred_of_call_exit(node.id)
        call = self.icfg.nodes[call_id]
        assert isinstance(call, CallNode)

        # The call-site exit binds the return value; rewrite a query on
        # the bound variable into the callee's return slot.
        inner = query
        if node.result is not None and query.var == node.result:
            inner = Query(VarId.ret(call.callee), query.relop, query.const,
                          summary_exit=query.summary_exit)

        caller_local = (inner.var.scope == node.proc)
        if caller_local:
            # The callee cannot observe or modify the caller's locals:
            # the call is transparent for this query.
            self.dispositions[(node.id, query)] = CallExitDisposition(
                call_id=call_id, local_query=inner)
            self._raise(call_id, inner)
            return

        if not self.config.interprocedural:
            if inner.var.is_global and inner.var not in self._mod(call.callee):
                # MOD/USE summary at call sites (paper §4): the callee
                # provably never writes this global.
                self.dispositions[(node.id, query)] = CallExitDisposition(
                    call_id=call_id, local_query=inner)
                self._raise(call_id, inner)
            else:
                self.dispositions[(node.id, query)] = DecidedDisposition(UNDEF)
            return

        # Interprocedural: go through the callee via a summary query.
        summary_query = Query(inner.var, inner.relop, inner.const,
                              summary_exit=exit_id)
        if summary_query not in self.raised.get(exit_id, ()):
            self.stats.summary_entries_created += 1
        self._raise(exit_id, summary_query)
        self.dispositions[(node.id, query)] = CallExitDisposition(
            call_id=call_id, exit_id=exit_id, summary_query=summary_query,
            outer_tag=query.summary_exit)
        self._register_dependent(exit_id, call, query.summary_exit)

    def _mod(self, proc: str):
        if self._mod_sets is None:
            self._mod_sets = transitive_mod_sets(self.icfg)
        return self._mod_sets.get(proc, set())

    # -- TRANS continuations (paper Fig. 4 lines 21-26) --------------------------

    def _register_dependent(self, exit_id: int, call: CallNode,
                            outer_tag: Optional[int]) -> None:
        dependents = self._exit_dependents.setdefault(exit_id, OrderedSet())
        if dependents.add((call.id, outer_tag)):
            for entry_id, variant in self._trans_records.get(exit_id,
                                                             OrderedSet()):
                if entry_id == call.entry_id:
                    self._raise_continuation(call, variant, outer_tag)

    def _record_trans(self, exit_id: Optional[int], entry_id: int,
                      variant: Query) -> None:
        assert exit_id is not None
        records = self._trans_records.setdefault(exit_id, OrderedSet())
        if records.add((entry_id, variant)):
            for call_id, outer_tag in self._exit_dependents.get(exit_id,
                                                                OrderedSet()):
                call = self.icfg.nodes[call_id]
                assert isinstance(call, CallNode)
                if call.entry_id == entry_id:
                    self._raise_continuation(call, variant, outer_tag)

    def _raise_continuation(self, call: CallNode, variant: Query,
                            outer_tag: Optional[int]) -> None:
        """Continue a transparent path's surviving query in the caller.

        The continuation re-enters the caller's context, so it carries
        the *outer* summary tag (None for the original caller context).
        """
        key = (call.id, variant, outer_tag)
        if key in self.cont_table:
            return
        base = Query(variant.var, variant.relop, variant.const,
                     summary_exit=outer_tag)
        if variant.var.is_global:
            self.cont_table[key] = base
            self._raise(call.id, base)
            return
        index = arg_index_of_param(self.icfg, call.callee, variant.var)
        if index is None:
            # A callee-local variant cannot be TRANS (entries resolve
            # locals exactly); defensively resolve unknown.
            self.cont_table[key] = UNDEF
            return
        outcome = entry_param_contribution(call, index, base, self.config)
        if isinstance(outcome, Answer):
            self.cont_table[key] = outcome
        else:
            assert isinstance(outcome, Query)
            self.cont_table[key] = outcome
            self._raise(call.id, outcome)
