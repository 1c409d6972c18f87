"""Rollback: collect resolved answers forward along traversed paths.

After the backward worklist terminates, every hosted ``(node, query)``
pair has a disposition describing where its answers come from.  This
module runs the forward fixpoint the paper calls *rollback* (§3.1):
starting at pairs whose queries were resolved, answers propagate along
the reverse of the propagation edges and merge by set union at control
flow merge points.

Unprocessed pairs (budget exhaustion) contribute ``{UNDEF}``.

TRANS expansion happens here for call-site exits: a TRANS answer at the
callee's exit names the entry and surviving variant; the continuation
table maps it to either an immediate answer or the caller-side query at
the call node, whose answers then flow in (paper Fig. 4 lines 25-26).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from repro.analysis.answers import Answer, UNDEF
from repro.analysis.engine import (CallExitDisposition, CorrelationEngine,
                                   DecidedDisposition, NodeQuery,
                                   PerEdgeDisposition)
from repro.analysis.query import Query
from repro.utils.worklist import Worklist

AnswerMap = Dict[NodeQuery, FrozenSet[Answer]]


def collect_answers(engine: CorrelationEngine) -> AnswerMap:
    """Compute ``A[n, q]`` for every hosted pair of the last analysis."""
    answers: Dict[NodeQuery, Set[Answer]] = {}
    dependents: Dict[NodeQuery, Set[NodeQuery]] = {}

    all_pairs: List[NodeQuery] = []
    for node_id, queries in engine.raised.items():
        for query in queries:
            all_pairs.append((node_id, query))

    for pair in all_pairs:
        if pair not in engine.dispositions:
            # Raised but never processed: the budget ran out (Fig. 4
            # line 5's early termination) — conservatively unknown.
            answers[pair] = {UNDEF}
        else:
            answers[pair] = set()

    def depend(source: NodeQuery, sink: NodeQuery) -> None:
        dependents.setdefault(source, set()).add(sink)

    def answers_of(pair: NodeQuery, sink: NodeQuery) -> Set[Answer]:
        depend(pair, sink)
        return answers.get(pair, {UNDEF})

    def compute(pair: NodeQuery) -> Set[Answer]:
        disposition = engine.dispositions.get(pair)
        if disposition is None:
            return {UNDEF}
        if isinstance(disposition, DecidedDisposition):
            return {disposition.answer}
        if isinstance(disposition, PerEdgeDisposition):
            result: Set[Answer] = set()
            for contrib in disposition.contribs:
                if contrib.answer is not None:
                    result.add(contrib.answer)
                else:
                    assert contrib.pred_query is not None
                    result |= answers_of((contrib.edge.src,
                                          contrib.pred_query), pair)
            return result
        assert isinstance(disposition, CallExitDisposition)
        if disposition.local_query is not None:
            return set(answers_of((disposition.call_id,
                                   disposition.local_query), pair))
        assert disposition.exit_id is not None
        assert disposition.summary_query is not None
        result = set()
        summary_answers = answers_of(
            (disposition.exit_id, disposition.summary_query), pair)
        for answer in summary_answers:
            if not answer.is_trans:
                result.add(answer)
                continue
            assert answer.trans_query is not None
            key = (disposition.call_id, answer.trans_query,
                   disposition.outer_tag)
            continuation = engine.cont_table.get(key)
            if continuation is None:
                # The surviving variant reached an entry this call does
                # not invoke: that transparent path cannot pass through
                # this call site, so it contributes nothing here.
                continue
            if isinstance(continuation, Answer):
                result.add(continuation)
            else:
                assert isinstance(continuation, Query)
                result |= answers_of((disposition.call_id, continuation),
                                     pair)
        return result

    worklist: Worklist[NodeQuery] = Worklist(all_pairs)
    while worklist:
        pair = worklist.pop()
        fresh = compute(pair)
        if not fresh <= answers[pair]:
            answers[pair] |= fresh
            for sink in dependents.get(pair, ()):
                worklist.push(sink)

    return {pair: frozenset(values) for pair, values in answers.items()}


def answers_at(answer_map: AnswerMap, node_id: int,
               query: Query) -> FrozenSet[Answer]:
    """The answer set for (node, query), defaulting to {UNDEF}."""
    return answer_map.get((node_id, query), frozenset({UNDEF}))
