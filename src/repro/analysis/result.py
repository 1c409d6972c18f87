"""Analysis results: answers at the conditional plus cost/benefit data.

A :class:`CorrelationResult` is the analysis-phase product for one
conditional: whether it was analyzable, the answers collected at it, the
full per-node answer map (which the restructuring consumes), and the
cost accounting.  Terminology follows the paper:

- *some correlation*: TRUE or FALSE appears among the answers — the
  outcome is known along at least one incoming path;
- *full correlation*: every answer is TRUE or FALSE — the outcome is
  known along all paths and the conditional can be eliminated entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional

from repro.analysis.answers import Answer, format_answers
from repro.analysis.engine import AnalysisStats, CorrelationEngine
from repro.analysis.query import Query
from repro.analysis.rollback import AnswerMap, answers_at
from repro.ir.icfg import ICFG


@dataclass
class CorrelationResult:
    """Everything the analysis learned about one conditional branch."""

    icfg: ICFG
    branch_id: int
    initial_query: Optional[Query]
    engine: Optional[CorrelationEngine]
    answers: AnswerMap = field(default_factory=dict)
    stats: AnalysisStats = field(default_factory=AnalysisStats)

    # -- basic classification ------------------------------------------------

    @property
    def analyzable(self) -> bool:
        """The predicate had the ``(v relop c)`` shape we can query."""
        return self.initial_query is not None

    @property
    def branch_answers(self) -> FrozenSet[Answer]:
        if self.initial_query is None:
            return frozenset()
        return answers_at(self.answers, self.branch_id, self.initial_query)

    @property
    def has_correlation(self) -> bool:
        """Outcome known along some (not necessarily all) paths."""
        return any(a.is_known for a in self.branch_answers)

    @property
    def fully_correlated(self) -> bool:
        """Outcome known along *all* paths reaching the conditional."""
        answers = self.branch_answers
        return bool(answers) and all(a.is_known for a in answers)

    # -- introspection ------------------------------------------------------

    def visited_node_count(self) -> int:
        if self.engine is None:
            return 0
        return len(self.engine.raised)

    def describe(self) -> str:
        if not self.analyzable:
            return f"branch {self.branch_id}: not analyzable"
        return (f"branch {self.branch_id}: query {self.initial_query} -> "
                f"{format_answers(self.branch_answers)} "
                f"({self.stats.pairs_examined} pairs examined"
                f"{', budget exhausted' if self.stats.budget_exhausted else ''})")

