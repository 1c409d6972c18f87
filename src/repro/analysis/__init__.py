"""Demand-driven interprocedural correlation analysis (paper §3.1).

Given one conditional branch with predicate ``v relop c``, the analysis
raises the query *"is the outcome of (v relop c) known along some
incoming path?"* and propagates it backwards through the ICFG until it
resolves on every path:

- **TRUE/FALSE** — the path is *correlated*: the branch outcome is known.
- **UNDEF** — the variable receives an unknown value on the path.
- **TRANS(entry, q)** — only for *summary-node queries* computed at
  procedure exits: the procedure is transparent along the path and the
  query survived to ``entry`` as variant ``q`` (to be continued in the
  caller).  We refine the paper's single TRANS answer with the surviving
  variant so that restructuring can route transparent paths precisely.

The analysis is demand driven (only nodes that may lie on a correlated
path are visited), uses summary-node entries at procedure exits
(Duesterwald-Gupta-Soffa framework), honours a node-query-pair budget
(paper §4 uses 1000), and is followed by a *rollback* that collects the
resolved answers forward with set-union merging.
"""

from repro.analysis.answers import (Answer, AnswerSet, FALSE, TRUE, UNDEF,
                                    trans)
from repro.analysis.config import AnalysisConfig, CorrelationSource
from repro.analysis.cost import (duplication_upper_bound,
                                 eliminated_executions_estimate)
from repro.analysis.driver import analyze_branch
from repro.analysis.engine import AnalysisStats, CorrelationEngine
from repro.analysis.facts import ValueSet, decide
from repro.analysis.query import Query
from repro.analysis.result import CorrelationResult
from repro.analysis.rollback import collect_answers

__all__ = [
    "AnalysisConfig", "AnalysisStats", "Answer", "AnswerSet",
    "CorrelationEngine", "CorrelationResult", "CorrelationSource", "FALSE",
    "Query", "TRUE", "UNDEF", "ValueSet", "analyze_branch",
    "collect_answers", "decide", "duplication_upper_bound",
    "eliminated_executions_estimate", "trans",
]
