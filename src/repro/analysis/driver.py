"""One-call front door for the correlation analysis."""

from __future__ import annotations

from typing import Optional

from repro.analysis.config import AnalysisConfig
from repro.analysis.engine import CorrelationEngine
from repro.analysis.result import CorrelationResult
from repro.analysis.rollback import collect_answers
from repro.errors import AnalysisError
from repro.ir.icfg import ICFG
from repro.ir.nodes import BranchNode


def analyze_branch(icfg: ICFG, branch_id: int,
                   config: Optional[AnalysisConfig] = None,
                   engine: Optional[CorrelationEngine] = None
                   ) -> CorrelationResult:
    """Analyze one conditional: backward query propagation + rollback.

    Pass a shared ``engine`` to reuse its query cache across conditionals
    (paper §3.3's O(C*N*V) caching variant).  The caller must not modify
    the graph between analyses sharing an engine.
    """
    from repro import obs
    node = icfg.nodes.get(branch_id)
    if not isinstance(node, BranchNode):
        raise AnalysisError(f"node {branch_id} is not a conditional branch")
    with obs.span("analysis.correlation", branch=branch_id,
                  proc=node.proc) as span:
        reuse = engine is not None
        if engine is None:
            engine = CorrelationEngine(icfg, config)
        initial = engine.analyze(node, reuse_cache=reuse)
        if initial is None:
            span.set(analyzable=False)
            obs.add("analysis.branches_unanalyzable")
            return CorrelationResult(icfg, branch_id, None, None)
        answers = collect_answers(engine)
        span.set(pairs=engine.stats.pairs_examined,
                 budget_exhausted=engine.stats.budget_exhausted)
    obs.add("analysis.branches_analyzed")
    obs.add("analysis.pairs_examined", engine.stats.pairs_examined)
    if engine.stats.budget_exhausted:
        obs.add("analysis.budget_exhaustions")
    return CorrelationResult(icfg, branch_id, initial, engine,
                             answers=answers, stats=engine.stats)

