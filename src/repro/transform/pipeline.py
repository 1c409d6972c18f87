"""The whole-program ICBE optimizer.

Optimizes conditionals one by one, exactly as the paper does: for each
conditional, run the demand-driven analysis, check the duplication
bound against the per-conditional limit, and restructure when the gate
passes (§4 "Eliminated Branches").  The analysis is re-run on the
current (possibly already restructured) graph each time — the paper
notes the analysis must work on restructured programs with multiple
entries/exits, and ours does.

Each conditional is optimized at most once.  Copies of an
already-processed conditional created by later transformations inherit
its processed status; copies of *unprocessed* conditionals are new
conditionals in their own right and get their own turn.

Every conditional's trip is a *transaction* on the graph's undo log:
the attempt runs under the active resource guard and fault plan, and
any failure — an escaped exception, a blown budget,
a verifier rejection, or a differential-trace mismatch on the accepted
result — rolls back that one conditional and the run continues.  The
public contract of :meth:`ICBEOptimizer.optimize` is therefore total in
non-strict mode: it always returns, the returned graph always passes
:func:`~repro.ir.verify.verify_icfg`, and it is never half-mutated.
Strict mode re-raises the first failure instead (for debugging).

The run itself is structured as a pass pipeline (see
:mod:`repro.transform.passes`): restructure → simplify → final
validation, sharing one
:class:`~repro.analysis.context.AnalysisContext` whose cached analyses
are invalidated incrementally after each committed transaction.  Each
conditional is analyzed once, in place, and restructured in place from
that analysis; the result equals
:func:`~repro.transform.restructure.restructure_branch` on a clone of
the graph the transaction began on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import obs
from repro.analysis.config import AnalysisConfig
from repro.analysis.context import AnalysisContext, CacheStats
from repro.interp.profile import Profile, RemappedProfile
from repro.interp.workload import Workload
from repro.ir.icfg import ICFG, UndoMark
from repro.robustness.diffcheck import DiffReport
from repro.robustness.faults import FaultPlan
from repro.robustness.report import (DiagnosticsBundle, capture_bundle,
                                     write_bundle)
from repro.transform.restructure import BranchOutcome, RestructureResult


@dataclass
class OptimizerOptions:
    """Optimizer-level knobs (the analysis has its own config)."""

    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    #: Paper Fig. 11's per-conditional duplication limit N (None = ∞).
    duplication_limit: Optional[int] = None
    #: Overall safety cap: stop optimizing when the graph exceeds this
    #: multiple of its original node count (None = uncapped).
    max_growth_factor: Optional[float] = None
    #: Compact forwarding/eliminated-branch nops after optimizing (the
    #: paper notes eliminated conditionals become removable empty nodes).
    simplify: bool = True
    #: Profile-guided benefit gate (paper §4's "better heuristic"): skip
    #: a conditional unless its estimated eliminated executions amount
    #: to at least ``min_benefit_per_node`` per duplicated node.  Both
    #: fields must be set for the gate to apply.
    profile: Optional["Profile"] = None
    min_benefit_per_node: Optional[float] = None
    #: Strict mode re-raises the first per-conditional failure instead
    #: of rolling back and continuing (debugging aid).
    strict: bool = False
    #: Run differential trace validation after every accepted transform
    #: and once more at pipeline end; mismatches roll the transform back.
    #: The input runs once per workload per optimize run.
    diff_check: bool = False
    #: Workload battery for differential validation (None = a seeded
    #: default battery of ``diff_runs`` random streams plus the empty
    #: stream).
    diff_workloads: Optional[List[Workload]] = None
    diff_seed: int = 0
    diff_runs: int = 3
    #: Per-conditional wall-clock deadline in seconds (None = ∞),
    #: enforced cooperatively at analysis/transform checkpoints.
    deadline_s: Optional[float] = None
    #: Per-conditional node-growth guard: abort one conditional's
    #: transaction when the working graph exceeds this multiple of its
    #: pre-transaction node count (None = unguarded).
    guard_growth_factor: Optional[float] = None
    #: Deterministic fault plan for robustness drills (None = no faults).
    fault_plan: Optional[FaultPlan] = None
    #: Spill a diagnostics bundle per failure into this directory
    #: (None = keep bundles in memory on the report only).
    diagnostics_dir: Optional[str] = None
    #: Degradation-ladder hook (see :mod:`repro.robustness.degrade`):
    #: which ladder tier these options encode.  Purely descriptive here —
    #: tier *semantics* are expressed through the other fields — but the
    #: optimizer stamps it onto the report so a batch supervisor (and
    #: its journal) can attribute every result to the tier that made it.
    tier: int = 0
    tier_name: str = "full"


@dataclass
class BranchRecord:
    """One conditional's trip through the optimizer."""

    branch_id: int
    outcome: BranchOutcome
    duplication_bound: int = 0
    node_growth: int = 0
    eliminated_copies: int = 0
    pairs_examined: int = 0
    budget_exhausted: bool = False
    failure: str = ""


@dataclass
class OptimizationReport:
    """Summary of a whole-program optimization run."""

    optimized: ICFG
    records: List[BranchRecord] = field(default_factory=list)
    diagnostics: List[DiagnosticsBundle] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0
    executable_before: int = 0
    executable_after: int = 0
    conditionals_before: int = 0
    conditionals_after: int = 0
    elapsed_seconds: float = 0.0
    #: Analysis-context counters for the run (reuses, invalidations,
    #: commits, rollbacks).
    cache: CacheStats = field(default_factory=CacheStats)
    #: Degradation-ladder tier the run executed at (stamped from
    #: :attr:`OptimizerOptions.tier`; 0/"full" outside batch runs).
    tier: int = 0
    tier_name: str = "full"

    @property
    def optimized_count(self) -> int:
        """How many conditionals were successfully optimized."""
        return sum(1 for r in self.records
                   if r.outcome is BranchOutcome.OPTIMIZED)

    @property
    def failed_count(self) -> int:
        """Conditionals whose transaction aborted on an exception."""
        return sum(1 for r in self.records
                   if r.outcome is BranchOutcome.FAILED)

    @property
    def rolled_back_count(self) -> int:
        """Accepted transforms discarded by differential validation."""
        return sum(1 for r in self.records
                   if r.outcome is BranchOutcome.ROLLED_BACK)

    def outcome_counts(self) -> Dict[str, int]:
        """Per-branch outcome tally, keyed by outcome value string."""
        counts: Dict[str, int] = {}
        for record in self.records:
            key = record.outcome.value
            counts[key] = counts.get(key, 0) + 1
        return counts

    @property
    def node_growth(self) -> int:
        """Net node-count change of the whole run."""
        return self.nodes_after - self.nodes_before

    @property
    def growth_percent(self) -> float:
        """Net node growth as a percentage of the input size."""
        if self.nodes_before == 0:
            return 0.0
        return 100.0 * self.node_growth / self.nodes_before

    def total_pairs_examined(self) -> int:
        """Node-query pairs examined across every conditional."""
        return sum(r.pairs_examined for r in self.records)


class ICBEOptimizer:
    """Interprocedural (or, as the baseline, intraprocedural)
    conditional branch elimination over a whole ICFG."""

    def __init__(self, options: Optional[OptimizerOptions] = None) -> None:
        self.options = options if options is not None else OptimizerOptions()

    def optimize(self, icfg: ICFG) -> OptimizationReport:
        """Optimize every analyzable conditional; the input is untouched.

        Non-strict mode (the default) never raises and never returns a
        half-mutated graph: every per-conditional failure is rolled
        back, recorded as a :class:`BranchRecord`, and attached to the
        report as a diagnostics bundle.
        """
        from repro.transform.passes import PipelineState, \
            build_default_pipeline

        started = time.perf_counter()
        opts = self.options
        current = icfg.clone()
        current.sort_predecessors()
        report = OptimizationReport(
            optimized=current,
            nodes_before=icfg.node_count(),
            executable_before=icfg.executable_node_count(),
            conditionals_before=icfg.conditional_node_count(),
            tier=opts.tier, tier_name=opts.tier_name)

        context = AnalysisContext()
        context.bind(current)
        gate_profile = None
        origin: Dict[int, int] = {}
        if opts.profile is not None:
            gate_profile = RemappedProfile(opts.profile, origin)
        growth_cap = None
        if opts.max_growth_factor is not None:
            growth_cap = int(icfg.node_count() * opts.max_growth_factor)

        state = PipelineState(optimizer=self, original=icfg, current=current,
                              report=report, context=context, origin=origin,
                              gate_profile=gate_profile,
                              growth_cap=growth_cap)
        with obs.span("optimize", nodes=report.nodes_before,
                      conditionals=report.conditionals_before,
                      tier=opts.tier_name):
            state = build_default_pipeline().run(state)
        current = state.current

        report.optimized = current
        report.cache = context.stats
        report.nodes_after = current.node_count()
        report.executable_after = current.executable_node_count()
        report.conditionals_after = current.conditional_node_count()
        report.elapsed_seconds = time.perf_counter() - started
        self._publish_metrics(report)
        return report

    @staticmethod
    def _publish_metrics(report: "OptimizationReport") -> None:
        """Feed the run's report counters (and the analysis context's
        cache counters) into the active metrics registry.  Everything
        published here is deterministic — derived from the work done,
        never from how long it took."""
        if not obs.enabled():
            return
        obs.add("optimize.runs")
        obs.add("optimize.conditionals_before", report.conditionals_before)
        obs.add("optimize.optimized", report.optimized_count)
        obs.add("optimize.failed", report.failed_count)
        obs.add("optimize.rolled_back", report.rolled_back_count)
        obs.add("optimize.pairs_examined", report.total_pairs_examined())
        obs.gauge("optimize.nodes_before", report.nodes_before)
        obs.gauge("optimize.nodes_after", report.nodes_after)
        obs.gauge("optimize.node_growth", report.node_growth)
        report.cache.publish()

    # -- helpers -------------------------------------------------------------

    def _node_cap(self, mark: UndoMark) -> Optional[int]:
        """The per-transaction node budget, if growth-guarded."""
        factor = self.options.guard_growth_factor
        if factor is None:
            return None
        return int(mark.node_count * factor)

    def _diagnose(self, report: OptimizationReport, branch_id: int,
                  phase: str, exc: Optional[BaseException] = None,
                  icfg: Optional[ICFG] = None,
                  diff: Optional[DiffReport] = None) -> None:
        """Capture (and optionally spill) a diagnostics bundle."""
        bundle = capture_bundle(branch_id, phase, exc=exc, icfg=icfg,
                                diff=diff)
        report.diagnostics.append(bundle)
        if self.options.diagnostics_dir is not None:
            write_bundle(bundle, self.options.diagnostics_dir)

    @staticmethod
    def _record(result: RestructureResult) -> BranchRecord:
        stats = result.analysis.stats if result.analysis is not None else None
        return BranchRecord(
            branch_id=result.branch_id,
            outcome=result.outcome,
            duplication_bound=result.duplication_bound,
            node_growth=result.node_growth if result.applied else 0,
            eliminated_copies=result.eliminated_copies,
            pairs_examined=stats.pairs_examined if stats else 0,
            budget_exhausted=stats.budget_exhausted if stats else False,
            failure=result.failure)
