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

A run is three stages over one :class:`PipelineState`, each under its
``pass.<name>`` span:

1. :func:`restructure` — one transaction per conditional: analyze,
   gate, split, eliminate, remove unreachable, verify; adopt or roll
   back.
2. :func:`simplify` — end-of-run nop compaction, as its own
   transaction.
3. :func:`final_validate` — full structural verification plus the
   optional differential check; a violation rolls the whole run back to
   a pristine clone of the input, and every conditional the run had
   optimized is recorded as rolled back.

Every transaction runs on the live graph's undo log
(:meth:`~repro.ir.icfg.ICFG.begin`, ``commit``, ``rollback``), which is
the graph's only record of change: a rollback replays it, the
post-transform and post-simplify checks re-verify only the nodes it
names (see :func:`~repro.ir.verify.edit_frontier`), and a fruitless
transaction rolls back an empty log.  Each conditional is analyzed once,
in place on the live graph; a verdict that cannot lead to restructuring
is recorded without touching the graph, and a conditional that shows
correlation is restructured in place from that same analysis,
budget-truncated or not.  The reference is
:func:`~repro.transform.restructure.restructure_branch` without
``since`` (clone, fresh analysis, full verification): every fault-free
transaction's record and graph equal it on a clone of the graph the
transaction began on.  It is also the recovery path when a corruption
fault taints the in-place analysis.

Any failure — an escaped exception, a blown budget, a verifier
rejection, or a differential-trace mismatch on the accepted result —
rolls back that one conditional and the run continues.  Every
differential check of one run compares against the same
:class:`~repro.robustness.diffcheck.OriginalRuns`, so the unchanged
input runs once per workload per run.  The public contract of
:meth:`ICBEOptimizer.optimize` is therefore total in non-strict mode: it
always returns, the returned graph always passes
:func:`~repro.ir.verify.verify_icfg`, and it is never half-mutated.
Strict mode re-raises the first failure instead (for debugging).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro import obs
from repro.analysis.config import AnalysisConfig
from repro.analysis.driver import analyze_branch
from repro.errors import DifferentialMismatch, ReproError
from repro.interp.profile import Profile, RemappedProfile
from repro.ir.icfg import ICFG, UndoMark
from repro.ir.nodes import BranchNode
from repro.ir.simplify import simplify_nops
from repro.ir.verify import verify_icfg
from repro.robustness.diffcheck import (DiffReport, OriginalRuns,
                                        differential_check)
from repro.robustness.faults import FaultPlan
from repro.robustness.guards import ResourceGuard
from repro.robustness.report import (DiagnosticsBundle, capture_bundle,
                                     write_bundle)
from repro.robustness.runtime import checkpoint, robustness_context
from repro.transform.restructure import (BranchOutcome, RestructureResult,
                                         restructure_branch)


@dataclass
class OptimizerOptions:
    """Optimizer-level knobs (the analysis has its own config)."""

    config: AnalysisConfig = field(default_factory=AnalysisConfig)
    #: Paper Fig. 11's per-conditional duplication limit N (None = ∞).
    duplication_limit: Optional[int] = None
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
    #: The input runs once per workload per optimize run, over a seeded
    #: battery of random streams plus the empty stream.
    diff_check: bool = False
    diff_seed: int = 0
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

    @classmethod
    def from_result(cls, result: RestructureResult) -> "BranchRecord":
        stats = result.analysis.stats if result.analysis is not None else None
        return cls(
            branch_id=result.branch_id,
            outcome=result.outcome,
            duplication_bound=result.duplication_bound,
            node_growth=result.node_growth if result.applied else 0,
            eliminated_copies=result.eliminated_copies,
            pairs_examined=stats.pairs_examined if stats else 0,
            budget_exhausted=stats.budget_exhausted if stats else False,
            failure=result.failure)


@dataclass(frozen=True)
class CacheStats:
    """Cache counters of a run, all zero: there is no cross-branch
    summary cache and no snapshot to reuse (transactions roll back an
    undo log).  The benchmark's span hook
    (perfbench/hook/perfbench_spans.py) reads all three and drops every
    attribute of its ``transform.optimize`` span when one is missing."""

    summary_hits: int = 0
    summary_misses: int = 0
    snapshot_reuses: int = 0


@dataclass
class OptimizationReport:
    """Summary of a whole-program optimization run."""

    optimized: ICFG
    records: List[BranchRecord] = field(default_factory=list)
    diagnostics: List[DiagnosticsBundle] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0
    conditionals_before: int = 0
    conditionals_after: int = 0
    elapsed_seconds: float = 0.0
    cache: CacheStats = field(default_factory=CacheStats)

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


@dataclass
class PipelineState:
    """Everything a stage may read or advance during one optimizer run."""

    options: OptimizerOptions
    original: ICFG
    current: ICFG
    report: OptimizationReport
    done: Set[int] = field(default_factory=set)
    #: copy id -> original id, composed across transformations, so the
    #: profile-guided benefit gate keeps working on copies.
    origin: Dict[int, int] = field(default_factory=dict)
    #: The benefit gate's profile, read through ``origin``.
    gate_profile: Optional[RemappedProfile] = field(init=False,
                                                    default=None)
    #: ``original``'s observables, each workload run on first use and
    #: reused by every later differential check of this run.
    original_runs: OriginalRuns = field(init=False)

    def __post_init__(self) -> None:
        self.original_runs = OriginalRuns(self.original)
        if self.options.profile is not None:
            self.gate_profile = RemappedProfile(self.options.profile,
                                                self.origin)

    def diff(self, candidate: ICFG) -> DiffReport:
        """Differential check of ``candidate`` against the run's input
        over the seeded battery."""
        return differential_check(self.original_runs, candidate,
                                  seed=self.options.diff_seed)

    def diagnose(self, branch_id: int, phase: str,
                 exc: Optional[BaseException] = None,
                 icfg: Optional[ICFG] = None,
                 diff: Optional[DiffReport] = None) -> None:
        """Capture (and optionally spill) a diagnostics bundle."""
        bundle = capture_bundle(branch_id, phase, exc=exc, icfg=icfg,
                                diff=diff)
        self.report.diagnostics.append(bundle)
        if self.options.diagnostics_dir is not None:
            write_bundle(bundle, self.options.diagnostics_dir)

    # -- transaction discipline ----------------------------------------------

    def heal(self, mark: UndoMark) -> int:
        """Undo out-of-band damage to the live graph and carry on with
        the transaction begun at ``mark``; returns the records replayed."""
        replayed = self.current.rollback(mark)
        obs.add("transform.undo_replayed", replayed)
        return replayed

    def rollback(self, mark: UndoMark) -> None:
        """End the transaction begun at ``mark``, discarding its edits.
        Only a transaction that changed the graph counts as a rollback."""
        if self.heal(mark):
            obs.add("transform.rollbacks")
        self.current.commit()

    def commit(self) -> None:
        """Adopt the live graph's new state."""
        obs.add("transform.undo_records", self.current.commit())


# ---------------------------------------------------------------------------
# Stage 1: per-conditional restructuring, one transaction per conditional.
# ---------------------------------------------------------------------------


def restructure(state: PipelineState) -> None:
    """Give every conditional, copies of unprocessed ones included, its
    transaction, in ascending id order."""
    # Only an adopted transaction changes the graph, so the id list is
    # rebuilt after those alone.
    branch_ids = _branch_ids(state.current)
    while True:
        branch_id = next((bid for bid in branch_ids
                          if bid not in state.done), None)
        if branch_id is None:
            return
        state.done.add(branch_id)
        if _transact(state, branch_id):
            branch_ids = _branch_ids(state.current)


def _branch_ids(icfg: ICFG) -> List[int]:
    return [node.id for node in icfg.iter_nodes()
            if isinstance(node, BranchNode)]


def _transact(state: PipelineState, branch_id: int) -> bool:
    """One conditional's transaction; True when it was adopted."""
    with obs.span("transform.branch", branch=branch_id) as obs_span:
        return _transact_traced(state, branch_id, obs_span)


def _transact_traced(state: PipelineState, branch_id: int,
                     obs_span) -> bool:
    opts = state.options
    mark = state.current.begin()
    factor = opts.guard_growth_factor
    guard = ResourceGuard(
        deadline_s=opts.deadline_s,
        max_nodes=None if factor is None else int(mark.node_count * factor))
    diff: Optional[DiffReport] = None
    try:
        with guard, robustness_context(guard=guard, plan=opts.fault_plan):
            checkpoint("pipeline:branch-start", state.current)
            if state.current.changed_since(mark):
                # A fault corrupted the live graph at the checkpoint:
                # heal before analyzing rather than poisoning this
                # conditional's verdict.
                state.heal(mark)
            result = _attempt(state, branch_id, mark)
            if result.applied and opts.diff_check:
                assert result.new_icfg is not None
                diff = state.diff(result.new_icfg)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as failure:
        if opts.strict:
            raise
        state.rollback(mark)
        state.report.records.append(BranchRecord(
            branch_id=branch_id, outcome=BranchOutcome.FAILED,
            failure=f"{type(failure).__name__}: {failure}"))
        state.diagnose(branch_id, "restructure", exc=failure,
                       icfg=state.current)
        obs_span.set(outcome=BranchOutcome.FAILED.value)
        obs.add("transform.outcome.failed")
        return False

    record = BranchRecord.from_result(result)
    adopted = False
    if result.applied:
        assert result.new_icfg is not None
        if diff is not None and not diff.ok:
            if opts.strict:
                raise DifferentialMismatch(diff.describe())
            record.outcome = BranchOutcome.ROLLED_BACK
            record.failure = diff.describe()
            record.node_growth = 0
            state.diagnose(branch_id, "diff-check", icfg=result.new_icfg,
                           diff=diff)
        else:
            state.current = result.new_icfg
            adopted = True
            for new_id, old_id in result.cloned_from.items():
                state.origin[new_id] = state.origin.get(old_id, old_id)
                if old_id in state.done:
                    state.done.add(new_id)
            state.commit()
    if not adopted:
        # Nothing was accepted, so the pre-transaction state is the
        # truth.  Rolling back to it also heals any corruption of the
        # *live* graph that the conditional's own verdict would
        # otherwise smuggle forward.
        state.rollback(mark)
    state.report.records.append(record)
    obs_span.set(outcome=record.outcome.value)
    obs.add(f"transform.outcome.{record.outcome.value}")
    if adopted:
        obs.add("transform.branches_eliminated", record.eliminated_copies)
        obs.observe("transform.node_growth", record.node_growth)
        obs.observe("transform.duplication_bound", record.duplication_bound)
    return adopted


def _attempt(state: PipelineState, branch_id: int,
             mark: UndoMark) -> RestructureResult:
    """One conditional's analysis and, when it shows correlation,
    restructuring."""
    opts = state.options
    # Analysis in place on the live graph (the analysis never mutates
    # it).
    pre = analyze_branch(state.current, branch_id, opts.config)
    if not pre.analyzable:
        return RestructureResult(
            branch_id=branch_id, outcome=BranchOutcome.NOT_ANALYZABLE,
            analysis=pre, nodes_before=state.current.node_count())
    if state.current.changed_since(mark):
        # A corruption fault fired during the in-place analysis: its
        # verdict is tainted.  Heal, then decide the conditional on a
        # clone with a fresh analysis and full verification.
        state.heal(mark)
        return restructure_branch(
            state.current, branch_id, opts.config, opts.duplication_limit,
            profile=state.gate_profile,
            min_benefit_per_node=opts.min_benefit_per_node)
    # Restructure the live graph in place from the same analysis,
    # budget-truncated or not; a verdict without correlation returns
    # before any edit, and a rollback replays the undo log.
    return restructure_branch(
        state.current, branch_id, opts.config, opts.duplication_limit,
        profile=state.gate_profile,
        min_benefit_per_node=opts.min_benefit_per_node,
        precomputed=pre, since=mark)


# ---------------------------------------------------------------------------
# Stages 2 and 3: end-of-run compaction and validation.
# ---------------------------------------------------------------------------


def simplify(state: PipelineState) -> None:
    """End-of-run nop compaction (the paper notes eliminated
    conditionals become removable empty nodes), as its own
    transaction."""
    opts = state.options
    mark = state.current.begin()
    try:
        with robustness_context(plan=opts.fault_plan):
            checkpoint("pipeline:simplify", state.current)
            simplify_nops(state.current)
            verify_icfg(state.current, since=mark)
    except (KeyboardInterrupt, SystemExit):
        raise
    except Exception as failure:
        if opts.strict:
            raise
        state.rollback(mark)
        state.diagnose(-1, "simplify", exc=failure, icfg=state.current)
        return
    state.commit()


def final_validate(state: PipelineState) -> None:
    """Last line of defence: a full structural verification plus the
    optional differential check.  A violation means a pipeline-level
    fault slipped through every per-conditional net, so the whole run is
    rolled back to a pristine clone of the input — correct, if
    unoptimized — and the records say so."""
    failure = _violation(state)
    if failure is None:
        return
    state.current = state.original.clone()
    for record in state.report.records:
        if record.outcome is BranchOutcome.OPTIMIZED:
            record.outcome = BranchOutcome.ROLLED_BACK
            record.failure = failure
            record.node_growth = 0


def _violation(state: PipelineState) -> Optional[str]:
    """The failed phase and its failure, or None when the graph verifies
    and (when checked) behaves like the input."""
    opts = state.options
    try:
        verify_icfg(state.current)
    except ReproError as failure:
        if opts.strict:
            raise
        state.diagnose(-1, "final-verify", exc=failure, icfg=state.current)
        return f"final-verify: {type(failure).__name__}: {failure}"
    if opts.diff_check:
        diff = state.diff(state.current)
        if not diff.ok:
            if opts.strict:
                raise DifferentialMismatch(diff.describe())
            state.diagnose(-1, "final-diff", icfg=state.current, diff=diff)
            return f"final-diff: {diff.describe()}"
    return None


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
        started = time.perf_counter()
        opts = self.options
        current = icfg.clone()
        current.sort_predecessors()
        report = OptimizationReport(
            optimized=current,
            nodes_before=icfg.node_count(),
            conditionals_before=icfg.conditional_node_count())
        state = PipelineState(options=opts, original=icfg, current=current,
                              report=report)
        with obs.span("optimize", nodes=report.nodes_before,
                      conditionals=report.conditionals_before):
            with obs.span("pass.restructure"):
                restructure(state)
            with obs.span("pass.simplify"):
                simplify(state)
            with obs.span("pass.final-validate"):
                final_validate(state)
        current = state.current

        report.optimized = current
        report.nodes_after = current.node_count()
        report.conditionals_after = current.conditional_node_count()
        report.elapsed_seconds = time.perf_counter() - started
        self._publish_metrics(report)
        return report

    @staticmethod
    def _publish_metrics(report: "OptimizationReport") -> None:
        """Feed the run's report counters into the active metrics
        registry.  Everything published here is deterministic — derived
        from the work done, never from how long it took."""
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
