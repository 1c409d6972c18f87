"""The optimizer's pass pipeline: passes, transactions, invalidation.

:class:`~repro.transform.pipeline.ICBEOptimizer` used to be one inline
loop; it is now a :class:`PassManager` running a fixed sequence of
passes over a :class:`PipelineState`:

1. :class:`RestructurePass` — one transaction per conditional:
   analyze, gate, split, eliminate, remove unreachable, verify; adopt
   or roll back.
2. :class:`SimplifyPass` — end-of-run nop compaction, as its own
   transaction.
3. :class:`FinalValidatePass` — full structural verification (never
   scoped) plus the optional differential check; a violation rolls the
   whole run back to a pristine clone of the input, and every
   conditional the run had optimized is recorded as rolled back.

Every differential check of one run compares against the same
:class:`~repro.robustness.diffcheck.OriginalRuns` on the
:class:`PipelineState`, so the unchanged input runs once per workload
per run, however many transactions are checked.

Each pass declares which cached analyses of the shared
:class:`~repro.analysis.context.AnalysisContext` it *preserves*.  After
a committed transaction the context invalidates only cache entries
reaching the procedures the transform dirtied (minus the preserved
analyses); a rollback invalidates nothing, because rolling the graph's
undo log back restores the generation the caches are keyed to.

Every transaction runs on the live graph's undo log
(:meth:`~repro.ir.icfg.ICFG.begin`, ``commit``, ``rollback``), so it
costs what it edits: a fruitless transaction rolls back an empty log.
Each conditional is decided one way:

- **one analysis, in place** — the conditional is analyzed on the live
  graph, sharing the context's interned queries and memos (which never
  change a verdict); verdicts that cannot lead to restructuring are
  recorded without touching the graph, and a conditional that shows
  correlation is restructured in place, under the undo log, from that
  same analysis, budget-truncated or not;
- **frontier verification** — the post-transform and post-simplify
  checks re-verify only the nodes the transaction's log names (see
  :func:`~repro.ir.verify.edit_frontier`).

The reference for both is :func:`restructure_branch` without ``since``
(clone, fresh analysis, full verification): every fault-free
transaction's record and graph equal it on a clone of the graph the
transaction began on.  It is also the recovery path when a corruption
fault taints the in-place analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro import obs
from repro.analysis.context import AnalysisContext
from repro.analysis.driver import analyze_branch
from repro.errors import DifferentialMismatch, ReproError
from repro.ir.icfg import ICFG, UndoMark
from repro.ir.simplify import simplify_nops
from repro.ir.verify import verify_icfg
from repro.robustness.diffcheck import (DiffReport, OriginalRuns,
                                        differential_check)
from repro.robustness.guards import ResourceGuard
from repro.robustness.runtime import checkpoint, robustness_context
from repro.transform.restructure import (BranchOutcome, RestructureResult,
                                         restructure_branch)


@dataclass
class PipelineState:
    """Everything a pass may read or advance during one optimizer run."""

    optimizer: "ICBEOptimizer"
    original: ICFG
    current: ICFG
    report: "OptimizationReport"
    context: AnalysisContext
    done: Set[int] = field(default_factory=set)
    #: copy id -> original id, composed across transformations, so the
    #: profile-guided benefit gate keeps working on copies.
    origin: Dict[int, int] = field(default_factory=dict)
    gate_profile: Optional[object] = None
    growth_cap: Optional[int] = None
    #: ``original``'s observables, each workload run on first use and
    #: reused by every later differential check of this run.
    original_runs: OriginalRuns = field(init=False)

    def __post_init__(self) -> None:
        self.original_runs = OriginalRuns(self.original)

    @property
    def options(self):
        return self.optimizer.options

    def diff(self, candidate: ICFG) -> DiffReport:
        """Differential check of ``candidate`` against the run's input
        over the configured battery."""
        opts = self.options
        return differential_check(self.original_runs, candidate,
                                  workloads=opts.diff_workloads,
                                  seed=opts.diff_seed, runs=opts.diff_runs)

    # -- transaction discipline ----------------------------------------------

    def heal(self, mark: UndoMark) -> None:
        """Undo out-of-band damage to the live graph and carry on with
        the transaction begun at ``mark``."""
        obs.add("transform.undo_replayed", self.current.rollback(mark))

    def rollback(self, mark: UndoMark) -> None:
        """End the transaction begun at ``mark``, discarding its edits.
        Only a transaction that changed the graph counts as a rollback;
        the context's caches describe the restored generation again."""
        changed = self.current.generation != mark.generation
        self.heal(mark)
        self.current.commit()
        if changed:
            obs.add("transform.rollbacks")
            self.context.rollback(self.current)

    def commit(self, preserves: FrozenSet[str]) -> None:
        """Adopt the live graph's new state, invalidating cached
        analyses that reach its dirty procedures."""
        obs.add("transform.undo_records", self.current.commit())
        self.context.commit(self.current, preserves=preserves)


class Pass:
    """One pipeline stage.  ``preserves`` names the cached analyses of
    the shared context that stay valid across this pass's committed
    mutations (see :class:`~repro.analysis.context.AnalysisContext`)."""

    name: str = "pass"
    preserves: FrozenSet[str] = frozenset()

    def run(self, state: PipelineState) -> None:
        raise NotImplementedError


class PassManager:
    """Runs passes in order over one shared :class:`PipelineState`."""

    def __init__(self, passes: List[Pass]) -> None:
        self.passes = list(passes)

    def run(self, state: PipelineState) -> PipelineState:
        for pass_ in self.passes:
            with obs.span(f"pass.{pass_.name}"):
                pass_.run(state)
        return state


# ---------------------------------------------------------------------------
# The per-branch restructuring pass.
# ---------------------------------------------------------------------------


class RestructurePass(Pass):
    """Per-conditional restructuring, one transaction per conditional."""

    name = "restructure"
    # Committed splits invalidate by dirty procedures (the context does
    # the per-entry reachability math); nothing is preserved wholesale.
    preserves: FrozenSet[str] = frozenset()

    def run(self, state: PipelineState) -> None:
        while True:
            pending = self._pending(state)
            if not pending:
                break
            if (state.growth_cap is not None
                    and state.current.node_count() > state.growth_cap):
                break
            branch_id = pending[0]
            state.done.add(branch_id)
            self._transact(state, branch_id)

    def _pending(self, state: PipelineState) -> List[int]:
        return [bid for bid in state.context.branch_ids(state.current)
                if bid not in state.done]

    def _transact(self, state: PipelineState, branch_id: int) -> None:
        with obs.span("transform.branch", branch=branch_id) as obs_span:
            self._transact_traced(state, branch_id, obs_span)

    def _transact_traced(self, state: PipelineState, branch_id: int,
                         obs_span) -> None:
        from repro.transform.pipeline import BranchRecord

        opts = state.options
        optimizer = state.optimizer
        mark = state.current.begin()
        guard = ResourceGuard(deadline_s=opts.deadline_s,
                              max_nodes=optimizer._node_cap(mark))
        diff: Optional[DiffReport] = None
        try:
            with guard, robustness_context(guard=guard,
                                           plan=opts.fault_plan):
                checkpoint("pipeline:branch-start", state.current)
                if state.current.generation != mark.generation:
                    # A fault corrupted the live graph at the checkpoint
                    # (corruption marks it dirty): heal before analyzing
                    # rather than poisoning this conditional's verdict.
                    state.heal(mark)
                result = self._attempt(state, branch_id, mark)
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
            optimizer._diagnose(state.report, branch_id, "restructure",
                                exc=failure, icfg=state.current)
            obs_span.set(outcome=BranchOutcome.FAILED.value)
            obs.add("transform.outcome.failed")
            return

        record = optimizer._record(result)
        adopted = False
        if result.applied:
            assert result.new_icfg is not None
            if diff is not None and not diff.ok:
                if opts.strict:
                    raise DifferentialMismatch(diff.describe())
                record.outcome = BranchOutcome.ROLLED_BACK
                record.failure = diff.describe()
                record.node_growth = 0
                optimizer._diagnose(state.report, branch_id, "diff-check",
                                    icfg=result.new_icfg, diff=diff)
            else:
                state.current = result.new_icfg
                adopted = True
                for new_id, old_id in result.cloned_from.items():
                    state.origin[new_id] = state.origin.get(old_id, old_id)
                    if old_id in state.done:
                        state.done.add(new_id)
                state.commit(self.preserves)
        if not adopted:
            # Nothing was accepted, so the pre-transaction state is the
            # truth.  Rolling back to it also heals any corruption of
            # the *live* graph that the conditional's own verdict would
            # otherwise smuggle forward.
            state.rollback(mark)
        state.report.records.append(record)
        obs_span.set(outcome=record.outcome.value)
        obs.add(f"transform.outcome.{record.outcome.value}")
        if adopted:
            obs.add("transform.branches_eliminated",
                    record.eliminated_copies)
            obs.observe("transform.node_growth", record.node_growth)
            obs.observe("transform.duplication_bound",
                        record.duplication_bound)

    def _attempt(self, state: PipelineState, branch_id: int,
                 mark: UndoMark) -> RestructureResult:
        """One conditional's analysis and, when it shows correlation,
        restructuring."""
        opts = state.options
        # Analysis in place on the live graph (the analysis never
        # mutates it).
        pre = analyze_branch(state.current, branch_id, opts.config,
                             context=state.context)
        if not pre.analyzable:
            return RestructureResult(
                branch_id=branch_id, outcome=BranchOutcome.NOT_ANALYZABLE,
                analysis=pre, nodes_before=state.current.node_count())
        if state.current.generation != mark.generation:
            # A corruption fault fired during the in-place analysis: its
            # verdict is tainted.  Heal, then decide the conditional on
            # a clone with a fresh analysis and full verification.
            state.heal(mark)
            return restructure_branch(
                state.current, branch_id, opts.config,
                opts.duplication_limit, profile=state.gate_profile,
                min_benefit_per_node=opts.min_benefit_per_node)
        if pre.has_correlation:
            state.context.stats.analyses_reused += 1
        # Restructure the live graph in place from the same analysis,
        # budget-truncated or not; a verdict without correlation returns
        # before any edit, and a rollback replays the undo log.
        return restructure_branch(
            state.current, branch_id, opts.config, opts.duplication_limit,
            profile=state.gate_profile,
            min_benefit_per_node=opts.min_benefit_per_node,
            precomputed=pre, since=mark)


# ---------------------------------------------------------------------------
# End-of-run passes.
# ---------------------------------------------------------------------------


class SimplifyPass(Pass):
    """End-of-run nop compaction, as its own transaction.

    Nop removal rewires edges around non-operations: no assignment,
    call, or entry/exit is touched, so mod/ref summaries survive the
    commit.  Node sets do change, so adjacency indices do not.
    """

    name = "simplify"
    preserves: FrozenSet[str] = frozenset({AnalysisContext.MODREF})

    def run(self, state: PipelineState) -> None:
        opts = state.options
        if not opts.simplify:
            return
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
            state.optimizer._diagnose(state.report, -1, "simplify",
                                      exc=failure, icfg=state.current)
            return
        state.commit(self.preserves)


class FinalValidatePass(Pass):
    """Last line of defence: a full (never scoped) structural
    verification plus the optional differential check.  It mutates
    nothing on success, so it preserves everything.  A violation means
    a pipeline-level fault slipped through every per-conditional net,
    so the whole run is rolled back to a pristine clone of the input —
    correct, if unoptimized — and the records say so."""

    name = "final-validate"
    preserves: FrozenSet[str] = AnalysisContext.ALL

    def run(self, state: PipelineState) -> None:
        failure = self._violation(state)
        if failure is None:
            return
        state.current = state.original.clone()
        for record in state.report.records:
            if record.outcome is BranchOutcome.OPTIMIZED:
                record.outcome = BranchOutcome.ROLLED_BACK
                record.failure = failure
                record.node_growth = 0

    @staticmethod
    def _violation(state: PipelineState) -> Optional[str]:
        """The failed phase and its failure, or None when the graph
        verifies and (when checked) behaves like the input."""
        opts = state.options
        diagnose = state.optimizer._diagnose
        try:
            verify_icfg(state.current)
        except ReproError as failure:
            if opts.strict:
                raise
            diagnose(state.report, -1, "final-verify",
                     exc=failure, icfg=state.current)
            return f"final-verify: {type(failure).__name__}: {failure}"
        if opts.diff_check:
            diff = state.diff(state.current)
            if not diff.ok:
                if opts.strict:
                    raise DifferentialMismatch(diff.describe())
                diagnose(state.report, -1, "final-diff",
                         icfg=state.current, diff=diff)
                return f"final-diff: {diff.describe()}"
        return None


def build_default_pipeline() -> PassManager:
    """The standard restructure → simplify → validate pipeline."""
    return PassManager([RestructurePass(), SimplifyPass(),
                        FinalValidatePass()])
