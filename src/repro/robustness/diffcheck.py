"""Differential validation: original vs optimized observable behaviour.

The optimizer's correctness contract is semantic, not structural: the
verifier proves the graph is runnable, but only execution proves it
computes the same thing.  :func:`differential_check` runs the original
and the optimized ICFG over a shared battery of seeded workloads and
compares the :attr:`~repro.interp.machine.ExecutionResult.observable`
projections (status, exit value, output stream, fault message — the
semantics-defining portion; profiles and step counts are excluded on
purpose, since the whole point of the optimization is to change them).

The transactional optimizer runs this after every accepted transform
(and once more at pipeline end): a mismatch rolls the offending
conditional back instead of silently shipping a miscompile.  A run is a
deterministic function of graph, input stream and step limit, so one
optimizer run executes its unchanged input once per workload
(:class:`OriginalRuns`) and compares every candidate graph against
those recorded observables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro import obs
from repro.errors import DifferentialMismatch
from repro.interp.machine import DEFAULT_STEP_LIMIT, DecodedICFG, run_icfg
from repro.interp.workload import Workload
from repro.ir.icfg import ICFG
from repro.robustness.runtime import checkpoint


@dataclass
class DiffMismatch:
    """One workload on which the two graphs observably diverged."""

    workload_name: str
    workload_values: Tuple[int, ...]
    original: Tuple
    optimized: Tuple

    def describe(self) -> str:
        """One-line human-readable account of the divergence."""
        return (f"workload {self.workload_name or self.workload_values}: "
                f"original {self.original} != optimized {self.optimized}")


@dataclass
class DiffReport:
    """Outcome of one differential comparison."""

    runs: int = 0
    mismatches: List[DiffMismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every workload produced identical observables."""
        return not self.mismatches

    def describe(self) -> str:
        """Summary suitable for logs and :class:`BranchRecord.failure`."""
        if self.ok:
            return f"differential check ok over {self.runs} workloads"
        lines = [m.describe() for m in self.mismatches]
        return (f"differential mismatch on {len(self.mismatches)} of "
                f"{self.runs} workloads: " + "; ".join(lines))


def seeded_workloads(seed: int = 0, runs: int = 3, length: int = 16,
                     low: int = 0, high: int = 8) -> List[Workload]:
    """The default battery: the empty stream plus ``runs`` seeded ones.

    Values are non-negative by default: idiomatic MiniC programs treat 0
    and negatives as end-of-file sentinels, and a sentinel-free endless
    stream can stop such programs from ever terminating — which would
    turn every differential run into a step-limit crawl.
    """
    loads = [Workload([], name="empty")]
    for index in range(runs):
        loads.append(Workload.random(length, low=low, high=high,
                                     seed=seed + index,
                                     name=f"seeded-{seed + index}"))
    return loads


class OriginalRuns:
    """One original graph's observables, each workload run at most once.

    Every check that passes the same instance as its ``original`` reuses
    the observables recorded by earlier checks; a workload is keyed by
    its values, default and step limit, which is all a run depends on.
    Hold one per original graph (an optimizer run keeps one on its
    pipeline state), never one across graphs.
    """

    def __init__(self, icfg: ICFG) -> None:
        self.decoded = DecodedICFG(icfg)
        #: Runs of ``icfg`` actually executed so far.
        self.executed = 0
        self._observed: Dict[Tuple, Tuple] = {}

    def observable(self, workload: Workload, step_limit: int) -> Tuple:
        """``icfg``'s observable on ``workload``, run on first request."""
        key = (tuple(workload.values), workload.default, step_limit)
        observed = self._observed.get(key)
        if observed is None:
            observed = run_icfg(self.decoded, workload.fresh(),
                                step_limit=step_limit).observable
            self._observed[key] = observed
            self.executed += 1
            obs.add("diffcheck.original_runs")
        return observed


def differential_check(original: Union[ICFG, OriginalRuns], optimized: ICFG,
                       workloads: Optional[List[Workload]] = None,
                       seed: int = 0, runs: int = 3, length: int = 16,
                       step_limit: int = DEFAULT_STEP_LIMIT) -> DiffReport:
    """Compare observable traces of ``original`` vs ``optimized``.

    ``original`` is the reference graph, or its :class:`OriginalRuns`
    to reuse the observables earlier checks recorded.  Neither graph is
    mutated; workloads are re-wound via ``fresh`` so a caller-supplied
    battery can be reused across calls.
    """
    checkpoint("diffcheck:run")
    if workloads is None:
        workloads = seeded_workloads(seed, runs, length)
    if not isinstance(original, OriginalRuns):
        original = OriginalRuns(original)
    obs.add("diffcheck.calls")
    report = DiffReport(runs=len(workloads))
    executed = original.executed
    # Decoded here, not kept: the optimizer edits its working graph in
    # place between checks.
    candidate = DecodedICFG(optimized)
    with obs.span("diffcheck", workloads=len(workloads)) as span:
        for workload in workloads:
            before = original.observable(workload, step_limit)
            after = run_icfg(candidate, workload.fresh(),
                             step_limit=step_limit).observable
            if before != after:
                report.mismatches.append(DiffMismatch(
                    workload_name=workload.name,
                    workload_values=tuple(workload.values),
                    original=before, optimized=after))
        span.set(original_runs=original.executed - executed)
    return report


def require_equivalent(original: ICFG, optimized: ICFG,
                       **kwargs) -> DiffReport:
    """:func:`differential_check` that raises on any divergence."""
    report = differential_check(original, optimized, **kwargs)
    if not report.ok:
        raise DifferentialMismatch(report.describe())
    return report
