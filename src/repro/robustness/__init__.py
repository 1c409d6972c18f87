"""Robustness subsystem: transactional transforms, guards, fault drills.

The paper calls restructuring "the most delicate part of the system";
this package is the production answer to that delicacy.  It makes the
whole-program optimizer crash-proof and self-validating (the
per-conditional transactions themselves run on the ICFG's own undo log,
:meth:`~repro.ir.icfg.ICFG.begin`):

- :mod:`~repro.robustness.guards` — per-conditional wall-clock and
  node-growth budgets enforced cooperatively via checkpoints;
- :mod:`~repro.robustness.faults` — deterministic fault injection at
  named checkpoints, so the recovery paths themselves are testable;
- :mod:`~repro.robustness.diffcheck` — differential validation of
  observable traces between the original and optimized program;
- :mod:`~repro.robustness.report` — structured diagnostics bundles for
  every failure;
- :mod:`~repro.robustness.runtime` — the checkpoint plumbing tying the
  instrumented analysis/transform loops to guards and fault plans.

See docs/ROBUSTNESS.md for the transaction model and the knobs.
"""

from repro.robustness.degrade import (Attempt, JobOutcome, LADDER, Tier,
                                      tier_names)
from repro.robustness.diffcheck import (DiffMismatch, DiffReport,
                                        OriginalRuns, differential_check,
                                        require_equivalent,
                                        seeded_workloads)
from repro.robustness.faults import (CORRUPTION_ACTIONS, FaultPlan,
                                     FaultSpec, FiredFault, corrupt_icfg)
from repro.robustness.guards import DeadlineGuard, ResourceGuard
from repro.robustness.journal import Journal, load_outcomes
from repro.robustness.report import (DiagnosticsBundle, capture_bundle,
                                     write_bundle)
from repro.robustness.runtime import checkpoint, robustness_context
from repro.robustness.supervisor import (BatchReport, BatchSupervisor,
                                         JobSpec, SupervisorOptions,
                                         run_batch)

__all__ = [
    "Attempt", "BatchReport", "BatchSupervisor", "CORRUPTION_ACTIONS",
    "DeadlineGuard", "DiagnosticsBundle", "DiffMismatch", "DiffReport",
    "FaultPlan", "FaultSpec", "FiredFault", "JobOutcome",
    "JobSpec", "Journal", "LADDER", "OriginalRuns", "ResourceGuard",
    "SupervisorOptions",
    "Tier", "capture_bundle", "checkpoint", "corrupt_icfg",
    "differential_check", "load_outcomes", "require_equivalent",
    "robustness_context", "run_batch", "seeded_workloads", "tier_names",
    "write_bundle",
]
