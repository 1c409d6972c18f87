"""Per-conditional resource guards: deadline and node-growth budgets.

A :class:`ResourceGuard` bounds how much one conditional's analysis and
restructuring may cost.  Enforcement is cooperative: the instrumented
hot loops call :func:`~repro.robustness.runtime.checkpoint`, which
routes to :meth:`ResourceGuard.check`, which raises
:class:`~repro.errors.BudgetExceeded` — an ordinary
:class:`~repro.errors.ReproError` the transactional optimizer catches
and converts into a per-conditional rollback.  Nothing hangs, nothing
OOMs, and the remaining conditionals still get their turn.

Timing discipline (audited): every deadline in this module is computed
from ``time.monotonic()``, never ``time.time()``.  Wall-clock time can
jump (NTP steps, suspend/resume), which would make a ``time.time()``
deadline fire early, late, or never.  :class:`DeadlineGuard` is the one
deadline implementation everything shares; it never stores an absolute
timestamp, and a clock that steps backwards (tests inject these)
re-arms its origin instead of silently extending the budget, so the
guard can fire late by at most the step, and never hangs forever.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.errors import BudgetExceeded
from repro.ir.icfg import ICFG


class DeadlineGuard:
    """A monotonic wall-clock budget.

    ``budget_s`` is the allowed elapsed time from :meth:`start`.
    ``clock`` is injectable so tests can trip the deadline without
    sleeping.
    """

    def __init__(self, budget_s: Optional[float],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.budget_s = budget_s
        self.clock = clock
        self._origin: Optional[float] = None

    def start(self) -> "DeadlineGuard":
        """Arm the budget relative to now; returns self."""
        if self.budget_s is not None:
            self._origin = self.clock()
        return self

    @property
    def armed(self) -> bool:
        return self._origin is not None

    def elapsed(self) -> float:
        """Seconds consumed since :meth:`start` (0.0 if unarmed).

        A clock observed *behind* the armed origin (an injected
        non-monotonic clock) re-arms the origin at the observed value
        rather than crediting the guard with negative elapsed time.
        """
        if self._origin is None:
            return 0.0
        now = self.clock()
        if now < self._origin:
            self._origin = now
        return now - self._origin

    def remaining(self) -> Optional[float]:
        """Budget left, clamped at 0.0; None when unlimited."""
        if self.budget_s is None:
            return None
        if self._origin is None:
            return self.budget_s
        return max(0.0, self.budget_s - self.elapsed())

    def expired(self) -> bool:
        """True when an armed budget has been fully consumed."""
        return (self.budget_s is not None and self._origin is not None
                and self.elapsed() > self.budget_s)


class ResourceGuard:
    """Context manager enforcing a wall-clock deadline and a node cap.

    ``deadline_s`` bounds elapsed time from :meth:`start` (entering the
    ``with`` block); ``max_nodes`` bounds the node count of whatever
    graph the checkpoints hand in (the working clone, mid-split).
    Either may be None for "unlimited".  ``clock`` is injectable so
    tests can trip the deadline without sleeping.
    """

    def __init__(self, deadline_s: Optional[float] = None,
                 max_nodes: Optional[int] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.deadline_s = deadline_s
        self.max_nodes = max_nodes
        self.clock = clock
        self.checks = 0
        self._deadline = DeadlineGuard(deadline_s, clock=clock)

    def start(self) -> "ResourceGuard":
        """Arm the deadline relative to now; returns self."""
        self._deadline.start()
        return self

    def __enter__(self) -> "ResourceGuard":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def check(self, icfg: Optional[ICFG] = None) -> None:
        """Raise :class:`BudgetExceeded` if any armed budget is blown."""
        self.checks += 1
        if self._deadline.expired():
            raise BudgetExceeded(
                f"per-conditional deadline of {self.deadline_s:g}s exceeded "
                f"after {self.checks} checkpoints",
                deadline_s=self.deadline_s, checkpoints=self.checks)
        if (self.max_nodes is not None and icfg is not None
                and icfg.node_count() > self.max_nodes):
            raise BudgetExceeded(
                f"node budget exceeded: {icfg.node_count()} nodes > "
                f"cap {self.max_nodes}",
                nodes=icfg.node_count(), max_nodes=self.max_nodes)
