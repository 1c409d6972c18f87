"""Checkpoint plumbing shared by resource guards and fault injection.

Analysis and restructuring are instrumented with :func:`checkpoint`
calls at their hot points (one per node-query pair examined, one per
node split, and so on).  A checkpoint is a near-free no-op unless a
:func:`robustness_context` is active, in which case it (a) lets the
active :class:`~repro.robustness.guards.ResourceGuard` enforce its
deadline and node budget and (b) gives the active
:class:`~repro.robustness.faults.FaultPlan` a chance to fire.

The context is a module-level slot rather than a parameter threaded
through every layer: the instrumented loops live many frames below the
optimizer, and the whole system is single-threaded by design.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.ir.icfg import ICFG

_ACTIVE: Optional["RobustnessContext"] = None


class RobustnessContext:
    """The bundle of hooks a checkpoint dispatches to."""

    def __init__(self, guard=None, plan=None) -> None:
        self.guard = guard
        self.plan = plan

    def hit(self, site: str, icfg: Optional[ICFG] = None) -> None:
        """Dispatch one checkpoint hit: guard first, then fault plan."""
        if self.guard is not None:
            self.guard.check(icfg)
        if self.plan is not None:
            self.plan.fire(site, icfg)


@contextmanager
def robustness_context(guard=None, plan=None) -> Iterator[RobustnessContext]:
    """Activate ``guard`` and ``plan`` for checkpoints inside the block.

    Contexts nest: the innermost one wins, and the previous context is
    restored on exit (even on exception).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = context = RobustnessContext(guard, plan)
    try:
        yield context
    finally:
        _ACTIVE = previous


def checkpoint(site: str, icfg: Optional[ICFG] = None) -> None:
    """Report reaching instrumentation point ``site``.

    ``icfg`` is the graph being worked on at that point, handed to the
    guard (node-budget check) and to corruption faults.  When no context
    is active this is a single global read plus a None test.
    """
    if _ACTIVE is not None:
        _ACTIVE.hit(site, icfg)
