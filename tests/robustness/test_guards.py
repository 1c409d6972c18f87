"""Resource guards: cooperative deadlines and node budgets."""

import pytest

from tests.helpers import FGETC_LIKE, build

from repro.errors import BudgetExceeded, ReproError
from repro.robustness import (DeadlineGuard, ResourceGuard, checkpoint,
                              robustness_context)


class FakeClock:
    """A manually advanced monotonic clock."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def test_unarmed_guard_never_trips():
    guard = ResourceGuard().start()
    for _ in range(1000):
        guard.check()
    assert guard.checks == 1000


def test_deadline_trips_after_time_passes():
    clock = FakeClock()
    guard = ResourceGuard(deadline_s=5.0, clock=clock).start()
    guard.check()
    clock.now += 10.0
    with pytest.raises(BudgetExceeded, match="deadline"):
        guard.check()


def test_node_budget_trips_on_large_graph():
    icfg = build(FGETC_LIKE)
    guard = ResourceGuard(max_nodes=icfg.node_count() - 1).start()
    guard.check()  # no graph handed in: nothing to measure
    with pytest.raises(BudgetExceeded, match="node budget"):
        guard.check(icfg)


def test_budget_exceeded_is_a_repro_error():
    assert issubclass(BudgetExceeded, ReproError)


def test_guard_enforced_through_checkpoints():
    clock = FakeClock()
    guard = ResourceGuard(deadline_s=1.0, clock=clock)
    with guard, robustness_context(guard=guard):
        checkpoint("anywhere")
        clock.now += 2.0
        with pytest.raises(BudgetExceeded):
            checkpoint("anywhere")
    # Outside the context the same checkpoint is inert.
    clock.now += 100.0
    checkpoint("anywhere")


def test_deadline_guard_basic_lifecycle():
    clock = FakeClock()
    guard = DeadlineGuard(5.0, clock=clock)
    assert not guard.armed
    assert guard.remaining() == 5.0  # unarmed: full budget
    guard.start()
    clock.now += 2.0
    assert guard.elapsed() == 2.0
    assert guard.remaining() == 3.0
    assert not guard.expired()
    clock.now += 4.0
    assert guard.expired()
    assert guard.remaining() == 0.0  # clamped, never negative


def test_deadline_guard_unlimited_never_expires():
    clock = FakeClock()
    guard = DeadlineGuard(None, clock=clock).start()
    clock.now += 1e9
    assert not guard.expired()
    assert guard.remaining() is None


def test_deadline_guard_survives_a_backwards_clock():
    # A clock step behind the origin must re-arm, not credit negative
    # elapsed time (which would extend the budget indefinitely).
    clock = FakeClock()
    guard = DeadlineGuard(5.0, clock=clock).start()
    clock.now -= 50.0
    assert guard.elapsed() == 0.0  # re-armed at the observed instant
    clock.now += 4.0
    assert not guard.expired()
    clock.now += 2.0
    assert guard.expired()  # and it still fires afterwards


def test_resource_guard_deadline_delegates_to_deadline_guard():
    clock = FakeClock()
    guard = ResourceGuard(deadline_s=1.0, clock=clock).start()
    clock.now -= 10.0  # backwards step: inherited resilience
    guard.check()
    clock.now += 2.0
    with pytest.raises(BudgetExceeded) as excinfo:
        guard.check()
    # Structured context rides on the exception (see repro.errors).
    assert excinfo.value.context["deadline_s"] == 1.0
    assert excinfo.value.context["checkpoints"] == 2


def test_contexts_nest_and_restore():
    clock = FakeClock()
    outer = ResourceGuard(deadline_s=1.0, clock=clock)
    with outer, robustness_context(guard=outer):
        with robustness_context():
            clock.now += 5.0
            checkpoint("site")  # inner context has no guard: fine
        with pytest.raises(BudgetExceeded):
            checkpoint("site")  # outer guard is active again
