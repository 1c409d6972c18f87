"""Job records and wire shapes for the serving layer.

A :class:`JobRecord` is the daemon's in-memory account of one admitted
submission, from admission through queueing, attempts down the
degradation ladder, to a definite terminal result — the serve-side
analogue of the batch supervisor's ``_JobState``, and like it the
:class:`~repro.robustness.degrade.PolicyJob` the shared job policy
updates, with asyncio wakeups bolted on for pollers and streamers.

States are deliberately few::

    queued --> running --> done        (result.status: OK|DEGRADED|FAILED)
       \\------------------^  (deadline expiry, non-retryable input)

A job is *done* exactly once, with a definite status; ``running`` jobs
whose attempt fails re-enter ``queued`` one ladder tier down.  Every
transition notifies waiters (long-poll) and subscribers (streaming).
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.robustness.degrade import Attempt

JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"


@dataclass
class JobRecord:
    """One admitted job, submission to terminal result."""

    id: str
    #: What the worker loads: a spooled ``.mc`` path or a ``suite:`` ref.
    job_source: str
    #: Human-facing name (suite name, or the spool key for ad-hoc text).
    name: str
    #: Circuit-breaker / degradation class.
    job_class: str
    #: Content-addressed result key (canonical-IR hash + fingerprint).
    key: str
    priority: int = 5
    deadline_s: float = 300.0
    client: str = ""
    #: Chaos-drill passthrough (``{"kind": ..., "tiers": [...]}``).
    inject: Optional[dict] = None

    state: str = JOB_QUEUED
    tier: int = 0
    #: One entry per finished attempt, as the job policy recorded it.
    attempts: List[Attempt] = field(default_factory=list)
    #: The backoff waited before the next attempt (set by the policy).
    pending_backoff_s: float = 0.0
    #: The definite terminal payload (status/tier/reason/counts/cached).
    result: Optional[dict] = None
    #: Jobs with the same key admitted while this one was in flight;
    #: they complete when it does, without their own worker attempts.
    followers: List["JobRecord"] = field(default_factory=list)

    #: Event-loop instants (``loop.time``), service-internal only.
    deadline_at: float = 0.0
    submitted_at: float = 0.0

    _done_event: Optional[asyncio.Event] = field(default=None, repr=False)
    _subscribers: List[asyncio.Queue] = field(default_factory=list,
                                              repr=False)

    # -- wakeups -----------------------------------------------------------

    def done_event(self) -> asyncio.Event:
        """The (lazily created) event long-pollers wait on."""
        if self._done_event is None:
            self._done_event = asyncio.Event()
            if self.state == JOB_DONE:
                self._done_event.set()
        return self._done_event

    def subscribe(self) -> asyncio.Queue:
        """A queue of state-snapshot dicts; ``None`` terminates it."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.append(queue)
        queue.put_nowait(self.to_json())
        if self.state == JOB_DONE:
            queue.put_nowait(None)
        return queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def notify(self) -> None:
        """Push the current snapshot to every subscriber (and release
        long-pollers if the job just became terminal)."""
        snapshot = self.to_json()
        for queue in self._subscribers:
            queue.put_nowait(snapshot)
            if self.state == JOB_DONE:
                queue.put_nowait(None)
        if self.state == JOB_DONE and self._done_event is not None:
            self._done_event.set()

    # -- state -------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        return self.state == JOB_DONE

    @property
    def backoff_key(self) -> str:
        return self.key

    def finish(self, result: dict) -> None:
        """Move to the terminal state exactly once."""
        assert not self.terminal, f"job {self.id} finished twice"
        self.result = result
        self.state = JOB_DONE
        self.notify()

    def to_json(self) -> Dict[str, Any]:
        """The poll/stream wire shape (stable, documented in SERVING.md)."""
        record: Dict[str, Any] = {
            "id": self.id, "name": self.name, "class": self.job_class,
            "key": self.key, "state": self.state, "tier": self.tier,
            "priority": self.priority,
            "attempts": [attempt.to_json() for attempt in self.attempts],
        }
        if self.result is not None:
            record["result"] = dict(self.result)
        return record
