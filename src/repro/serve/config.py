"""Configuration for the ``icbe serve`` daemon.

One dataclass, :class:`ServeOptions`, carries every knob: the listen
address, the worker pool geometry and recycling thresholds, admission
limits (queue bound, per-client token buckets) and per-request time
budgets, on top of the :class:`~repro.robustness.degrade.JobOptions`
every job runs under, which ``icbe batch`` shares.

The optimizer-shaping subset is exposed as :meth:`ServeOptions.
fingerprint`; it is folded into the content-addressed result-cache key
(two daemons with different budgets must never share cache entries)
and journaled in the serve journal's meta record so a restart on the
same run directory refuses to mix configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.robustness.degrade import JobOptions


@dataclass
class ServeOptions(JobOptions):
    """Every knob of one ``icbe serve`` daemon."""

    # -- listen address ----------------------------------------------------
    host: str = "127.0.0.1"
    #: Port 0 binds an ephemeral port; the bound port is published in
    #: ``<run_dir>/serve.json`` either way.
    port: int = 8420

    # -- state on disk -----------------------------------------------------
    #: Journal, result cache, program spool, and the ``serve.json``
    #: discovery file all live here.  Restarting on the same directory
    #: recovers journaled jobs and reuses the disk cache.
    run_dir: str = "icbe-serve"

    # -- worker pool -------------------------------------------------------
    workers: int = 2
    #: Recycle a worker after it has served this many jobs (bounds the
    #: blast radius of slow interpreter-state leaks).
    max_jobs_per_worker: int = 64
    #: Recycle a worker whose peak RSS crossed this watermark, in KiB.
    rss_watermark_kb: int = 1_048_576
    #: How often each worker reports a heartbeat (and its peak RSS).
    heartbeat_interval_s: float = 0.5
    #: An *idle* worker silent for this long is presumed wedged and is
    #: killed + respawned.  (Busy workers are governed by ``timeout_s``.)
    heartbeat_timeout_s: float = 10.0

    # -- admission ---------------------------------------------------------
    #: Submissions beyond this queue depth are refused with HTTP 429 +
    #: Retry-After (explicit backpressure; ladder retries are exempt —
    #: an admitted job is never dropped for queue pressure).
    queue_limit: int = 64
    #: Per-client token bucket: burst capacity and sustained rate.
    rate_capacity: float = 30.0
    rate_refill_per_s: float = 10.0
    #: Largest accepted request body, in bytes.
    max_body_bytes: int = 2 * 1024 * 1024

    # -- time budgets ------------------------------------------------------
    #: Per-request deadline when the submission names none; the whole
    #: job (queue wait + every attempt) must finish inside it.
    default_deadline_s: float = 300.0
    #: Hard ceiling on client-requested deadlines.
    max_deadline_s: float = 3600.0
    #: Graceful drain: how long in-flight attempts may keep running
    #: after SIGTERM/SIGINT before their workers are killed and the
    #: jobs are left checkpointed in the journal.
    drain_grace_s: float = 10.0

    def fingerprint(self) -> dict:
        """The result-shaping option subset.

        Folded into every cache key and journaled in the meta record:
        anything that can change an optimization *outcome* must appear
        here, anything that only changes scheduling must not.
        """
        return {"budget": self.budget,
                "duplication_limit": self.duplication_limit,
                "diff_check": self.diff_check,
                "conditional_deadline_s": self.conditional_deadline_s}

    def deadline_for(self, requested_s: Optional[float]) -> float:
        """Clamp a client-requested deadline into the allowed range."""
        if requested_s is None:
            return self.default_deadline_s
        return max(0.001, min(float(requested_s), self.max_deadline_s))
