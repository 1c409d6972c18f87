"""``icbe serve``: a fault-tolerant, long-lived optimization service.

This package wraps the crash-isolated optimization machinery
(:mod:`repro.robustness`) in an asyncio daemon with an HTTP/JSON API:
submit a MiniC program or ``suite:<name>@<scale>`` reference, get a job
id, poll or stream the result.  Everything is standard library — no
web framework, no external queue, no external cache.

The layers, outermost first:

- :mod:`~repro.serve.http` — a minimal HTTP/1.1 front end over
  ``asyncio.start_server`` (submit / poll / stream / health / metrics);
- :mod:`~repro.serve.service` — admission control, the bounded
  priority queue, per-client rate limits, per-request deadlines, the
  degradation ladder + per-class circuit breakers, the result cache,
  the write-ahead journal, and graceful drain;
- :mod:`~repro.serve.pool` — a resident pool of K worker subprocesses
  reused across jobs (amortizing interpreter + import warmup), with
  heartbeat health checks and automatic recycling.  Each runs
  :mod:`~repro.robustness.worker`, the worker ``icbe batch`` forks per
  attempt: one loop over newline-delimited JSON frames, executing each
  job with :func:`~repro.robustness.worker.run_attempt`.

Robustness invariants the tests and chaos drills enforce:

- **No job is ever lost.**  Every admitted job is fsynced into the
  serve journal before its 202 response is written; a SIGKILLed daemon
  restarted on the same run directory re-runs every journaled job that
  has no completion record.
- **No worker death loses a job.**  A killed, crashed, hung, or OOMed
  worker costs one attempt; the job descends the degradation ladder
  and is re-queued, and the pool respawns the worker.
- **Identical resubmission is a cache hit**, never a re-optimization:
  results are content-addressed by the canonical-IR hash of the
  submitted program plus the daemon's option fingerprint
  (:mod:`~repro.serve.cache`), in memory and on disk.
- **Drain is graceful.**  SIGTERM/SIGINT stop admission (503 on
  submit, ``/readyz`` goes red), let in-flight attempts finish within
  a grace period, checkpoint everything else in the journal, and exit
  cleanly.

See docs/SERVING.md for the API reference, admission and drain
semantics, and the capacity-tuning guide.
"""

from repro.serve.cache import ResultCache, canonical_key
from repro.serve.config import ServeOptions
from repro.serve.models import (JOB_DONE, JOB_QUEUED, JOB_RUNNING,
                                JobRecord)
from repro.serve.queue import Admission, BoundedJobQueue
from repro.serve.ratelimit import RateLimiter, TokenBucket

__all__ = [
    "Admission", "BoundedJobQueue", "JOB_DONE", "JOB_QUEUED",
    "JOB_RUNNING", "JobRecord", "RateLimiter", "ResultCache",
    "ServeOptions", "TokenBucket", "canonical_key",
]
