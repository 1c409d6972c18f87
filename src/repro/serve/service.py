"""The optimization service: admission, dispatch, healing, drain.

This is the daemon's brain.  The HTTP layer translates requests into
calls on :class:`OptimizationService`; the worker pool reports IO
events back into it; everything in between — the bounded priority
queue, per-client rate limits, per-request deadlines, the degradation
ladder with per-class circuit breakers, the content-addressed result
cache, the write-ahead journal, worker recycling, and graceful drain —
is decided here, on the event loop, with no locks.

The lifecycle of one submission::

    POST /v1/jobs
      -> draining?           503
      -> rate limited?       429 + Retry-After
      -> parse/lower/verify  400 on frontend errors (off-loop executor)
      -> cache lookup        200 {"cached": true, result}
      -> in-flight twin?     202 follower (coalesced, no new work)
      -> queue full?         429 + Retry-After
      -> journal submit (fsync)  <- the durability point
      -> 202 {"id": ...}
    dispatcher: queue -> idle resident worker -> run_attempt
      ok            -> OK/DEGRADED result, cache if OK, journal done
      structured    -> non-retryable => FAILED; else ladder descent
      worker death  -> breaker accounting, ladder descent, respawn
      deadline hit  -> FAILED (queued: dequeued; running: worker killed)

Failure semantics are the batch supervisor's
(:mod:`repro.robustness.supervisor`), because both run the same worker
(:mod:`repro.robustness.worker`), judge a dead one with the same
:func:`~repro.robustness.degrade.death_verdict` and run the same
:class:`~repro.robustness.degrade.JobPolicy`: the same ladder, the same
per-class breaker, the same seeded jittered backoff — so a program
that degrades to tier 2 under ``icbe batch`` degrades to tier 2 under
``icbe serve``.  The service waits out a backoff with
``loop.call_later`` and then requeues the job.
"""

from __future__ import annotations

import asyncio
import os
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.errors import ReproError, error_context
from repro.robustness import degrade
from repro.robustness.degrade import (JobOutcome, JobPolicy, STATUS_FAILED,
                                      STATUS_OK)
from repro.robustness.worker import attempt_spec
from repro.serve.cache import ResultCache, resolve_submission
from repro.serve.config import ServeOptions
from repro.serve.journal import ServeJournal
from repro.serve.models import (JOB_DONE, JOB_QUEUED, JOB_RUNNING,
                                JobRecord)
from repro.serve.pool import WorkerHandle, WorkerPool
from repro.serve.queue import BoundedJobQueue
from repro.serve.ratelimit import RateLimiter


class OptimizationService:
    """One daemon's worth of serving state, all on one event loop."""

    def __init__(self, options: ServeOptions) -> None:
        self.options = options
        self.journal = ServeJournal(options.run_dir)
        self.cache = ResultCache(options.run_dir,
                                 fingerprint=options.fingerprint())
        self.queue = BoundedJobQueue(options.queue_limit,
                                     workers=max(1, options.workers))
        self.limiter = RateLimiter(options.rate_capacity,
                                   options.rate_refill_per_s)
        self.pool = WorkerPool(options,
                               on_idle=self._on_worker_idle,
                               on_result=self._on_result,
                               on_exit=self._on_worker_exit)
        self.jobs: Dict[str, JobRecord] = {}
        self.draining = False
        self.drained = asyncio.Event()
        self._work = asyncio.Event()
        self._job_seq = 0
        self.policy = JobPolicy(options)
        #: Breakers seen open so far (``serve.breaker.opened``).
        self._breakers_opened = 0
        self._recovered_jobs = 0
        self._completed = 0
        self._tasks: List[asyncio.Task] = []

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        os.makedirs(self.options.run_dir, exist_ok=True)
        meta = {"seed": self.options.seed,
                "fingerprint": self.options.fingerprint()}
        recovered = ServeJournal.recover(self.options.run_dir)
        if recovered is None:
            self.journal.open_fresh(meta)
        else:
            self.journal.open_recovered(recovered, meta)
            self._restore(recovered)
        await self.pool.start()
        self._tasks.append(asyncio.create_task(self._dispatch_loop(),
                                               name="serve-dispatch"))
        self._tasks.append(asyncio.create_task(self._monitor_loop(),
                                               name="serve-monitor"))
        self._work.set()

    def _restore(self, recovered) -> None:
        """Rebuild state from a prior daemon's journal: finished jobs
        become poll-able terminal records, interrupted jobs re-queue
        (coalesced by key, so N interrupted twins cost one re-run)."""
        loop = asyncio.get_event_loop()
        for record in recovered.submits:
            job = JobRecord(
                id=record["id"], job_source=record["job"],
                name=record.get("name", record["id"]),
                job_class=record.get("job_class", "adhoc"),
                key=record.get("key", ""),
                priority=int(record.get("priority", 5)),
                deadline_s=float(record.get("deadline_s",
                                            self.options.default_deadline_s)),
                inject=record.get("inject"))
            self.jobs[job.id] = job
            number = _id_number(job.id)
            self._job_seq = max(self._job_seq, number)
            done = recovered.done.get(job.id)
            if done is not None:
                job.state = JOB_DONE
                job.result = dict(done)
                job.tier = int(done.get("tier", 0))
                self._completed += 1
                continue
            # Interrupted: the deadline restarts — the client's original
            # budget is unknowable across a daemon death.
            job.deadline_at = loop.time() + job.deadline_s
            job.submitted_at = loop.time()
            primary = (None if job.inject is not None
                       else self._inflight_primary(job.key))
            if primary is not None and primary is not job:
                primary.followers.append(job)
            else:
                self.queue.requeue(job)
            self._recovered_jobs += 1
            obs.add("serve.recovered")

    async def stop(self, grace_s: Optional[float] = None) -> None:
        """Graceful drain: stop admitting, let in-flight attempts
        finish within the grace period, checkpoint the rest, reap."""
        if self.draining:
            await self.drained.wait()
            return
        self.draining = True
        obs.add("serve.drains")
        grace = self.options.drain_grace_s if grace_s is None else grace_s
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self.pool.busy_workers() and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await self.pool.stop()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        # Everything still queued or running stays journaled as a
        # submit without a done — the checkpoint a restart picks up.
        self.journal.close()
        self.drained.set()

    # -- admission ---------------------------------------------------------

    async def submit(self, body: dict,
                     client: str) -> Tuple[int, dict, Dict[str, str]]:
        """One POST /v1/jobs: returns (http status, payload, headers)."""
        obs.add("serve.submitted")
        if self.draining:
            obs.add("serve.rejected.draining")
            return 503, {"error": "draining",
                         "message": "daemon is draining; resubmit "
                                    "elsewhere or later"}, {}
        allowed, retry_after = self.limiter.allow(client)
        if not allowed:
            return 429, {"error": "rate-limited", "client": client}, \
                {"Retry-After": str(retry_after)}
        loop = asyncio.get_running_loop()
        try:
            submission = await loop.run_in_executor(
                None, resolve_submission, body, self.options.run_dir,
                self.options.fingerprint())
        except ReproError as failure:
            obs.add("serve.rejected.invalid")
            return 400, {"error": type(failure).__name__,
                         "message": str(failure),
                         "context": error_context(failure)}, {}
        # Chaos drills (an ``inject`` plan) must actually run: they
        # bypass the cache and never coalesce, in either direction.
        injected = body.get("inject") is not None
        cached = None if injected else self.cache.get(submission.key)
        if cached is not None:
            return 200, {"cached": True, "key": submission.key,
                         "result": dict(cached)}, {}
        primary = (None if injected
                   else self._inflight_primary(submission.key))
        if primary is not None:
            job = self._make_record(submission, body, client)
            primary.followers.append(job)
            self.jobs[job.id] = job
            self._journal_submit(job)
            obs.add("serve.coalesced")
            return 202, {"id": job.id, "state": job.state,
                         "key": job.key, "coalesced_with": primary.id}, {}
        job = self._make_record(submission, body, client)
        admission = self.queue.offer(job)
        if not admission.admitted:
            return 429, {"error": admission.reason,
                         "queue_depth": self.queue.depth,
                         "queue_limit": self.queue.limit}, \
                {"Retry-After": str(admission.retry_after_s)}
        self.jobs[job.id] = job
        self._journal_submit(job)
        self._work.set()
        return 202, {"id": job.id, "state": job.state, "key": job.key,
                     "position": self.queue.depth}, {}

    def _make_record(self, submission, body: dict,
                     client: str) -> JobRecord:
        self._job_seq += 1
        loop = asyncio.get_event_loop()
        deadline_s = self.options.deadline_for(body.get("deadline_s"))
        job = JobRecord(
            id=f"j-{self._job_seq:08d}",
            job_source=submission.job_source,
            name=submission.name,
            job_class=str(body.get("class") or submission.job_class),
            key=submission.key,
            priority=int(body.get("priority", 5)),
            deadline_s=deadline_s,
            client=client,
            inject=body.get("inject"))
        job.deadline_at = loop.time() + deadline_s
        job.submitted_at = loop.time()
        return job

    def _journal_submit(self, job: JobRecord) -> None:
        self.journal.append_submit({
            "id": job.id, "job": job.job_source, "name": job.name,
            "job_class": job.job_class, "key": job.key,
            "priority": job.priority, "deadline_s": job.deadline_s,
            "inject": job.inject})

    def _inflight_primary(self, key: str) -> Optional[JobRecord]:
        for job in self.jobs.values():
            if job.key == key and not job.terminal and job.inject is None:
                return job
        return None

    # -- dispatch ----------------------------------------------------------

    async def _dispatch_loop(self) -> None:
        while True:
            await self._work.wait()
            self._work.clear()
            while not self.draining and len(self.queue):
                idle = self.pool.idle_workers()
                if not idle:
                    break
                job = self.queue.take()
                if job is None or job.terminal:
                    continue
                await self._assign(idle[0], job)

    async def _assign(self, worker: WorkerHandle, job: JobRecord) -> None:
        job.state = JOB_RUNNING
        job.notify()
        obs.add("serve.attempts")
        await self.pool.send_job(worker, job, attempt_spec(
            self.options, job.job_source, job.tier, job.key,
            inject=job.inject))

    # -- pool callbacks ----------------------------------------------------

    def _on_worker_idle(self, worker: WorkerHandle) -> None:
        self._work.set()

    def _on_result(self, worker: WorkerHandle, job: Optional[JobRecord],
                   payload: dict) -> None:
        telemetry = payload.pop("telemetry", None) or {}
        spans = payload.pop("spans", None)
        metrics = payload.pop("metrics", None)
        if job is None or job.terminal:
            obs.add("serve.result.late")
        else:
            before = len(job.attempts)
            self._conclude(job, self.policy.settle(job, payload))
            attempt = job.attempts[before]
            obs.record_worker_span(
                "serve.attempt", float(telemetry.get("wall_s", 0.0)),
                spans, metrics, origin=f"worker:{job.id}", job=job.name,
                id=job.id, tier=attempt.tier, result=attempt.result)
        self._maybe_recycle(worker)

    def _on_worker_exit(self, worker: WorkerHandle,
                        job: Optional[JobRecord], reason: str) -> None:
        if job is not None and not job.terminal:
            result, detail = degrade.death_verdict(
                worker.process.returncode, reason, self.options.timeout_s)
            self._conclude(job, self.policy.fail(job, result, detail))
        if not self.draining:
            asyncio.get_event_loop().create_task(self._replenish())

    async def _replenish(self) -> None:
        if not self.draining:
            await self.pool.ensure()
            self._work.set()

    def _maybe_recycle(self, worker: WorkerHandle) -> None:
        """Post-job health policy: retire old or bloated workers."""
        opts = self.options
        if worker.state != "idle":
            return
        if worker.jobs_served >= opts.max_jobs_per_worker:
            reason = "max-jobs"
        elif worker.peak_rss_kb >= opts.rss_watermark_kb:
            reason = "rss-watermark"
        else:
            return
        obs.add("serve.worker.recycled")
        self.pool.request_shutdown(worker, f"recycle:{reason}")

    # -- outcomes ----------------------------------------------------------

    def _conclude(self, job: JobRecord,
                  outcome: Optional[JobOutcome]) -> None:
        """Take the policy's verdict on ``job``'s latest attempt: finish
        it, or requeue it one tier down once its backoff has passed."""
        if len(self.policy.open) > self._breakers_opened:
            self._breakers_opened = len(self.policy.open)
            obs.add("serve.breaker.opened")
        if outcome is None:
            job.state = JOB_QUEUED
            job.notify()
            asyncio.get_event_loop().call_later(job.pending_backoff_s,
                                                self._requeue, job)
            return
        result = {"status": outcome.status, "tier": outcome.tier,
                  "tier_name": outcome.tier_name, "reason": outcome.reason,
                  "counts": dict(outcome.counts), "key": job.key}
        if outcome.context:
            result["context"] = dict(outcome.context)
        if outcome.status == STATUS_OK and job.inject is None:
            self.cache.put(job.key, result)
        self._finish(job, result)

    def _requeue(self, job: JobRecord) -> None:
        if job.terminal or self.drained.is_set():
            return
        self.queue.requeue(job)
        self._work.set()

    def _expire(self, job: JobRecord, reason: str) -> None:
        """Fail ``job`` on its request deadline (no attempt of its own)."""
        rung = degrade.tier(job.tier)
        self._conclude(job, JobOutcome(
            job=job.name, status=STATUS_FAILED, tier=rung.index,
            tier_name=rung.name, reason=reason))

    def _finish(self, job: JobRecord, result: dict) -> None:
        self._completed += 1
        obs.add(f"serve.jobs.{result['status'].lower()}")
        self.journal.append_done(job.id, result)
        job.finish(result)
        for follower in job.followers:
            if follower.terminal:
                continue
            follower.tier = job.tier
            coalesced = dict(result, coalesced=True)
            self._completed += 1
            obs.add(f"serve.jobs.{result['status'].lower()}")
            self.journal.append_done(follower.id, coalesced)
            follower.finish(coalesced)
        job.followers = []

    # -- the monitor (deadlines, health, population) -----------------------

    async def _monitor_loop(self) -> None:
        opts = self.options
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(max(0.05, opts.heartbeat_interval_s / 2))
            now = loop.time()
            # Per-request deadlines: queued jobs die quietly, running
            # jobs take their worker with them (cancel + reclaim).
            for job in list(self.jobs.values()):
                if job.terminal or now < job.deadline_at:
                    continue
                if job.state == JOB_QUEUED:
                    self.queue.remove(job)
                    obs.add("serve.deadline.queued")
                    self._expire(job, f"deadline exceeded after "
                                      f"{job.deadline_s:g}s in queue")
                elif job.state == JOB_RUNNING:
                    worker = self.pool.by_job(job.id)
                    obs.add("serve.deadline.running")
                    self._expire(job, f"deadline exceeded after "
                                      f"{job.deadline_s:g}s; attempt "
                                      f"cancelled")
                    if worker is not None:
                        self.pool.kill(worker, "deadline")
            if self.draining:
                continue
            # Attempt timeouts and wedged workers.
            for worker in list(self.pool.workers):
                if worker.state == "busy" and now > worker.attempt_deadline:
                    self.pool.kill(worker, "timeout")
                elif (worker.state in ("idle", "busy", "starting")
                        and now - worker.last_heartbeat
                        > opts.heartbeat_timeout_s):
                    self.pool.kill(worker, "heartbeat")
            if self.pool.live_count() < opts.workers:
                await self.pool.ensure()
                self._work.set()

    # -- introspection -----------------------------------------------------

    def job_info(self, job_id: str) -> Optional[JobRecord]:
        return self.jobs.get(job_id)

    @property
    def ready(self) -> bool:
        """Admitting and able to make progress."""
        return not self.draining and self.pool.live_count() > 0

    def describe(self) -> dict:
        return {
            "ready": self.ready,
            "draining": self.draining,
            "queue": {"depth": self.queue.depth,
                      "limit": self.queue.limit},
            "jobs": {"total": len(self.jobs),
                     "completed": self._completed,
                     "recovered": self._recovered_jobs},
            "workers": self.pool.describe(),
            "cache": self.cache.stats(),
            "breaker": {"open": dict(self.policy.open),
                        "counts": dict(self.policy.counts)},
        }


def _id_number(job_id: str) -> int:
    """The numeric tail of a ``j-%08d`` id (0 for foreign ids)."""
    _, _, tail = job_id.partition("-")
    try:
        return int(tail)
    except ValueError:
        return 0
