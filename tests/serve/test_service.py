"""The OptimizationService end to end, in process.

These tests drive the real service — resident worker subprocesses,
journal, cache, ladder — directly on an event loop, without HTTP.
Admission-only scenarios use ``workers=0`` so nothing dispatches and
queue/deadline behaviour is observable in isolation.
"""

import asyncio

from repro.serve.config import ServeOptions
from repro.serve.service import OptimizationService

PROGRAM = """
proc main() {
    var v = input();
    if (v > 0) { if (v > 0) { print 1; } }
    return 0;
}
"""


def _options(tmp_path, **overrides):
    settings = dict(run_dir=str(tmp_path / "run"), workers=1,
                    heartbeat_interval_s=0.1, heartbeat_timeout_s=10.0,
                    backoff_base_s=0.0, backoff_max_s=0.0,
                    timeout_s=30.0, drain_grace_s=3.0, seed=3)
    settings.update(overrides)
    return ServeOptions(**settings)


async def _await_done(service, job_id, timeout_s=30.0):
    job = service.jobs[job_id]
    await asyncio.wait_for(job.done_event().wait(), timeout_s)
    return job


async def _submit(service, body, client="tests"):
    return await service.submit(body, client)


def test_submit_runs_to_ok_then_identical_resubmit_is_cached(tmp_path):
    async def scenario():
        service = OptimizationService(_options(tmp_path))
        await service.start()
        try:
            status, payload, _ = await _submit(service,
                                               {"source": PROGRAM})
            assert status == 202 and payload["state"] == "queued"
            job = await _await_done(service, payload["id"])
            assert job.result["status"] == "OK"
            assert job.result["tier"] == 0
            assert job.result["counts"]
            # Byte-different, graph-identical resubmission: cache hit,
            # no new job id, no new attempt.
            status, hit, _ = await _submit(
                service, {"source": PROGRAM + "\n// restyled\n"})
            assert status == 200
            assert hit["cached"] is True
            assert hit["result"]["status"] == "OK"
            assert hit["key"] == payload["key"]
        finally:
            await service.stop(grace_s=0.5)

    asyncio.run(scenario())


def test_inflight_twins_coalesce_to_one_attempt(tmp_path):
    async def scenario():
        service = OptimizationService(_options(tmp_path))
        await service.start()
        try:
            s1, p1, _ = await _submit(service, {"source": PROGRAM})
            s2, p2, _ = await _submit(service, {"source": PROGRAM})
            assert (s1, s2) == (202, 202)
            assert p2["coalesced_with"] == p1["id"]
            leader = await _await_done(service, p1["id"])
            follower = await _await_done(service, p2["id"], timeout_s=5.0)
            assert leader.result["status"] == "OK"
            assert follower.result["status"] == "OK"
            assert follower.result["coalesced"] is True
            assert follower.attempts == []  # no work of its own
        finally:
            await service.stop(grace_s=0.5)

    asyncio.run(scenario())


def test_admission_refusals_rate_limit_queue_full_draining(tmp_path):
    async def scenario():
        # workers=0: no dispatch, pure admission control.
        service = OptimizationService(_options(
            tmp_path, workers=0, queue_limit=2,
            rate_capacity=3.0, rate_refill_per_s=0.001))
        await service.start()
        try:
            # Distinct suites: identical keys would coalesce with the
            # in-flight twin instead of consuming queue slots.
            s1, _, _ = await _submit(service, {"suite": "li_like@1"})
            s2, _, _ = await _submit(service, {"suite": "m88ksim_like@1"},
                                     client="other")
            s3, p3, h3 = await _submit(service, {"suite": "go_like@1"},
                                       client="other")
            assert (s1, s2) == (202, 202)
            assert s3 == 429 and p3["error"] == "queue-full"
            assert int(h3["Retry-After"]) >= 1
            # Fourth request from the first client trips its bucket.
            for _ in range(3):
                status, payload, headers = await _submit(
                    service, {"suite": "compress_like@1"})
            assert status == 429 and payload["error"] == "rate-limited"
            assert int(headers["Retry-After"]) >= 1
        finally:
            await service.stop(grace_s=0.0)
        # Draining: everything new is refused with 503.
        status, payload, _ = await _submit(service, {"source": PROGRAM})
        assert status == 503 and payload["error"] == "draining"

    asyncio.run(scenario())


def test_invalid_submissions_get_400_with_context(tmp_path):
    async def scenario():
        service = OptimizationService(_options(tmp_path, workers=0))
        await service.start()
        try:
            status, payload, _ = await _submit(service, {"suite": "nope@1"})
            assert status == 400
            assert "unknown suite" in payload["message"]
            status, payload, _ = await _submit(
                service, {"source": "proc main() { print 1 }"})
            assert status == 400 and payload["error"] == "ParseError"
            status, payload, _ = await _submit(service, {})
            assert status == 400 and "exactly one" in payload["message"]
        finally:
            await service.stop(grace_s=0.0)

    asyncio.run(scenario())


def test_queued_deadline_expiry_is_a_definite_failure(tmp_path):
    async def scenario():
        service = OptimizationService(_options(tmp_path, workers=0))
        await service.start()
        try:
            status, payload, _ = await _submit(
                service, {"source": PROGRAM, "deadline_s": 0.05})
            assert status == 202
            job = await _await_done(service, payload["id"], timeout_s=10.0)
            assert job.result["status"] == "FAILED"
            assert "deadline exceeded" in job.result["reason"]
            assert service.queue.depth == 0  # dequeued, not leaked
        finally:
            await service.stop(grace_s=0.0)

    asyncio.run(scenario())


def test_injected_crash_degrades_one_tier_and_pool_heals(tmp_path):
    async def scenario():
        service = OptimizationService(_options(tmp_path, workers=1))
        await service.start()
        try:
            status, payload, _ = await _submit(
                service, {"source": PROGRAM,
                          "inject": {"kind": "crash", "tiers": [0]}})
            assert status == 202
            job = await _await_done(service, payload["id"], timeout_s=45.0)
            assert job.result["status"] == "DEGRADED"
            assert job.result["tier"] == 1
            assert [a.result for a in job.attempts] == ["crash", "ok"]
            # The crashed worker was replaced, not mourned.
            deadline = asyncio.get_running_loop().time() + 10.0
            while (service.pool.live_count() < 1
                   and asyncio.get_running_loop().time() < deadline):
                await asyncio.sleep(0.05)
            assert service.pool.live_count() >= 1
            # A chaos job must never poison the cache: resubmitting the
            # same source without the inject runs fresh at tier 0.
            status, clean, _ = await _submit(service, {"source": PROGRAM})
            assert status == 202  # not a cache hit
            fresh = await _await_done(service, clean["id"])
            assert fresh.result["status"] == "OK"
        finally:
            await service.stop(grace_s=0.5)

    asyncio.run(scenario())


def test_restart_recovers_checkpointed_jobs_and_completes_them(tmp_path):
    options = _options(tmp_path, workers=0)

    async def interrupted():
        service = OptimizationService(options)
        await service.start()
        status, payload, _ = await _submit(service, {"source": PROGRAM})
        assert status == 202
        await service.stop(grace_s=0.0)  # dies with the job still queued
        return payload["id"]

    async def restarted(job_id):
        service = OptimizationService(_options(tmp_path, workers=1))
        await service.start()
        try:
            assert service.describe()["jobs"]["recovered"] == 1
            job = service.jobs[job_id]  # same id across the restart
            done = await _await_done(service, job.id)
            assert done.result["status"] == "OK"
        finally:
            await service.stop(grace_s=0.5)

    job_id = asyncio.run(interrupted())
    asyncio.run(restarted(job_id))


def test_breaker_opens_after_threshold_and_fails_fast(tmp_path):
    async def scenario():
        service = OptimizationService(_options(
            tmp_path, workers=1, breaker_threshold=2))
        await service.start()
        try:
            # Crash on every tier: two hard deaths open the breaker and
            # the job fails fast instead of descending the whole ladder.
            status, payload, _ = await _submit(
                service, {"source": PROGRAM, "class": "crashy",
                          "inject": {"kind": "crash",
                                     "tiers": [0, 1, 2]}})
            assert status == 202
            job = await _await_done(service, payload["id"], timeout_s=60.0)
            assert job.result["status"] == "FAILED"
            assert "circuit breaker open" in job.result["reason"]
            hard = [a for a in job.attempts if a.result == "crash"]
            assert len(hard) == 2
            assert service.describe()["breaker"]["open"].keys() == {"crashy"}
        finally:
            await service.stop(grace_s=0.5)

    asyncio.run(scenario())
