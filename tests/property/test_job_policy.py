"""The job policy both hosts run, fuzzed directly.

Random jobs of two or three classes each follow a random script of
attempt results — successes, structured failures, non-retryable input
errors and process deaths — interleaved in a random order, under
breaker thresholds 1-4 and random backoff options.  After every step
the policy must keep the ladder, breaker and backoff contracts that
``icbe batch`` and ``icbe serve`` document.
"""

from dataclasses import dataclass, field
from typing import List

from hypothesis import given, settings, strategies as st

from repro.robustness.degrade import (FLOOR_TIER, LADDER, STATUS_DEGRADED,
                                      STATUS_FAILED, STATUS_OK, Attempt,
                                      JobPolicy)
from repro.robustness.supervisor import SupervisorOptions

#: How a worker reports each scripted result it survives.
PAYLOADS = {
    "ok": {"ok": True, "counts": {"optimized": 1}},
    "error": {"ok": False, "error": "FaultInjected", "message": "boom",
              "kind": "error"},
    "verify-fail": {"ok": False, "error": "VerificationError",
                    "message": "dangling edge", "kind": "verify-fail"},
    "diff-mismatch": {"ok": False, "error": "DifferentialMismatch",
                      "message": "outputs differ", "kind": "diff-mismatch"},
    "oom": {"ok": False, "error": "MemoryError",
            "message": "memory cap (64MB) exhausted", "kind": "oom"},
    "parse-error": {"ok": False, "error": "ParseError",
                    "message": "1:9: expected ';'", "kind": "error"},
    "load-error": {"ok": False, "error": "FileNotFoundError",
                   "message": "cannot load job", "kind": "load-error",
                   "context": {"errno": 2}},
}
#: Results a host sees as the worker dying.
DEATHS = ("timeout", "killed", "crash", "no-result")
#: The breaker rule: these count, and only a success resets the count.
HARD = {"timeout", "killed", "crash", "no-result", "oom"}
NON_RETRYABLE = {"parse-error", "load-error"}
CLASSES = ("alpha", "beta", "gamma")


@dataclass
class _Job:
    name: str
    job_class: str
    backoff_key: str
    tier: int = 0
    attempts: List[Attempt] = field(default_factory=list)
    pending_backoff_s: float = 0.0


results = st.sampled_from(sorted(PAYLOADS) + list(DEATHS))
jobs = st.lists(st.tuples(st.sampled_from(CLASSES),
                          st.lists(results, min_size=len(LADDER),
                                   max_size=len(LADDER))),
                min_size=1, max_size=6)
options = st.builds(
    SupervisorOptions,
    seed=st.integers(0, 2**31 - 1),
    breaker_threshold=st.integers(1, 4),
    backoff_base_s=st.floats(0.0, 1.0),
    backoff_factor=st.floats(1.0, 3.0),
    backoff_jitter=st.floats(0.0, 1.0),
    backoff_max_s=st.floats(0.0, 2.0))


@given(options=options, jobs=jobs,
       order=st.lists(st.integers(0, 5), max_size=30))
@settings(max_examples=300, deadline=None)
def test_policy_keeps_the_ladder_breaker_and_backoff_contracts(
        options, jobs, order):
    policy = JobPolicy(options)
    records = [_Job(f"job{i}.mc", cls, f"{i}:job{i}.mc")
               for i, (cls, _) in enumerate(jobs)]
    scripts = [list(script) for _, script in jobs]
    outcomes = [None] * len(jobs)
    hard_since_success = {cls: 0 for cls in CLASSES}
    ever_reached = set()
    threshold = options.breaker_threshold

    def step(index):
        job, result = records[index], scripts[index].pop(0)
        tier_before, attempts_before = job.tier, len(job.attempts)
        backoff_before = job.pending_backoff_s
        was_open = job.job_class in policy.open
        if result in PAYLOADS:
            outcome = policy.settle(job, dict(PAYLOADS[result]))
        else:
            outcome = policy.fail(job, result, f"worker died: {result}")

        # The breaker opens exactly when the class's hard results since
        # its last success reach K, and never closes.
        if result in HARD:
            hard_since_success[job.job_class] += 1
        elif result == "ok":
            hard_since_success[job.job_class] = 0
        if hard_since_success[job.job_class] >= threshold:
            ever_reached.add(job.job_class)
        assert set(policy.open) == ever_reached
        assert policy.counts.get(job.job_class, 0) \
            == hard_since_success[job.job_class]
        if job.job_class in policy.open and not was_open:
            assert result in HARD
            assert hard_since_success[job.job_class] == threshold

        new = job.attempts[attempts_before]
        assert (new.tier, new.tier_name) == (tier_before,
                                             LADDER[tier_before].name)
        assert new.backoff_s == backoff_before
        if outcome is None:
            # A retryable failure: exactly one rung down, after a seeded
            # delay that depends only on (seed, job, attempt number).
            assert result != "ok" and result not in NON_RETRYABLE
            assert job.job_class not in policy.open
            assert job.tier == tier_before + 1 <= FLOOR_TIER
            assert len(job.attempts) == attempts_before + 1
            delay = job.pending_backoff_s
            assert delay == JobPolicy(options).backoff_delay(
                job.backoff_key, len(job.attempts))
            assert 0.0 <= delay <= options.backoff_max_s
            return
        outcomes[index] = outcome
        assert outcome.definite and job.tier == tier_before
        assert outcome.attempts == tuple(job.attempts)
        assert outcome.job == job.name
        assert (outcome.tier, outcome.tier_name) == (job.tier,
                                                     LADDER[job.tier].name)
        if outcome.status == STATUS_OK:
            assert result == "ok" and job.tier == 0
            assert outcome.counts == {"optimized": 1}
        elif outcome.status == STATUS_DEGRADED:
            assert result == "ok" and job.tier > 0
            first = job.attempts[0]
            assert outcome.reason == f"{first.result}: {first.detail}"
        else:
            assert outcome.status == STATUS_FAILED and result != "ok"
            if result in NON_RETRYABLE:
                assert outcome.reason.startswith("non-retryable: ")
            elif job.job_class in policy.open:
                assert job.attempts[-1].result == "circuit-open"
                assert outcome.reason.startswith(
                    f"circuit breaker open for class {job.job_class!r} "
                    f"after {threshold} consecutive hard failures; last: ")
            else:
                assert tier_before == FLOOR_TIER
                assert outcome.reason.startswith("failed at floor tier ")

    for index in order:
        if index < len(jobs) and outcomes[index] is None:
            step(index)
    for index in range(len(jobs)):
        while outcomes[index] is None:
            step(index)

    for job, outcome in zip(records, outcomes):
        # Every job ends definite within len(LADDER) + 1 attempts (the
        # last may be the breaker's circuit-open record), one tier per
        # real attempt, from the top.
        assert outcome is not None
        assert len(job.attempts) <= len(LADDER) + 1
        tried = [a.tier for a in job.attempts if a.result != "circuit-open"]
        assert tried == list(range(len(tried)))
