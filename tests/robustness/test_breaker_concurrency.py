"""The circuit breaker and seeded backoff under concurrent failures.

Chaos crashes are process-level, so every test here pays for real
worker subprocesses.  The scenarios pin down three properties:

- a tripped class still *drains*: queued jobs of an open class get a
  definite FAILED, and a job that already descended the ladder keeps
  its next-tier attempt — the success path never consults the breaker;
- trip accounting is per class and bounded under ``--jobs N``;
- backoff and journal bytes are identical at any worker count.
"""

import json
import os

from repro.robustness.degrade import (STATUS_DEGRADED, STATUS_FAILED,
                                      STATUS_OK)
from repro.robustness.journal import JOURNAL_NAME
from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                         SupervisorOptions)

PROGRAM = """
proc main() {
    var v = input();
    if (v > 0) { if (v > 0) { print 1; } }
    return 0;
}
"""

SPLIT_FAULT = {"site": "transform:split", "hit": 1, "action": "raise"}

CRASH_ALL = {"kind": "crash", "tiers": [0, 1, 2]}
CRASH_T0 = {"kind": "crash", "tiers": [0]}


def _write_programs(tmp_path, names):
    paths = []
    for name in names:
        path = tmp_path / f"{name}.mc"
        path.write_text(PROGRAM)
        paths.append(str(path))
    return paths


def _options(**overrides):
    base = dict(timeout_s=20.0, backoff_base_s=0.0, seed=1)
    base.update(overrides)
    return SupervisorOptions(**base)


def _read(run_dir, name):
    with open(os.path.join(str(run_dir), name), "rb") as handle:
        return handle.read()


def _crashy_hard_attempts(report):
    return sum(1 for outcome in report.outcomes
               for attempt in outcome.attempts
               if attempt.result == "crash"
               and outcome.job.startswith("crashy"))


def test_serial_trip_is_exact_and_recovered_job_survives(tmp_path):
    # crashy1 crashes only at tier 0 and is scheduled first: it descends
    # and succeeds before its classmates burn the breaker.  crashy2
    # opens the breaker (3 consecutive hard deaths); crashy3 is drained
    # FAILED on its first crash; the healthy class never notices.
    c1, c2, c3, h1 = _write_programs(
        tmp_path, ["crashy1", "crashy2", "crashy3", "healthy1"])
    specs = [JobSpec(c1, inject=CRASH_T0),
             JobSpec(c2, inject=CRASH_ALL),
             JobSpec(c3, inject=CRASH_ALL),
             JobSpec(h1)]
    report = BatchSupervisor(
        specs, str(tmp_path / "run"),
        options=_options(jobs=1, breaker_threshold=3)).run()

    assert report.all_definite
    assert report.breaker_opened == ["crashy"]
    statuses = [o.status for o in report.outcomes]
    assert statuses == [STATUS_DEGRADED, STATUS_FAILED, STATUS_FAILED,
                        STATUS_OK]
    recovered = report.outcomes[0]
    assert recovered.tier == 1
    assert [a.result for a in recovered.attempts] == ["crash", "ok"]
    assert "circuit breaker open" in report.outcomes[1].reason
    assert "circuit breaker open" in report.outcomes[2].reason
    # 1 (crashy1) + 3 (crashy2 opens) + 1 (crashy3 drains) hard deaths.
    assert _crashy_hard_attempts(report) == 5


def test_concurrent_trip_never_steals_a_descended_jobs_success(tmp_path):
    # Three crashy jobs race under --jobs 3.  Whatever the collection
    # order, crashy1 (tier-0-only crash) must end DEGRADED at tier 1:
    # an open breaker fails *failing* attempts fast but never vetoes a
    # success already in flight.
    c1, c2, c3, h1, h2 = _write_programs(
        tmp_path, ["crashy1", "crashy2", "crashy3",
                   "healthy1", "healthy2"])
    specs = [JobSpec(c1, inject=CRASH_T0),
             JobSpec(c2, inject=CRASH_ALL),
             JobSpec(c3, inject=CRASH_ALL),
             JobSpec(h1), JobSpec(h2)]
    report = BatchSupervisor(
        specs, str(tmp_path / "run"),
        options=_options(jobs=3, breaker_threshold=4)).run()

    assert report.all_definite
    assert report.breaker_opened == ["crashy"]
    recovered = report.outcomes[0]
    assert recovered.status == STATUS_DEGRADED
    assert recovered.tier == 1
    assert [a.result for a in recovered.attempts] == ["crash", "ok"]
    assert {o.status for o in report.outcomes[1:3]} == {STATUS_FAILED}
    assert [o.status for o in report.outcomes[3:]] == [STATUS_OK,
                                                       STATUS_OK]
    # Concurrency widens the in-flight window but the count stays
    # bounded: each all-tier crasher dies at most once per tier, the
    # recovering job exactly once.
    hard = _crashy_hard_attempts(report)
    assert 4 <= hard <= 7


def test_faulted_retries_journal_identically_at_any_worker_count(tmp_path):
    # Seeded backoff + the ladder under concurrency: a batch where
    # every job retries once (in-optimizer fault, tier 0 -> 1) must
    # journal byte-identically with 1 and with 3 workers.
    sources = _write_programs(tmp_path, ["flaky1", "flaky2", "flaky3"])

    def run(jobs, run_dir):
        specs = [JobSpec(source, faults=(SPLIT_FAULT,), strict=True)
                 for source in sources]
        return BatchSupervisor(
            specs, str(run_dir),
            options=_options(jobs=jobs, backoff_base_s=0.01,
                             seed=7)).run()

    serial = run(1, tmp_path / "serial")
    parallel = run(3, tmp_path / "parallel")
    assert all(o.status == STATUS_DEGRADED for o in serial.outcomes)
    assert (_read(tmp_path / "serial", JOURNAL_NAME)
            == _read(tmp_path / "parallel", JOURNAL_NAME))
    # Backoffs are journaled (they shaped the run) and seeded: equal
    # per job across worker counts, non-zero after the first failure.
    records = [json.loads(line) for line in
               _read(tmp_path / "serial", JOURNAL_NAME).splitlines()]
    backoffs = [attempt["backoff_s"]
                for record in records if record["type"] == "job"
                for attempt in record["outcome"]["attempts"]
                if attempt["result"] == "ok"]
    assert len(backoffs) == 3
    assert all(b > 0 for b in backoffs)
