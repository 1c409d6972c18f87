"""The batch supervisor: ladder, breaker, journal, resume, determinism.

Every attempt runs in a forked worker, as under ``icbe batch``; the
tests keep their programs small and their backoffs at zero.  Chaos
injection (hang/crash/oom) needs a worker to kill, so only those tests
set short timeouts or memory caps of their own.
"""

import os
from dataclasses import fields

import pytest

from repro.errors import SupervisorError
from repro.robustness.degrade import (STATUS_DEGRADED, STATUS_FAILED,
                                      STATUS_OK, JobOptions, JobPolicy)
from repro.robustness.journal import Journal
from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                         REPORT_NAME, SupervisorOptions,
                                         _JobState, job_class_of, run_batch)

PROGRAM = """
proc classify(v) {
    if (v <= 0) { return 0; }
    return v;
}
proc main() {
    var r = classify(input());
    if (r == 0) { print 0; } else { print r; }
    return 0;
}
"""

SPLIT_FAULT = {"site": "transform:split", "hit": 1, "action": "raise"}


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text(PROGRAM)
    return str(path)


def _options(**overrides):
    base = dict(backoff_base_s=0.0, timeout_s=10.0, seed=3)
    base.update(overrides)
    return SupervisorOptions(**base)


def _read(run_dir, name):
    with open(os.path.join(str(run_dir), name), "rb") as handle:
        return handle.read()


def test_job_class_strips_trailing_digits():
    assert job_class_of("gen3.mc") == "gen"
    assert job_class_of("gen17.mc") == "gen"
    assert job_class_of("/some/dir/crashy_2.mc") == "crashy"
    assert job_class_of("plain") == "plain"
    assert job_class_of("123.mc") == "123"  # all-digit stems keep the stem


def test_empty_batch_is_rejected(tmp_path):
    with pytest.raises(SupervisorError, match="no jobs"):
        BatchSupervisor([], str(tmp_path))


def test_clean_batch_all_ok(program_file, tmp_path):
    run_dir = tmp_path / "run"
    report = run_batch([program_file, "suite:li_like@1"], str(run_dir),
                       options=_options())
    assert [o.status for o in report.outcomes] == [STATUS_OK, STATUS_OK]
    assert report.all_definite
    assert report.total_retries == 0
    assert report.outcomes[0].counts["optimized"] >= 1
    assert report.outcomes[0].counts["nodes_after"] > 0
    # Journal and report landed on disk.
    assert len(Journal.recover(str(run_dir)).completed) == 2
    assert b"statuses: OK=2" in _read(run_dir, REPORT_NAME)


def test_parse_error_fails_fast_without_descending(tmp_path):
    bad = tmp_path / "bad.mc"
    bad.write_text("proc main() { print 1 }")  # missing ';'
    report = run_batch([str(bad)], str(tmp_path / "run"), options=_options())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_FAILED
    assert "non-retryable" in outcome.reason
    assert len(outcome.attempts) == 1  # the ladder was skipped
    assert outcome.attempts[0].tier == 0


def test_missing_file_fails_fast(tmp_path):
    report = run_batch([str(tmp_path / "ghost.mc")], str(tmp_path / "run"),
                       options=_options())
    assert report.outcomes[0].status == STATUS_FAILED
    assert "non-retryable" in report.outcomes[0].reason


def test_strict_fault_descends_exactly_one_tier_per_attempt(
        program_file, tmp_path):
    spec = JobSpec(program_file, faults=(SPLIT_FAULT,), strict=True)
    report = BatchSupervisor([spec], str(tmp_path / "run"),
                             options=_options()).run()
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_DEGRADED
    # One tier per attempt, starting from the top, until a tier the
    # fault no longer reaches (here: intra never splits this program,
    # so transform:split is never hit at tier 1).
    tiers = [a.tier for a in outcome.attempts]
    assert tiers == list(range(len(tiers)))
    assert outcome.tier == tiers[-1] >= 1
    assert outcome.attempts[-1].result == "ok"
    assert all(a.result == "error" for a in outcome.attempts[:-1])
    assert "FaultInjected" in outcome.reason


def test_backoff_is_seeded_bounded_and_order_independent(program_file):
    # The batch keys a job's backoff by its index and source, never by
    # when it happened to run.
    key = _JobState(index=0, spec=JobSpec(program_file)).backoff_key
    assert key == f"0:{program_file}"
    policy = JobPolicy(_options(seed=11, backoff_base_s=0.01))
    first = policy.backoff_delay(key, 1)  # one failure so far
    assert first == policy.backoff_delay(key, 1)  # pure function
    assert 0.0 <= first <= policy.options.backoff_max_s
    second = policy.backoff_delay(key, 2)
    assert second != first  # attempt number feeds the derivation
    other_seed = JobPolicy(_options(seed=12, backoff_jitter=1.0,
                                    backoff_base_s=0.5))
    assert other_seed.backoff_delay(key, 1) != first


def test_fingerprint_is_every_job_option_but_the_seed():
    # ``--resume`` checks the journaled fingerprint, so it must hold
    # every option that can shape an outcome; the seed is journaled on
    # its own and ``jobs`` only schedules.  The names are today's meta
    # keys: a new job option changes every journal's bytes.
    fingerprint = _options().fingerprint()
    assert set(fingerprint) == ({option.name for option in fields(JobOptions)}
                                - {"seed"})
    assert sorted(fingerprint) == [
        "backoff_base_s", "backoff_factor", "backoff_jitter",
        "backoff_max_s", "breaker_threshold", "budget",
        "conditional_deadline_s", "diff_check", "duplication_limit",
        "memory_mb", "timeout_s"]


def test_identical_seeded_runs_are_byte_identical(program_file, tmp_path):
    # The determinism regression: journal AND report bytes must match
    # across two fresh runs with the same jobs and seed, including a
    # multi-attempt (faulted) job with recorded backoffs.
    def batch(run_dir):
        specs = [JobSpec(program_file),
                 JobSpec(program_file, name="faulted.mc",
                         faults=(SPLIT_FAULT,), strict=True)]
        BatchSupervisor(specs, str(run_dir),
                        options=_options(seed=5, backoff_base_s=0.01)).run()

    batch(tmp_path / "one")
    batch(tmp_path / "two")
    assert (_read(tmp_path / "one", "journal.jsonl")
            == _read(tmp_path / "two", "journal.jsonl"))
    assert (_read(tmp_path / "one", REPORT_NAME)
            == _read(tmp_path / "two", REPORT_NAME))


def _truncated_resume_dirs(program_file, tmp_path, mutilate):
    """Run a 3-job batch clean (dir 'full'), then replay it in dir
    'cut' with the journal mutilated mid-run, resume, and return both
    directories for byte comparison."""
    specs = lambda: [JobSpec(program_file),  # noqa: E731
                     JobSpec(program_file, name="faulted.mc",
                             faults=(SPLIT_FAULT,), strict=True),
                     JobSpec(program_file, name="third.mc")]
    options = lambda: _options(seed=9)  # noqa: E731
    full, cut = tmp_path / "full", tmp_path / "cut"
    BatchSupervisor(specs(), str(full), options=options()).run()
    BatchSupervisor(specs(), str(cut), options=options()).run()
    mutilate(os.path.join(str(cut), "journal.jsonl"))
    os.remove(os.path.join(str(cut), REPORT_NAME))
    report = BatchSupervisor(specs(), str(cut), options=options(),
                             resume=True).run()
    return full, cut, report


def test_resume_after_interruption_is_byte_identical(program_file, tmp_path):
    def keep_meta_and_first_job(path):
        lines = open(path, "rb").read().splitlines(keepends=True)
        open(path, "wb").write(b"".join(lines[:2]))

    full, cut, report = _truncated_resume_dirs(
        program_file, tmp_path, keep_meta_and_first_job)
    assert report.resumed_jobs == 1
    assert _read(full, "journal.jsonl") == _read(cut, "journal.jsonl")
    assert _read(full, REPORT_NAME) == _read(cut, REPORT_NAME)


def test_resume_with_torn_tail_is_byte_identical(program_file, tmp_path):
    def tear_the_tail(path):
        lines = open(path, "rb").read().splitlines(keepends=True)
        open(path, "wb").write(b"".join(lines[:2]) + lines[2][:17])

    full, cut, report = _truncated_resume_dirs(
        program_file, tmp_path, tear_the_tail)
    assert report.resumed_jobs == 1
    assert _read(full, "journal.jsonl") == _read(cut, "journal.jsonl")
    assert _read(full, REPORT_NAME) == _read(cut, REPORT_NAME)


def test_resume_adopts_journal_seed_and_options(program_file, tmp_path):
    run_dir = tmp_path / "run"
    BatchSupervisor([JobSpec(program_file)], str(run_dir),
                    options=_options(seed=42, timeout_s=7.5)).run()
    resumed = BatchSupervisor([JobSpec(program_file)], str(run_dir),
                              options=_options(seed=0, timeout_s=60.0),
                              resume=True)
    report = resumed.run()
    assert resumed.options.seed == 42          # journal meta wins
    assert resumed.options.timeout_s == 7.5
    assert report.resumed_jobs == 1            # nothing re-ran


def test_resume_refuses_a_different_job_list(program_file, tmp_path):
    run_dir = tmp_path / "run"
    BatchSupervisor([JobSpec(program_file)], str(run_dir),
                    options=_options()).run()
    with pytest.raises(SupervisorError, match="jobs mismatch"):
        BatchSupervisor([JobSpec(program_file), JobSpec(program_file)],
                        str(run_dir), options=_options(), resume=True).run()


def test_resume_without_explicit_jobs_reloads_them(program_file, tmp_path):
    run_dir = tmp_path / "run"
    BatchSupervisor([JobSpec(program_file)], str(run_dir),
                    options=_options()).run()
    report = BatchSupervisor([], str(run_dir), options=_options(),
                             resume=True).run()
    assert len(report.outcomes) == 1
    assert report.outcomes[0].status == STATUS_OK


# -- chaos injection (a worker to hang, crash or exhaust memory) --------


def test_hang_is_killed_and_job_degrades_one_tier(program_file, tmp_path):
    spec = JobSpec(program_file, inject={"kind": "hang", "tiers": [0]})
    report = BatchSupervisor(
        [spec], str(tmp_path / "run"),
        options=SupervisorOptions(timeout_s=1.0, backoff_base_s=0.0,
                                  seed=1)).run()
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_DEGRADED
    assert outcome.tier == 1  # exactly one tier beyond necessity: none
    assert outcome.attempts[0].result == "timeout"
    assert outcome.kills == 1
    assert report.total_kills == 1


def test_crash_is_contained_and_job_degrades_one_tier(
        program_file, tmp_path):
    spec = JobSpec(program_file, inject={"kind": "crash", "tiers": [0]})
    report = BatchSupervisor(
        [spec], str(tmp_path / "run"),
        options=SupervisorOptions(timeout_s=10.0, backoff_base_s=0.0,
                                  seed=1)).run()
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_DEGRADED
    assert outcome.tier == 1
    assert outcome.attempts[0].result == "crash"
    assert "134" in outcome.attempts[0].detail


def test_oom_is_contained_and_job_degrades_one_tier(program_file, tmp_path):
    # The forked worker inherits this process's address space, so the
    # cap gives it a fixed headroom above that: the injected allocation
    # hits the cap at tier 0, and tier 1 runs the program within it.
    with open("/proc/self/status", encoding="utf-8") as status:
        vsz_kb = next(int(line.split()[1]) for line in status
                      if line.startswith("VmSize:"))
    spec = JobSpec(program_file, inject={"kind": "oom", "tiers": [0]})
    report = BatchSupervisor(
        [spec], str(tmp_path / "run"),
        options=SupervisorOptions(memory_mb=vsz_kb // 1024 + 128,
                                  timeout_s=30.0, backoff_base_s=0.0,
                                  seed=1)).run()
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_DEGRADED
    assert outcome.tier == 1
    assert outcome.attempts[0].result == "oom"
    assert "memory cap" in outcome.attempts[0].detail


def test_circuit_breaker_stops_a_failing_class(tmp_path):
    # Two jobs of one class, both crashing at every tier: after the
    # threshold of consecutive hard failures the class is cut off and
    # both jobs finalize FAILED instead of burning the whole ladder.
    sources = []
    for index in (1, 2):
        path = tmp_path / f"crashy{index}.mc"
        path.write_text(PROGRAM)
        sources.append(str(path))
    specs = [JobSpec(source,
                     inject={"kind": "crash", "tiers": [0, 1, 2]})
             for source in sources]
    report = BatchSupervisor(
        [*specs], str(tmp_path / "run"),
        options=SupervisorOptions(timeout_s=10.0, backoff_base_s=0.0,
                                  breaker_threshold=2, seed=1)).run()
    assert report.breaker_opened == ["crashy"]
    assert [o.status for o in report.outcomes] == [STATUS_FAILED,
                                                   STATUS_FAILED]
    assert any("circuit breaker open" in o.reason for o in report.outcomes)
    hard_attempts = sum(
        1 for o in report.outcomes for a in o.attempts if a.result == "crash")
    assert hard_attempts <= 2 + 1  # threshold plus one in-flight attempt


def test_parallel_workers_keep_journal_bytes_identical(
        program_file, tmp_path):
    sources = [program_file] * 3 + ["suite:compress_like@1"]
    options = lambda jobs: SupervisorOptions(  # noqa: E731
        jobs=jobs, timeout_s=30.0, backoff_base_s=0.0, seed=6)
    run_batch(sources, str(tmp_path / "serial"), options=options(1))
    run_batch(sources, str(tmp_path / "wide"), options=options(3))
    assert (_read(tmp_path / "serial", "journal.jsonl")
            == _read(tmp_path / "wide", "journal.jsonl"))
    assert (_read(tmp_path / "serial", REPORT_NAME)
            == _read(tmp_path / "wide", REPORT_NAME))
