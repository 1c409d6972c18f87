"""Loader failures are definite, contextual, and non-retryable.

A job whose *input* cannot be loaded (file deleted, unknown suite
reference, unreadable bytes) must fail exactly once with a structured
``context`` — not crash the supervisor, and not burn the whole
degradation ladder retrying an error no tier can fix.
"""

import json
import os
import signal

import pytest

from repro.robustness.degrade import (Attempt, JobOutcome, STATUS_FAILED,
                                      STATUS_OK)
from repro.robustness.journal import JOURNAL_NAME, Journal
from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                         SupervisorOptions, run_batch)
from repro.robustness.worker import run_attempt

PROGRAM = """
proc main() {
    var v = input();
    if (v > 0) { if (v > 0) { print 1; } }
    return 0;
}
"""


def _options(**overrides):
    base = dict(backoff_base_s=0.0, timeout_s=10.0, seed=3)
    base.update(overrides)
    return SupervisorOptions(**base)


def _spec(job):
    return {"job": job, "tier": 0, "budget": 1000,
            "duplication_limit": 100, "diff_check": True, "diff_seed": 1,
            "conditional_deadline_s": None, "timeout_s": None,
            "memory_mb": None, "inject": None, "faults": [],
            "strict": False, "trace": False}


def test_worker_reports_a_missing_file_as_a_load_error():
    payload = run_attempt(_spec("/nope/missing.mc"))
    assert payload["ok"] is False
    assert payload["kind"] == "load-error"
    assert payload["context"]["source"] == "/nope/missing.mc"
    assert payload["context"]["errno"] == 2
    assert payload["context"]["path"] == "/nope/missing.mc"


def test_worker_reports_an_unknown_suite_as_a_load_error():
    payload = run_attempt(_spec("suite:nope@2"))
    assert payload["kind"] == "load-error"
    assert payload["context"]["source"] == "suite:nope@2"
    assert "cannot load job" in payload["message"]


def test_batch_fails_a_missing_input_definitely_with_context(tmp_path):
    report = run_batch(["/nope/missing.mc", "suite:li_like@1"],
                       str(tmp_path / "run"), options=_options())
    assert report.all_definite
    failed, healthy = report.outcomes
    assert (failed.status, healthy.status) == (STATUS_FAILED, STATUS_OK)
    # One attempt, no ladder descent: the error is input-side.
    assert len(failed.attempts) == 1
    assert failed.tier == 0
    assert "non-retryable" in failed.reason
    assert failed.context["errno"] == 2
    assert failed.context["path"] == "/nope/missing.mc"
    # The context survives the journal round trip.
    recovered = Journal.recover(str(tmp_path / "run")).completed
    assert recovered[0].context["errno"] == 2
    assert recovered[0].attempts[0].context["path"] == "/nope/missing.mc"


def test_batch_fails_an_unknown_suite_without_retries(tmp_path):
    report = run_batch(["suite:nope@2"], str(tmp_path / "run"),
                       options=_options())
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_FAILED
    assert len(outcome.attempts) == 1
    assert outcome.context["source"] == "suite:nope@2"


def test_input_deleted_between_drain_and_resume(tmp_path, monkeypatch):
    # The satellite scenario: a batch is drained, someone deletes an
    # input file, --resume must finish with a definite FAILED for that
    # job (structured context) instead of an escaping exception.
    doomed = tmp_path / "doomed.mc"
    doomed.write_text(PROGRAM)
    jobs = ["suite:li_like@1", str(doomed), "suite:go_like@1"]
    run_dir = str(tmp_path / "run")

    original = BatchSupervisor._classify_structured

    def classify_then_signal(self, state, payload, supervisor_wall_s):
        original(self, state, payload, supervisor_wall_s)
        self._drain_signum = signal.SIGTERM

    from repro.errors import SupervisorDrained
    with monkeypatch.context() as patched:
        patched.setattr(BatchSupervisor, "_classify_structured",
                        classify_then_signal)
        with pytest.raises(SupervisorDrained):
            run_batch(jobs, run_dir, options=_options())

    os.remove(doomed)
    report = BatchSupervisor([], run_dir, options=_options(),
                             resume=True).run()
    assert report.all_definite
    assert [o.status for o in report.outcomes] == [STATUS_OK, STATUS_FAILED,
                                                   STATUS_OK]
    deleted = report.outcomes[1]
    assert len(deleted.attempts) == 1
    assert deleted.context["errno"] == 2
    assert deleted.context["path"] == str(doomed)


def test_load_errors_are_contained_under_process_isolation(tmp_path):
    # Same contract when the attempt runs in a real worker subprocess.
    report = run_batch(["/nope/missing.mc"], str(tmp_path / "run"),
                       options=SupervisorOptions(timeout_s=20.0,
                                                 backoff_base_s=0.0,
                                                 seed=3))
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_FAILED
    assert len(outcome.attempts) == 1
    assert outcome.context["errno"] == 2


def test_empty_context_is_not_serialized(tmp_path):
    # The determinism guard: journals written before ``context`` existed
    # must stay byte-identical, so an empty context never appears.
    assert "context" not in Attempt(tier=0, tier_name="full",
                                    result="ok").to_json()
    assert "context" in Attempt(tier=0, tier_name="full", result="error",
                                context={"errno": 2}).to_json()
    outcome = JobOutcome(job="a", status=STATUS_OK, tier=0,
                         tier_name="full")
    assert "context" not in outcome.to_json()
    # And a clean batch's journal bytes contain no context key at all.
    program = tmp_path / "clean.mc"
    program.write_text(PROGRAM)
    run_batch([str(program)], str(tmp_path / "run"), options=_options())
    raw = open(os.path.join(str(tmp_path / "run"), JOURNAL_NAME),
               "rb").read()
    assert b'"context"' not in raw
    assert json.loads(raw.splitlines()[1])["outcome"]["status"] == "OK"
