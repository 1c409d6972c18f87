"""The write-ahead journals: canonical bytes, recovery, torn tails."""

import json
import os
from unittest import mock

import pytest

from repro.errors import ServeError, SupervisorError
from repro.robustness.degrade import Attempt, JobOutcome
from repro.robustness.journal import (JOURNAL_NAME, SCHEMA_VERSION, Journal,
                                      canonical_json, load_outcomes)
from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                         SupervisorOptions)
from repro.serve.journal import ServeJournal


def _outcome(job="a.mc", status="OK", tier=0):
    return JobOutcome(job=job, status=status, tier=tier, tier_name="full",
                      attempts=(Attempt(0, "full", "ok"),),
                      counts={"optimized": 1})


def _meta(seed=7):
    return {"seed": seed, "jobs": ["a.mc", "b.mc"],
            "options": {"timeout_s": 5.0}}


def _write(run_dir, meta=None, outcomes=()):
    journal = Journal(str(run_dir))
    journal.open_fresh(meta or _meta())
    for index, outcome in enumerate(outcomes):
        journal.append_job(index, outcome)
    journal.close()
    return journal.path


def test_canonical_json_is_stable_and_compact():
    record = {"b": 2, "a": {"y": 1, "x": [3, 1]}}
    text = canonical_json(record)
    assert text == '{"a":{"x":[3,1],"y":1},"b":2}'
    assert canonical_json(json.loads(text)) == text


def test_journal_roundtrip(tmp_path):
    outcomes = [_outcome("a.mc"), _outcome("b.mc", status="DEGRADED", tier=1)]
    _write(tmp_path, outcomes=outcomes)
    recovered = Journal.recover(str(tmp_path))
    assert recovered.meta["seed"] == 7
    assert not recovered.torn_tail
    assert recovered.completed[0] == outcomes[0]
    assert recovered.completed[1] == outcomes[1]
    assert load_outcomes(str(tmp_path)) == outcomes


def test_job_records_contain_no_timing_fields(tmp_path):
    # The byte-identical resume contract forbids anything wall-clock
    # flavoured in job records (meta legitimately holds the timeout_s
    # *option*, which is configuration, not measurement).
    path = _write(tmp_path, outcomes=[_outcome()])
    job_lines = [line for line in open(path, encoding="utf-8")
                 if '"type":"job"' in line]
    assert job_lines
    for forbidden in ("time", "stamp", "pid", "duration", "wall", "elapsed"):
        for line in job_lines:
            assert forbidden not in line


def test_torn_tail_is_tolerated_and_truncated(tmp_path):
    path = _write(tmp_path, outcomes=[_outcome()])
    intact = os.path.getsize(path)
    with open(path, "ab") as handle:
        handle.write(b'{"type":"job","ind')  # SIGKILL mid-write
    recovered = Journal.recover(str(tmp_path))
    assert recovered.torn_tail
    assert recovered.valid_bytes == intact
    assert list(recovered.completed) == [0]

    journal = Journal(str(tmp_path))
    journal.open_recovered(recovered, _meta())
    journal.append_job(1, _outcome("b.mc"))
    journal.close()
    again = Journal.recover(str(tmp_path))
    assert not again.torn_tail
    assert sorted(again.completed) == [0, 1]


def test_mid_file_corruption_is_an_error(tmp_path):
    path = _write(tmp_path, outcomes=[_outcome()])
    lines = open(path, "rb").read().splitlines(keepends=True)
    with open(path, "wb") as handle:
        handle.write(lines[0] + b"{garbage\n" + lines[1])
    with pytest.raises(SupervisorError, match="corrupt journal record"):
        Journal.recover(str(tmp_path))


@pytest.mark.parametrize("line", [
    b"[1, 2]", b'"job"', b'{"type":"job","outcome":{}}',
    b'{"type":"job","index":1}', b'{"type":"job","index":"1","outcome":{}}',
    b'{"type":"job","index":1,"outcome":[1]}'],
    ids=["list", "string", "no-index", "no-outcome", "string-index",
         "list-outcome"])
def test_a_line_that_parses_but_is_no_record_is_corruption(tmp_path, line):
    path = _write(tmp_path, outcomes=[_outcome()])
    intact = open(path, "rb").read()
    later = canonical_json({"type": "job", "index": 2,
                            "outcome": _outcome("c.mc").to_json()})
    # Unlike a torn tail, such a line cannot come from an interrupted
    # append, so it is corruption wherever it stands.
    for tail in (later.encode() + b"\n", b""):
        with open(path, "wb") as handle:
            handle.write(intact + line + b"\n" + tail)
        with pytest.raises(SupervisorError,
                           match=f"corrupt journal record at byte "
                                 f"{len(intact)} "):
            Journal.recover(str(tmp_path))


@pytest.mark.parametrize("line", [
    b"[1, 2]", b'"submit"', b'{"type":"done","result":{}}',
    b'{"type":"submit","id":"j-2"}', b'{"type":"done","id":"j-1"}',
    b'{"type":"done","id":"j-1","result":[]}'],
    ids=["list", "string", "done-no-id", "submit-no-job", "done-no-result",
         "list-result"])
def test_a_serve_line_that_parses_but_is_no_record_is_corruption(
        tmp_path, line):
    journal = ServeJournal(str(tmp_path))
    journal.open_fresh({"seed": 0, "fingerprint": {"budget": 1000}})
    journal.append_submit({"id": "j-1", "job": "j-1.mc"})
    journal.close()
    intact = open(journal.path, "rb").read()
    with open(journal.path, "wb") as handle:
        handle.write(intact + line + b"\n"
                     + b'{"type":"submit","id":"j-3","job":"j-3.mc"}\n')
    with pytest.raises(ServeError, match=f"corrupt journal record at byte "
                                         f"{len(intact)} "):
        ServeJournal.recover(str(tmp_path))


def test_missing_journal_is_an_error(tmp_path):
    with pytest.raises(SupervisorError, match="no journal to resume"):
        Journal.recover(str(tmp_path))


def test_missing_meta_is_an_error(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text(canonical_json(
        {"type": "job", "index": 0, "outcome": _outcome().to_json()}) + "\n")
    with pytest.raises(SupervisorError, match="no meta record"):
        Journal.recover(str(tmp_path))


def test_check_meta_refuses_foreign_batches(tmp_path):
    _write(tmp_path)
    recovered = Journal.recover(str(tmp_path))
    same = {"version": SCHEMA_VERSION, **_meta()}
    Journal.check_meta(recovered, same)  # same: fine
    with pytest.raises(SupervisorError, match="seed mismatch"):
        Journal.check_meta(recovered,
                           {"version": SCHEMA_VERSION, **_meta(seed=8)})
    other_jobs = dict(same)
    other_jobs["jobs"] = ["a.mc"]
    with pytest.raises(SupervisorError, match="jobs mismatch"):
        Journal.check_meta(recovered, other_jobs)


def test_identical_writes_are_byte_identical(tmp_path):
    outcomes = [_outcome("a.mc"), _outcome("b.mc")]
    path_one = _write(tmp_path / "one", outcomes=outcomes)
    path_two = _write(tmp_path / "two", outcomes=outcomes)
    assert open(path_one, "rb").read() == open(path_two, "rb").read()


def test_resume_refuses_a_v1_journal_before_any_job_runs(tmp_path):
    # A v1 journal comes from the four-tier ladder, whose tier 1 was
    # "no-cache".  Today's ladder has no such tier, so the resume must
    # stop before running the remaining job, not after it while
    # rendering the report.
    program = tmp_path / "a.mc"
    program.write_text("proc main() { return 0; }")
    jobs = [JobSpec(str(program)), JobSpec(str(program))]
    degraded = JobOutcome(
        job="a.mc", status="DEGRADED", tier=1, tier_name="no-cache",
        reason="crash: worker died",
        attempts=(Attempt(0, "full", "crash"), Attempt(1, "no-cache", "ok")),
        counts={"optimized": 0})
    records = [{"type": "meta", "version": 1, "seed": 7,
                "jobs": [job.to_json() for job in jobs],
                "options": SupervisorOptions().fingerprint()},
               {"type": "job", "index": 0, "outcome": degraded.to_json()}]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    path = run_dir / JOURNAL_NAME
    path.write_text("".join(canonical_json(r) + "\n" for r in records))
    journaled = path.read_bytes()

    with mock.patch.object(BatchSupervisor, "_launch",
                           side_effect=AssertionError("a job ran")):
        with pytest.raises(SupervisorError,
                           match=f"schema v1 != v{SCHEMA_VERSION}"):
            BatchSupervisor([], str(run_dir), options=SupervisorOptions(),
                            resume=True).run()
    assert path.read_bytes() == journaled
    assert sorted(os.listdir(run_dir)) == [JOURNAL_NAME]
