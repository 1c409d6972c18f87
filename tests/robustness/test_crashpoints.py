"""Crash-at-every-fault-point: recovery proofs for every durable surface.

The sweep arms one :class:`~repro.utils.durafs.FsFaultSpec` at a time —
errno, torn write, crash-before-rename, lying fsync — at every I/O site
a surface exposes, lets the surface die there, then recovers the way a
restarted process would and asserts the durability contract:

- journals (batch and serve) replay **byte-identically** to an
  uninterrupted run;
- the result cache reads as *miss, never wrong*;
- a journal write failure is a *definite* operator error (structured
  errno/path context, CLI exit 2) that never poisons ``--resume``.
"""

import errno
import os

import pytest

from repro.cli import main
from repro.errors import ServeError, SupervisorError
from repro.robustness.degrade import Attempt, JobOutcome
from repro.robustness.journal import JOURNAL_NAME, Journal
from repro.robustness.journal import SITE as BATCH_SITE
from repro.serve.cache import ResultCache
from repro.serve.journal import SITE as SERVE_SITE
from repro.serve.journal import ServeJournal
from repro.utils import durafs
from repro.utils.durafs import (Filesystem, FsFaultPlan, FsFaultSpec,
                                SimulatedCrash)

#: Anything a dying surface may legitimately raise: the wrapped
#: operator error, a raw OSError from a constructor, or the simulated
#: SIGKILL itself (which no handler is allowed to swallow).
DEATHS = (SupervisorError, ServeError, OSError, SimulatedCrash)


def _spec_id(spec):
    return f"{spec.op}-{spec.action}-hit{spec.hit}" + (
        f"-keep{spec.keep_bytes}" if spec.action == "torn" else "")


def _fault_matrix(site, appends):
    """Every (op, action, position) fault a journal surface can hit.

    ``appends`` is how many records the uninterrupted run writes: each
    append is one write and one fsync, so hits 1..appends place the
    fault under every record, from the meta header to the final entry.
    """
    specs = [FsFaultSpec(site, "open", hit=1, action="errno")]
    for hit in range(1, appends + 1):
        specs.append(FsFaultSpec(site, "write", hit=hit, action="errno"))
        specs.append(FsFaultSpec(site, "fsync", hit=hit, action="errno",
                                 err=errno.EIO))
        specs.append(FsFaultSpec(site, "write", hit=hit, action="crash"))
        specs.append(FsFaultSpec(site, "fsync", hit=hit, action="crash"))
        specs.append(FsFaultSpec(site, "write", hit=hit, action="torn",
                                 keep_bytes=(hit * 7) % 23))
    return specs


# ---------------------------------------------------------------------------
# The batch journal.
# ---------------------------------------------------------------------------

BATCH_META = {"seed": 7, "jobs": ["a.mc", "b.mc", "c.mc"],
              "options": {"timeout_s": 5.0}}


def _outcome(job):
    return JobOutcome(job=job, status="OK", tier=0, tier_name="full",
                      attempts=(Attempt(0, "full", "ok"),),
                      counts={"optimized": 1})


BATCH_OUTCOMES = [_outcome("a.mc"), _outcome("b.mc"), _outcome("c.mc")]


def _write_batch(run_dir, fs=None):
    journal = Journal(run_dir, fs=fs)
    journal.open_fresh(BATCH_META)
    for index, outcome in enumerate(BATCH_OUTCOMES):
        journal.append_job(index, outcome)
    journal.close()


def _resume_batch(run_dir):
    """What a restarted supervisor does: recover, truncate, replay."""
    journal = Journal(run_dir)
    try:
        recovered = Journal.recover(run_dir)
    except SupervisorError:
        recovered = None        # no file, or not even a durable meta
    if recovered is None:
        journal.open_fresh(BATCH_META)
        completed = {}
    else:
        journal.open_recovered(recovered, BATCH_META)
        completed = recovered.completed
        for index, outcome in completed.items():
            assert outcome == BATCH_OUTCOMES[index]   # never a wrong record
    for index, outcome in enumerate(BATCH_OUTCOMES):
        if index not in completed:
            journal.append_job(index, outcome)
    journal.close()


BATCH_FAULTS = _fault_matrix(BATCH_SITE, appends=4) + [
    # An fsync that lies about record k, then a crash on the next write:
    # record k evaporates *after* append() reported success.
    FsFaultPlan([FsFaultSpec(BATCH_SITE, "fsync", hit=k,
                             action="lying-fsync"),
                 FsFaultSpec(BATCH_SITE, "write", hit=k + 1,
                             action="crash")])
    for k in (1, 2, 3)]


@pytest.mark.parametrize(
    "fault", BATCH_FAULTS,
    ids=[_spec_id(f) if isinstance(f, FsFaultSpec)
         else f"lying-fsync-hit{f.specs[0].hit}" for f in BATCH_FAULTS])
def test_batch_journal_replays_byte_identically(tmp_path, fault):
    reference = str(tmp_path / "reference")
    _write_batch(reference)
    reference_bytes = open(os.path.join(reference, JOURNAL_NAME),
                           "rb").read()

    run_dir = str(tmp_path / "run")
    plan = fault if isinstance(fault, FsFaultPlan) else FsFaultPlan([fault])
    with pytest.raises(DEATHS):
        _write_batch(run_dir, fs=Filesystem(plan))
    assert plan.fired                             # the fault really fired

    _resume_batch(run_dir)                        # fresh process, good disk
    resumed = open(os.path.join(run_dir, JOURNAL_NAME), "rb").read()
    assert resumed == reference_bytes


# ---------------------------------------------------------------------------
# The serve journal.
# ---------------------------------------------------------------------------

SERVE_META = {"seed": 0, "fingerprint": {"budget": 1000}}


def _serve_submit(jid):
    return {"id": jid, "job": f"{jid}.mc", "name": jid, "job_class": "t",
            "key": f"key-{jid}", "priority": 5, "deadline_s": 300.0,
            "inject": None}


#: The canonical serve run: two admissions, one completion.
SERVE_OPS = [("submit", _serve_submit("j-1")),
             ("submit", _serve_submit("j-2")),
             ("done", "j-1", {"status": "OK", "tier": 0})]


def _write_serve(run_dir, fs=None):
    journal = ServeJournal(run_dir, fs=fs)
    journal.open_fresh(SERVE_META)
    for op in SERVE_OPS:
        if op[0] == "submit":
            journal.append_submit(op[1])
        else:
            journal.append_done(op[1], op[2])
    journal.close()


def _resume_serve(run_dir):
    journal = ServeJournal(run_dir)
    try:
        recovered = ServeJournal.recover(run_dir)
    except ServeError:
        recovered = None
    if recovered is None:
        journal.open_fresh(SERVE_META)
        submitted, done = set(), {}
    else:
        journal.open_recovered(recovered, SERVE_META)
        submitted = {r["id"] for r in recovered.submits}
        done = recovered.done
    for op in SERVE_OPS:
        if op[0] == "submit" and op[1]["id"] not in submitted:
            journal.append_submit(op[1])
        elif op[0] == "done" and op[1] not in done:
            journal.append_done(op[1], op[2])
    journal.close()


SERVE_FAULTS = _fault_matrix(SERVE_SITE, appends=4)


@pytest.mark.parametrize("fault", SERVE_FAULTS, ids=_spec_id)
def test_serve_journal_replays_byte_identically(tmp_path, fault):
    reference = str(tmp_path / "reference")
    _write_serve(reference)
    reference_bytes = open(ServeJournal(reference).path, "rb").read()

    run_dir = str(tmp_path / "run")
    plan = FsFaultPlan([fault])
    with pytest.raises(DEATHS):
        _write_serve(run_dir, fs=Filesystem(plan))
    assert plan.fired

    _resume_serve(run_dir)
    assert open(ServeJournal(run_dir).path, "rb").read() == reference_bytes


# ---------------------------------------------------------------------------
# The result cache: miss, never wrong.
# ---------------------------------------------------------------------------

CACHE_FAULTS = [
    FsFaultSpec("serve.cache", op, hit=1, action=action)
    for op in ("open", "write", "fsync", "rename")
    for action in ("errno", "crash")
] + [FsFaultSpec("serve.cache", "write", hit=1, action="torn",
                 keep_bytes=13)]


@pytest.mark.parametrize("fault", CACHE_FAULTS, ids=_spec_id)
def test_cache_put_faults_read_as_miss_never_wrong(tmp_path, fault):
    run_dir = str(tmp_path)
    result = {"status": "OK", "tier": 0}
    sick = ResultCache(run_dir, fingerprint={"budget": 7},
                       fs=Filesystem(FsFaultPlan([fault])))
    try:
        sick.put("deadbeef", result)
    except SimulatedCrash:
        pass
    fresh = ResultCache(run_dir, fingerprint={"budget": 7})
    got = fresh.get("deadbeef")
    assert got is None or got == result
    fresh.put("deadbeef", result)
    assert ResultCache(run_dir,
                       fingerprint={"budget": 7}).get("deadbeef") == result


# ---------------------------------------------------------------------------
# End to end through the CLI: a journal ENOSPC is a definite operator
# error (exit 2, structured context) and --resume finishes cleanly.
# ---------------------------------------------------------------------------

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


def test_batch_journal_enospc_exits_2_and_resumes_clean(tmp_path, capsys,
                                                        monkeypatch):
    prog = tmp_path / "prog.mc"
    prog.write_text(PROGRAM)
    flags = ["--seed", "3", "--backoff", "0"]

    clean_dir = str(tmp_path / "clean")
    assert main(["batch", str(prog), "--run-dir", clean_dir] + flags) == 0
    capsys.readouterr()

    # The disk fills when the first job outcome is journaled (append 1
    # is the meta header).  Gating the module-default Filesystem faults
    # the real CLI path with no constructor plumbing.
    run_dir = str(tmp_path / "run")
    monkeypatch.setattr(durafs, "DEFAULT_FS", Filesystem(
        FsFaultPlan.erroring(BATCH_SITE, op="write", hit=2)))
    code = main(["batch", str(prog), "--run-dir", run_dir] + flags)
    err = capsys.readouterr().err
    assert code == 2                              # definite, not DEGRADED
    assert "icbe: error:" in err
    assert "journal write failed" in err
    assert "icbe: context:" in err                # structured errno/path
    assert "errno" in err and JOURNAL_NAME in err

    # The disk recovers; --resume finishes the batch and the journal is
    # byte-identical to the uninterrupted run's.
    monkeypatch.setattr(durafs, "DEFAULT_FS", Filesystem())
    capsys.readouterr()
    assert main(["batch", str(prog), "--resume", run_dir]) == 0
    resumed = open(os.path.join(run_dir, JOURNAL_NAME), "rb").read()
    reference = open(os.path.join(clean_dir, JOURNAL_NAME), "rb").read()
    assert resumed == reference
