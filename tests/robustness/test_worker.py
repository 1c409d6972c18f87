"""The one attempt worker both hosts run: its frames, and how a host
judges a worker that ended without a result frame."""

import asyncio
import os
import signal
import time
from types import SimpleNamespace

import pytest

from repro import obs
from repro.robustness import worker
from repro.robustness.degrade import STATUS_FAILED, STATUS_OK, death_verdict
from repro.robustness.guards import DeadlineGuard
from repro.robustness.supervisor import (BatchReport, BatchSupervisor,
                                         JobSpec, SupervisorOptions,
                                         _JobState, _Running, run_batch)
from repro.serve.config import ServeOptions
from repro.serve.models import JobRecord
from repro.serve.service import OptimizationService

PROGRAM = """
proc main() {
    var v = input();
    if (v > 0) { if (v > 0) { print 1; } }
    return 0;
}
"""

#: (kill reason, exit status) -> batch's journaled (result, detail).
DEATHS = [
    ("timeout", -9, "timeout", "no result within 2.5s; worker killed"),
    ("heartbeat", -9, "killed", "worker killed (heartbeat)"),
    ("garbled-protocol", -9, "killed", "worker killed (garbled-protocol)"),
    ("", -9, "killed", "worker died on signal 9"),
    ("", -11, "killed", "worker died on signal 11"),
    ("", 134, "crash", "worker exited with code 134"),
    ("", 124, "crash", "worker exited with code 124"),
    ("", 1, "crash", "worker exited with code 1"),
    ("", 0, "no-result", "worker exited without a result"),
]


def test_frame_reader_counts_only_complete_frames():
    frames = worker.FrameReader()
    first = worker.encode_frame({"type": "ready", "pid": 7})
    second = worker.encode_frame({"type": "result", "payload": {"ok": True}})
    assert frames.feed(first + second[:5]) == [{"type": "ready", "pid": 7}]
    assert frames.feed(second[5:-1]) == []      # newline still missing
    assert frames.feed(second[-1:]) == [
        {"type": "result", "payload": {"ok": True}}]
    assert frames.feed(b"") == []
    with pytest.raises(ValueError):
        frames.feed(b"not json\n")


def _batch_attempt(tmp_path, kill_reason, exitcode):
    """The attempt batch records when its worker ended like this."""
    options = SupervisorOptions(timeout_s=2.5, backoff_base_s=0.0)
    spec = JobSpec(str(tmp_path / "prog.mc"))
    supervisor = BatchSupervisor([spec], str(tmp_path / "batch"),
                                 options=options)
    supervisor._report = BatchReport()
    state = _JobState(index=0, spec=spec)
    dead = _Running(state, pid=0, pipe=os.open(os.devnull, os.O_RDONLY),
                    deadline=DeadlineGuard(2.5).start())
    dead.kill_reason, dead.exitcode = kill_reason, exitcode
    supervisor._collect(dead)
    return state.attempts[0]


def _serve_attempt(tmp_path, kill_reason, exitcode):
    """The attempt serve records when its worker ended like this."""
    async def scenario():
        service = OptimizationService(ServeOptions(
            run_dir=str(tmp_path / "serve"), workers=0, timeout_s=2.5,
            backoff_base_s=0.0, backoff_max_s=0.0))
        job = JobRecord(id="j-00000001", job_source="prog.mc",
                        name="prog.mc", job_class="prog", key="k")
        dead = SimpleNamespace(process=SimpleNamespace(returncode=exitcode))
        service._on_worker_exit(dead, job, kill_reason)
        return job.attempts[0]
    return asyncio.run(scenario())


@pytest.mark.parametrize("kill_reason,exitcode,result,detail", DEATHS)
def test_both_hosts_judge_a_dead_worker_alike(tmp_path, kill_reason,
                                              exitcode, result, detail):
    assert death_verdict(exitcode, kill_reason, 2.5) == (result, detail)
    batch = _batch_attempt(tmp_path, kill_reason, exitcode)
    serve = _serve_attempt(tmp_path, kill_reason, exitcode)
    assert (batch.result, batch.detail) == (result, detail)
    assert (serve.result, serve.detail) == (result, detail)


def test_worker_killed_mid_frame_is_a_hard_failure_not_a_hang(
        tmp_path, monkeypatch):
    # Each attempt's worker writes half of a result frame larger than
    # the pipe buffer and SIGKILLs itself, after forking a process that
    # keeps a copy of the frame pipe open, so the pipe never reports
    # end-of-file while the batch runs.
    program = tmp_path / "prog.mc"
    program.write_text(PROGRAM)
    holders = tmp_path / "holders"
    send = worker._Channel.send

    def send_half_then_die(self, record):
        if record.get("type") != "result":
            return send(self, record)
        holder = os.fork()
        if holder == 0:
            time.sleep(60)
            os._exit(0)
        with open(holders, "a") as handle:
            handle.write(f"{holder}\n")
        data = worker.encode_frame(dict(record, pad="x" * 150_000))
        self._handle.write(data[:len(data) // 2])
        self._handle.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(worker._Channel, "send", send_half_then_die)
    options = SupervisorOptions(timeout_s=30.0, backoff_base_s=0.0, seed=1)
    started = time.monotonic()
    try:
        report = run_batch([str(program)], str(tmp_path / "run"),
                           options=options)
    finally:
        for pid in (holders.read_text().split() if holders.exists() else ()):
            try:
                os.kill(int(pid), signal.SIGKILL)
            except ProcessLookupError:
                pass
    assert time.monotonic() - started < options.timeout_s
    outcome = report.outcomes[0]
    assert outcome.status == STATUS_FAILED
    assert [(a.result, a.detail) for a in outcome.attempts] == [
        ("killed", "worker died on signal 9")] * 3


def test_traced_result_frame_larger_than_the_pipe_buffer(tmp_path,
                                                         monkeypatch):
    received = []
    feed = worker.FrameReader.feed

    def counting_feed(self, data):
        received.append(len(data))
        return feed(self, data)

    monkeypatch.setattr(worker.FrameReader, "feed", counting_feed)
    with obs.session() as active:
        report = run_batch(["suite:go_like@2"], str(tmp_path / "run"),
                           options=SupervisorOptions(timeout_s=30.0,
                                                     seed=3))
    assert sum(received) > 1 << 16
    assert report.outcomes[0].status == STATUS_OK
    spans = active.export_spans()
    adopted = [span for span in spans
               if (span.get("attrs") or {}).get("origin")]
    assert {"worker.attempt", "optimize"} <= {span["name"]
                                             for span in adopted}
