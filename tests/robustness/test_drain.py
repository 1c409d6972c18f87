"""Graceful drain of ``icbe batch``: SIGTERM/SIGINT checkpointing.

A signal mid-batch must not lose admitted work: completed jobs stay
journaled, interrupted ones stay pending, ``--resume`` finishes the
batch, and the finished journal + report are byte-identical to an
uninterrupted run.  Most tests drive the supervisor's drain flag
deterministically between attempts; one test delivers a real SIGTERM
to the CLI and watches the conventional exit codes (143/130).
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import SupervisorDrained
from repro.robustness.journal import JOURNAL_NAME
from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                         REPORT_NAME, SupervisorOptions,
                                         run_batch)

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

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


def _read(run_dir, name):
    with open(os.path.join(str(run_dir), name), "rb") as handle:
        return handle.read()


def _drain_after_first_job(monkeypatch, signum):
    """Flip the supervisor's drain flag right after its first job
    classifies — the deterministic stand-in for a mid-batch signal."""
    original = BatchSupervisor._classify_structured

    def classify_then_signal(self, state, payload, supervisor_wall_s):
        original(self, state, payload, supervisor_wall_s)
        self._drain_signum = signum

    monkeypatch.setattr(BatchSupervisor, "_classify_structured",
                        classify_then_signal)


@pytest.mark.parametrize("signum,code", [(signal.SIGTERM, 143),
                                         (signal.SIGINT, 130)])
def test_drain_checkpoints_and_resume_is_byte_identical(
        tmp_path, monkeypatch, signum, code):
    jobs = ["suite:li_like@1", "suite:go_like@1", "suite:compress_like@1"]
    run_dir = str(tmp_path / "run")
    reference_dir = str(tmp_path / "reference")

    with monkeypatch.context() as patched:
        _drain_after_first_job(patched, signum)
        with pytest.raises(SupervisorDrained) as caught:
            run_batch(jobs, run_dir, options=_options())
    drained = caught.value
    assert drained.exit_code == code
    assert (drained.context["completed"], drained.context["total"]) == (1, 3)
    assert "finish with --resume" in str(drained)
    # The journal holds exactly the completed prefix, nothing torn.
    lines = [json.loads(line)
             for line in _read(run_dir, JOURNAL_NAME).splitlines()]
    assert [r["type"] for r in lines] == ["meta", "job"]
    # No report: the batch is not done and must not pretend to be.
    assert not os.path.exists(os.path.join(run_dir, REPORT_NAME))

    resumed = BatchSupervisor([], run_dir, options=_options(),
                              resume=True).run()
    assert resumed.resumed_jobs == 1
    assert [o.status for o in resumed.outcomes] == ["OK", "OK", "OK"]

    run_batch(jobs, reference_dir, options=_options())
    assert (_read(run_dir, JOURNAL_NAME)
            == _read(reference_dir, JOURNAL_NAME))
    assert _read(run_dir, REPORT_NAME) == _read(reference_dir, REPORT_NAME)


def test_drain_before_any_job_completes_nothing(tmp_path, monkeypatch):
    run_dir = str(tmp_path / "run")
    supervisor = BatchSupervisor([JobSpec(source="suite:li_like@1")],
                                 run_dir, options=_options())
    supervisor._drain_signum = signal.SIGTERM  # signal beat the first job
    with pytest.raises(SupervisorDrained) as caught:
        supervisor.run()
    assert (caught.value.context["completed"],
            caught.value.context["total"]) == (0, 1)
    lines = _read(run_dir, JOURNAL_NAME).splitlines()
    assert len(lines) == 1  # meta only


def test_signal_handler_only_sets_the_flag(tmp_path):
    supervisor = BatchSupervisor([JobSpec(source="suite:li_like@1")],
                                 str(tmp_path / "run"), options=_options())
    assert supervisor._drain_signum == 0
    supervisor._on_signal(signal.SIGTERM, None)
    assert supervisor._drain_signum == signal.SIGTERM


def test_handlers_are_installed_and_restored():
    before_term = signal.getsignal(signal.SIGTERM)
    before_int = signal.getsignal(signal.SIGINT)
    supervisor = BatchSupervisor.__new__(BatchSupervisor)
    supervisor._drain_signum = 0
    previous = supervisor._install_drain_handlers()
    try:
        assert signal.getsignal(signal.SIGTERM) == supervisor._on_signal
        assert signal.getsignal(signal.SIGINT) == supervisor._on_signal
    finally:
        BatchSupervisor._restore_drain_handlers(previous)
    assert signal.getsignal(signal.SIGTERM) == before_term
    assert signal.getsignal(signal.SIGINT) == before_int


def test_cli_sigterm_drains_with_exit_143_and_resume_finishes(tmp_path):
    program = tmp_path / "prog.mc"
    program.write_text(PROGRAM)
    run_dir = str(tmp_path / "run")
    jobs = [str(program), "suite:li_like@1", "suite:go_like@1",
            "suite:compress_like@1", "suite:m88ksim_like@1"]
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "batch", "--run-dir", run_dir,
         "--seed", "3", "--timeout", "30", *jobs],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    journal = os.path.join(run_dir, JOURNAL_NAME)
    try:
        # Wait until at least one job has been journaled, then SIGTERM.
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                pytest.fail(f"batch finished before the signal landed: "
                            f"{proc.stderr.read().decode()}")
            try:
                with open(journal, "rb") as handle:
                    if sum(1 for _ in handle) >= 2:  # meta + >=1 result
                        break
            except OSError:
                pass
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        stdout, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143, stderr.decode()
    assert b"batch drained on SIGTERM" in stderr
    assert b"finish with --resume" in stderr

    finish = subprocess.run(
        [sys.executable, "-m", "repro.cli", "batch", "--resume", run_dir],
        env=env, capture_output=True, timeout=300)
    assert finish.returncode == 0, finish.stderr.decode()
    lines = [json.loads(line)
             for line in _read(run_dir, JOURNAL_NAME).splitlines()]
    results = [r for r in lines if r["type"] == "job"]
    assert len(results) == len(jobs)
    assert all(r["outcome"]["status"] == "OK" for r in results)
