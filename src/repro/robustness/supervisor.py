"""Crash-isolated batch supervisor with checkpoint/resume.

``icbe batch`` turns the single-program optimizer into a service-shaped
component: every attempt of every job runs in its own **forked worker
process** (see :mod:`~repro.robustness.worker`; there is no in-process
way to run one) under a wall-clock timeout and an
address-space cap, so one pathological input — a hang in the
demand-driven analysis, a memory blow-up, a hard crash — costs exactly
one attempt of one job.  What each attempt means — retry down the
graceful-degradation ladder after a seeded, jittered backoff, or stop a
*job class* whose circuit breaker opened — is decided by the shared
:class:`~repro.robustness.degrade.JobPolicy`; this module runs and
kills the workers and holds each job back until its backoff has passed
on the monotonic clock.  Every completed job is fsynced into a
write-ahead journal (:mod:`~repro.robustness.journal`) so an
interrupted run — including SIGKILL mid-job — resumes with
``--resume``, skipping completed jobs and replaying in-flight ones.

Determinism contract: every piece of randomness (backoff jitter, chaos
injection, differential workloads) derives from the single batch
``seed`` plus stable job identity — never from wall-clock time, process
ids, or scheduling order — and the journal is flushed in job-index
order even under ``--jobs N`` parallelism.  Two runs with the same jobs
and seed therefore produce **byte-identical** journals and reports, and
so does an interrupted run finished with ``--resume``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import threading
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import SupervisorDrained, SupervisorError
from repro.robustness import degrade
from repro.robustness.degrade import (Attempt, JobOptions, JobOutcome,
                                      JobPolicy, STATUS_DEGRADED,
                                      STATUS_FAILED, STATUS_OK)
from repro.robustness.guards import DeadlineGuard
from repro.robustness.journal import Journal
from repro.robustness.worker import (FrameReader, attempt_spec,
                                     encode_frame, parse_job_source,
                                     run_forked)
from repro.utils import durafs

REPORT_NAME = "report.txt"
#: Per-attempt wall time and peak RSS, one JSON line each.  Advisory
#: and machine-specific by nature, hence a *sidecar* next to the
#: journal: ``journal.jsonl`` and ``report.txt`` stay byte-identical
#: across resumes, the telemetry file does not pretend to.
TELEMETRY_NAME = "telemetry.jsonl"

#: durafs fault sites of the supervisor's own write surfaces (the
#: journal has its own site inside :mod:`repro.robustness.journal`).
SITE_TELEMETRY = "batch.telemetry"
SITE_REPORT = "batch.report"


def job_class_of(name: str) -> str:
    """The circuit-breaker class of a job: its stem, minus a trailing
    numeric suffix, so ``gen3.mc``/``gen17.mc`` share one class."""
    stem = os.path.basename(name)
    for extension in (".mc",):
        if stem.endswith(extension):
            stem = stem[:-len(extension)]
    return stem.rstrip("0123456789_") or stem


@dataclass
class JobSpec:
    """One unit of batch work."""

    #: A ``.mc`` file path or a ``suite:<name>@<scale>`` reference.
    source: str
    name: str = ""
    job_class: str = ""
    #: Chaos injection: ``{"kind": "hang"|"crash"|"oom", "tiers": [...]}``.
    inject: Optional[dict] = None
    #: In-optimizer fault plan specs (site/hit/action/seed dicts).
    faults: Tuple[dict, ...] = ()
    #: Run the optimizer strict (injected faults escape and fail the
    #: attempt instead of rolling back) — used by drills and tests to
    #: exercise the ladder with in-optimizer faults.
    strict: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            suite_ref = parse_job_source(self.source)
            self.name = (suite_ref[0] if suite_ref
                         else os.path.basename(self.source))
        if not self.job_class:
            self.job_class = job_class_of(self.name)
        self.faults = tuple(self.faults)

    def to_json(self) -> dict:
        """The job *definition* as journaled in the meta record — the
        whole definition, injections included, so a ``--resume`` replays
        exactly the batch that was interrupted (chaos and all)."""
        return {"source": self.source, "name": self.name,
                "job_class": self.job_class, "inject": self.inject,
                "faults": list(self.faults), "strict": self.strict}

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        return cls(source=data["source"], name=data.get("name", ""),
                   job_class=data.get("job_class", ""),
                   inject=data.get("inject"),
                   faults=tuple(data.get("faults", ())),
                   strict=bool(data.get("strict", False)))


def job_specs(sources: Sequence[str],
              injections: Optional[Dict[str, dict]] = None) -> List[JobSpec]:
    """One :class:`JobSpec` per source, with the chaos injections keyed
    by job name.

    Raises :class:`~repro.errors.SupervisorError` when an injection
    names no job, so a drill never runs without its fault.
    """
    specs = [JobSpec(source) for source in sources]
    names = [spec.name for spec in specs]
    unknown = sorted(set(injections or ()) - set(names))
    if unknown:
        raise SupervisorError(
            f"injection names no job: {', '.join(unknown)} "
            f"(jobs: {', '.join(names) or 'none'})",
            unknown=",".join(unknown), jobs=",".join(names))
    for spec in specs:
        spec.inject = (injections or {}).get(spec.name)
    return specs


@dataclass
class SupervisorOptions(JobOptions):
    """Batch-level knobs; the per-job ones are :class:`JobOptions`."""

    jobs: int = 1                      # parallel workers

    def fingerprint(self) -> dict:
        """The deterministic option set journaled in the meta record:
        every :class:`JobOptions` field but ``seed``, which the meta
        record holds on its own.

        ``jobs`` (parallelism) is deliberately excluded: it affects
        scheduling, never outcomes, so a resume may use a different
        worker count and still reproduce the same bytes.
        """
        return {option.name: getattr(self, option.name)
                for option in fields(JobOptions) if option.name != "seed"}


@dataclass
class BatchReport:
    """The supervisor's structured account of one (possibly resumed) run."""

    outcomes: List[JobOutcome] = field(default_factory=list)
    #: Jobs satisfied from the journal instead of being re-run.
    resumed_jobs: int = 0
    #: Classes whose circuit breaker opened during the run.
    breaker_opened: List[str] = field(default_factory=list)
    #: Wall time of this supervisor invocation (in-memory only — never
    #: serialized, so journals and report files stay deterministic).
    wall_s: float = 0.0
    #: Per-attempt telemetry records of *this invocation* (resumed jobs
    #: contribute nothing — their workers ran in a previous process).
    #: In-memory mirror of the ``telemetry.jsonl`` sidecar.
    telemetry: List[dict] = field(default_factory=list)

    def job_telemetry(self) -> Dict[str, dict]:
        """Aggregate telemetry per job: summed attempt wall seconds and
        the max peak RSS any attempt's worker reached.  This is what
        makes a DEGRADED diagnosis actionable — it says whether the job
        fell down the ladder because it was slow, huge, or both."""
        rollup: Dict[str, dict] = {}
        for record in self.telemetry:
            entry = rollup.setdefault(record["job"],
                                      {"attempts": 0, "wall_s": 0.0,
                                       "peak_rss_kb": 0})
            entry["attempts"] += 1
            entry["wall_s"] += record.get("wall_s", 0.0)
            entry["peak_rss_kb"] = max(entry["peak_rss_kb"],
                                       record.get("peak_rss_kb", 0))
        return rollup

    def status_counts(self) -> Dict[str, int]:
        counts = {STATUS_OK: 0, STATUS_DEGRADED: 0, STATUS_FAILED: 0}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def tier_counts(self) -> Dict[str, int]:
        """Completed jobs per ladder tier (FAILED jobs count nowhere)."""
        counts = {t.name: 0 for t in degrade.LADDER}
        for outcome in self.outcomes:
            if outcome.status != STATUS_FAILED:
                counts[outcome.tier_name] += 1
        return counts

    @property
    def total_retries(self) -> int:
        return sum(o.retries for o in self.outcomes)

    @property
    def total_kills(self) -> int:
        return sum(o.kills for o in self.outcomes)

    @property
    def all_definite(self) -> bool:
        return all(o.definite for o in self.outcomes)

    @property
    def failed_jobs(self) -> List[JobOutcome]:
        return [o for o in self.outcomes if o.status == STATUS_FAILED]

    def render(self) -> str:
        """The deterministic ``report.txt`` body (no timings, no pids)."""
        lines = ["# icbe batch report",
                 "ladder=" + ">".join(degrade.tier_names()), ""]
        for index, outcome in enumerate(self.outcomes):
            lines.append(
                f"[{index}] {outcome.job} {outcome.status} "
                f"tier={outcome.tier}/{outcome.tier_name} "
                f"attempts={len(outcome.attempts)} "
                f"retries={outcome.retries} kills={outcome.kills}"
                + (f" reason={outcome.reason}" if outcome.reason else ""))
        lines.append("")
        tiers = self.tier_counts()
        lines.append("tiers: " + " ".join(f"{name}={tiers[name]}"
                                          for name in degrade.tier_names()))
        statuses = self.status_counts()
        lines.append("statuses: " + " ".join(
            f"{key}={statuses[key]}"
            for key in (STATUS_OK, STATUS_DEGRADED, STATUS_FAILED)))
        lines.append(f"retries={self.total_retries} "
                     f"kills={self.total_kills} "
                     f"breaker_open={','.join(sorted(self.breaker_opened))}")
        return "\n".join(lines) + "\n"


@dataclass
class _JobState:
    """Supervisor-side progress of one job: the
    :class:`~repro.robustness.degrade.PolicyJob` the policy updates."""

    index: int
    spec: JobSpec
    tier: int = 0
    attempts: List[Attempt] = field(default_factory=list)
    #: Monotonic instant before which the next attempt must not start.
    eligible_at: float = 0.0
    pending_backoff_s: float = 0.0
    outcome: Optional[JobOutcome] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def job_class(self) -> str:
        return self.spec.job_class

    @property
    def backoff_key(self) -> str:
        return f"{self.index}:{self.spec.source}"

    @property
    def done(self) -> bool:
        return self.outcome is not None


class _Running:
    """One live worker process and the frames it has sent so far."""

    def __init__(self, state: _JobState, pid: int, pipe: int,
                 deadline: DeadlineGuard) -> None:
        self.state = state
        self.pid = pid
        #: Non-blocking read end of the worker's frame pipe.
        self.pipe = pipe
        self.deadline = deadline
        self.frames = FrameReader()
        self.eof = False
        #: The payload of its ``result`` frame, once that is complete.
        self.payload: Optional[dict] = None
        #: Why the supervisor killed it ("" = it ended on its own).
        self.kill_reason = ""
        self.exitcode: Optional[int] = None

    def read(self) -> None:
        """Take in every byte the worker has written so far."""
        while not self.eof:
            try:
                data = os.read(self.pipe, 1 << 16)
            except BlockingIOError:
                return
            self.eof = not data
            for frame in self.frames.feed(data):
                if frame.get("type") == "result":
                    self.payload = frame.get("payload") or {}

    def exited(self) -> bool:
        """Reap the worker if it has exited; True once it has."""
        if self.exitcode is None:
            pid, status = os.waitpid(self.pid, os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
        return self.exitcode is not None

    def kill(self, reason: str = "") -> None:
        """SIGKILL and reap the worker (a no-op once it was reaped)."""
        if self.exitcode is not None:
            return
        self.kill_reason = reason
        os.kill(self.pid, signal.SIGKILL)
        _, status = os.waitpid(self.pid, 0)
        self.exitcode = os.waitstatus_to_exitcode(status)


class BatchSupervisor:
    """Runs a batch of jobs to definite outcomes, whatever the jobs do."""

    def __init__(self, jobs: Sequence[JobSpec], run_dir: str,
                 options: Optional[SupervisorOptions] = None,
                 resume: bool = False) -> None:
        if not jobs and not resume:
            raise SupervisorError("batch has no jobs")
        self.jobs = list(jobs)
        self.run_dir = run_dir
        self.options = options or SupervisorOptions()
        self.resume = resume
        self.journal = Journal(run_dir)
        self.policy = JobPolicy(self.options)
        #: Set by the SIGTERM/SIGINT handler; checked between launches.
        self._drain_signum = 0

    # -- public API --------------------------------------------------------

    def run(self) -> BatchReport:
        started = time.monotonic()
        report = BatchReport()
        self._report = report
        states = self._states = self._prepare(report)
        # Telemetry is advisory: it is written without fsync and a
        # failure to open or append it must never cost the batch.
        try:
            self._telemetry_handle = durafs.AppendFile(
                os.path.join(self.run_dir, TELEMETRY_NAME),
                site=SITE_TELEMETRY, fresh=not self.resume, do_fsync=False)
        except OSError:
            self._telemetry_handle = None
        previous_handlers = self._install_drain_handlers()
        try:
            with obs.span("batch.run", jobs=len(states),
                          resumed=report.resumed_jobs):
                todo = [s for s in states if not s.done]
                if todo:
                    self._run_workers(todo)
                self._flush_journal()
        finally:
            self._restore_drain_handlers(previous_handlers)
            self.journal.close()
            if self._telemetry_handle is not None:
                self._telemetry_handle.close()
        if self._drain_signum:
            # The journal checkpoint above is the hand-off: completed
            # jobs are fsynced in index order, interrupted ones left
            # pending, and ``--resume`` finishes the batch with
            # byte-identical journal and report files.
            done = sum(1 for s in states if s.done)
            name = signal.Signals(self._drain_signum).name
            raise SupervisorDrained(
                f"batch drained on {name}: {done}/{len(states)} jobs "
                f"completed, journal checkpointed in {self.run_dir} "
                f"(finish with --resume)",
                signum=self._drain_signum,
                completed=done, total=len(states), run_dir=self.run_dir)
        report.outcomes = [s.outcome for s in states]
        report.breaker_opened = sorted(self.policy.open)
        report.wall_s = time.monotonic() - started
        for outcome in report.outcomes:
            obs.add(f"batch.status.{outcome.status.lower()}")
        self._write_report(report)
        return report

    # -- graceful drain ----------------------------------------------------

    def _install_drain_handlers(self):
        """Catch SIGTERM/SIGINT for a checkpointing drain.

        Only possible from the main thread of the main interpreter;
        anywhere else (tests driving the supervisor from a thread) the
        batch simply keeps the host's disposition.
        """
        if threading.current_thread() is not threading.main_thread():
            return {}
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                previous[signum] = signal.signal(signum, self._on_signal)
            except (ValueError, OSError):
                pass
        return previous

    @staticmethod
    def _restore_drain_handlers(previous) -> None:
        for signum, handler in previous.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass

    def _on_signal(self, signum, frame) -> None:
        # Just a flag: everything meaningful (killing workers, the
        # journal checkpoint) happens at a safe point in the run loop,
        # never inside a signal handler.
        self._drain_signum = signum

    # -- setup & resume ----------------------------------------------------

    def _meta(self) -> dict:
        return {"seed": self.options.seed,
                "jobs": [s.to_json() for s in self.jobs],
                "options": self.options.fingerprint()}

    def _prepare(self, report: BatchReport) -> List[_JobState]:
        if self.resume:
            recovered = Journal.recover(self.run_dir)
            # The journal's meta is authoritative for everything that
            # shapes outcomes: seed, option fingerprint, and (when no
            # explicit job list is given) the jobs themselves.  Worker
            # parallelism is the one knob a resume may change freely.
            self.options.seed = recovered.meta["seed"]
            for key, value in recovered.meta["options"].items():
                setattr(self.options, key, value)
            if not self.jobs:
                self.jobs = [JobSpec.from_json(data)
                             for data in recovered.meta["jobs"]]
            self.journal.open_recovered(recovered, self._meta())
            completed = recovered.completed
        else:
            self.journal.open_fresh(self._meta())
            completed = {}
        states = [_JobState(index=i, spec=spec)
                  for i, spec in enumerate(self.jobs)]
        for index, outcome in completed.items():
            if 0 <= index < len(states):
                states[index].outcome = outcome
                report.resumed_jobs += 1
        self._journal_cursor = 0
        self._journaled: Dict[int, bool] = {i: True for i in completed}
        # Fast-forward past the prefix already on disk.
        while self._journal_cursor in self._journaled:
            self._journal_cursor += 1
        return states

    # -- running attempts --------------------------------------------------

    def _run_workers(self, todo: List[_JobState]) -> None:
        ready: List[_JobState] = list(todo)
        waiting: List[_JobState] = []
        running: List[_Running] = []
        try:
            while ready or waiting or running:
                if self._drain_signum:
                    # Drain: in-flight attempts are abandoned (killed
                    # and reaped, nothing journaled for them —
                    # ``--resume`` replays the whole job, keeping the
                    # journal identical to an uninterrupted run) and
                    # queued jobs stay pending.
                    obs.add("batch.drained.killed", len(running))
                    return
                now = time.monotonic()
                still_waiting = []
                for state in waiting:
                    (ready if state.eligible_at <= now
                     else still_waiting).append(state)
                waiting = still_waiting
                ready.sort(key=lambda s: s.index)
                while ready and len(running) < max(1, self.options.jobs):
                    running.append(self._launch(ready.pop(0)))
                # Read while waiting, so a result frame larger than the
                # pipe buffer never blocks its worker; the 5 ms bound
                # keeps timeouts, backoffs and drains prompt.
                pipes = [worker.pipe for worker in running
                         if not worker.eof]
                if pipes:
                    select.select(pipes, [], [], 0.005)
                else:
                    time.sleep(0.005)
                for worker in list(running):
                    exited = worker.exited()
                    worker.read()    # after the exit check: nothing lost
                    if worker.payload is None and not exited:
                        if not worker.deadline.expired():
                            continue
                        worker.kill("timeout")
                    running.remove(worker)
                    self._collect(worker)
                    if worker.state.done:
                        self._flush_journal()
                    else:
                        waiting.append(worker.state)
        finally:
            for worker in running:
                worker.kill("drain")
                os.close(worker.pipe)

    def _launch(self, state: _JobState) -> _Running:
        """Fork one attempt's worker; it reads its one ``job`` frame from
        one pipe and answers on another."""
        frame = encode_frame({"type": "job", "id": state.index,
                              "spec": self._attempt_spec(state)})
        down, job_end = os.pipe()
        # Far below the pipe buffer, so this never waits for a reader;
        # closed before the fork, so the frame is followed by the end of
        # the pipe and no other worker ever holds its write end.
        os.write(job_end, frame)
        os.close(job_end)
        up, frame_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(up)
            run_forked(down, frame_end, self.options.memory_mb)
        os.close(down)
        os.close(frame_end)
        os.set_blocking(up, False)
        return _Running(state, pid, up,
                        DeadlineGuard(self.options.timeout_s).start())

    def _attempt_spec(self, state: _JobState) -> dict:
        spec = state.spec
        return attempt_spec(self.options, spec.source, state.tier,
                            spec.source, inject=spec.inject,
                            faults=spec.faults, strict=spec.strict)

    # -- attempt classification -------------------------------------------

    def _collect(self, worker: _Running) -> None:
        """Turn one finished or killed worker into an attempt verdict."""
        os.close(worker.pipe)
        elapsed_s = worker.deadline.elapsed()
        state = worker.state
        if worker.payload is not None:
            worker.kill()    # its result is in: nothing left to wait for
            self._classify_structured(state, worker.payload, elapsed_s)
            return
        result, detail = degrade.death_verdict(
            worker.exitcode, worker.kill_reason, self.options.timeout_s)
        before = len(state.attempts)
        self._conclude(state, self.policy.fail(state, result, detail))
        # A hard death leaves no worker-side telemetry; the supervisor's
        # own wall clock for the attempt is the best available account.
        self._note_attempt(state, before, wall_s=elapsed_s, peak_rss_kb=0,
                           span_wall_s=elapsed_s)

    def _classify_structured(self, state: _JobState, payload: dict,
                             supervisor_wall_s: float) -> None:
        """Strip the observability side channels off ``payload``, then
        classify the deterministic remainder.

        Telemetry, spans, and metrics are accounting only — they may
        never influence the verdict, the ladder, or the journal bytes.
        ``supervisor_wall_s``, the attempt's wall time on the
        supervisor's clock, places the adopted worker trace.
        """
        telemetry = payload.pop("telemetry", None) or {}
        spans = payload.pop("spans", None)
        metrics = payload.pop("metrics", None)
        before = len(state.attempts)
        self._conclude(state, self.policy.settle(state, payload))
        wall_s = float(telemetry.get("wall_s", supervisor_wall_s))
        self._note_attempt(state, before, wall_s=wall_s,
                           peak_rss_kb=int(telemetry.get("peak_rss_kb", 0)),
                           span_wall_s=supervisor_wall_s, spans=spans,
                           metrics=metrics)

    def _conclude(self, state: _JobState,
                  outcome: Optional[JobOutcome]) -> None:
        """Take the policy's verdict on ``state``'s latest attempt: its
        definite outcome, or the instant its backoff ends."""
        if outcome is None:
            state.eligible_at = time.monotonic() + state.pending_backoff_s
        else:
            state.outcome = outcome

    # -- observability accounting (never affects outcomes) -----------------

    def _note_attempt(self, state: _JobState, attempt_index: int,
                      wall_s: float, peak_rss_kb: int, span_wall_s: float,
                      spans=None, metrics=None) -> None:
        """Record one attempt's measured wall time and peak RSS in the
        report and in the ``telemetry.jsonl`` sidecar — never in the
        journal — and place the attempt, ``span_wall_s`` long, in the
        supervisor's trace as a retroactive ``batch.attempt`` span that
        adopts the worker's own spans and metrics."""
        attempt = state.attempts[attempt_index]
        record = {"job": state.spec.name, "index": state.index,
                  "attempt": attempt_index, "tier": attempt.tier,
                  "result": attempt.result, "wall_s": round(wall_s, 6),
                  "peak_rss_kb": peak_rss_kb}
        self._report.telemetry.append(record)
        handle = getattr(self, "_telemetry_handle", None)
        if handle is not None and not handle.closed:
            try:
                handle.append(json.dumps(record, sort_keys=True) + "\n")
            except OSError:
                # Advisory stream: drop the sidecar, keep the batch.
                handle.close()
                self._telemetry_handle = None
        obs.add("batch.attempts")
        obs.record_worker_span(
            "batch.attempt", span_wall_s, spans, metrics,
            origin=f"worker:{state.spec.name}", job=state.spec.name,
            tier=attempt.tier, result=attempt.result)

    # -- persistence -------------------------------------------------------

    def _flush_journal(self) -> None:
        """Append finalized outcomes in job-index order, as soon as the
        contiguous done-prefix grows (write-ahead: fsynced before any
        scheduling decision depends on them).  Index order is the
        determinism barrier for parallel workers: completion order may
        vary, journal bytes may not."""
        states = self._states
        while (self._journal_cursor < len(states)
               and states[self._journal_cursor].done):
            if self._journal_cursor not in self._journaled:
                self.journal.append_job(
                    self._journal_cursor,
                    states[self._journal_cursor].outcome)
                self._journaled[self._journal_cursor] = True
            self._journal_cursor += 1

    def _write_report(self, report: BatchReport) -> None:
        path = os.path.join(self.run_dir, REPORT_NAME)
        try:
            durafs.atomic_write_text(path, report.render(),
                                     site=SITE_REPORT, must=True)
        except OSError as failure:
            raise SupervisorError(
                f"cannot write batch report: {failure} "
                f"(outcomes are journaled; free space and re-run with "
                f"--resume to regenerate the report)",
                errno=int(failure.errno or 0), path=path) from failure


def run_batch(sources: Sequence[str], run_dir: str,
              options: Optional[SupervisorOptions] = None,
              resume: bool = False,
              injections: Optional[Dict[str, dict]] = None,
              ) -> BatchReport:
    """Convenience wrapper: build specs (with optional chaos injections
    keyed by job name, see :func:`job_specs`) and run the supervisor."""
    return BatchSupervisor(job_specs(sources, injections), run_dir,
                           options=options, resume=resume).run()
