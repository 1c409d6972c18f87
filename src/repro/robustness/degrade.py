"""The graceful-degradation ladder for ``icbe batch`` and ``icbe serve``
jobs.

A job that cannot complete under the full optimizer does not take the
batch down and does not simply vanish: it descends the ladder one tier
per failure until it lands on a tier that terminates, and its outcome
records exactly how far it fell and why.  The tiers, strongest first:

====  ================  ===================================================
tier  name              what still runs
====  ================  ===================================================
0     full              interprocedural ICBE
1     intra             intraprocedural-only elimination (Mueller &
                        Whalley's safe subset: no cross-call queries, so
                        the demand-driven engine's input-dependent cost
                        disappears)
2     parse-through     no optimization at all: parse, lower, verify,
                        emit the program unchanged (always semantically
                        correct by construction)
====  ================  ===================================================

Every tier's output must still pass :func:`~repro.ir.verify.verify_icfg`
and (when enabled) differential validation — degradation trades
*optimization strength*, never correctness.

The ladder descends exactly one tier per failed attempt ("no job
downgrades more than one tier beyond necessity"); the per-class circuit
breaker is the only thing that short-circuits it.

:class:`JobPolicy` is the one place that decides what a finished
attempt means — descend, succeed, or fail, and after which backoff.
``icbe batch`` (:mod:`~repro.robustness.supervisor`) and ``icbe serve``
(:mod:`~repro.serve.service`) both run it; each host only runs and
kills its workers and waits out backoffs its own way.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Tuple


@dataclass(frozen=True)
class Tier:
    """One rung of the ladder."""

    index: int
    name: str
    #: False for parse-through: the optimizer is not invoked at all.
    optimize: bool = True
    #: Ask interprocedural questions at all?
    interprocedural: bool = True

    def options(self, budget: int = 1000,
                duplication_limit: Optional[int] = None,
                deadline_s: Optional[float] = None,
                diff_check: bool = False,
                diff_seed: int = 0,
                fault_plan=None):
        """The :class:`~repro.transform.pipeline.OptimizerOptions` this
        tier runs under.

        Raises :class:`ValueError` for the parse-through tier, which by
        definition has no optimizer run to configure.  (The transform
        import is deferred: ``repro.transform`` itself imports
        robustness modules, and this module is part of the robustness
        package's public surface.)
        """
        from repro.analysis.config import AnalysisConfig
        from repro.transform.pipeline import OptimizerOptions

        if not self.optimize:
            raise ValueError(f"tier {self.name!r} does not run the optimizer")
        return OptimizerOptions(
            config=AnalysisConfig(interprocedural=self.interprocedural,
                                  budget=budget),
            duplication_limit=duplication_limit,
            deadline_s=deadline_s,
            diff_check=diff_check,
            diff_seed=diff_seed,
            fault_plan=fault_plan)


#: The ladder, strongest tier first.  Index i is always LADDER[i].
LADDER: Tuple[Tier, ...] = (
    Tier(0, "full"),
    Tier(1, "intra", interprocedural=False),
    Tier(2, "parse-through", optimize=False),
)

#: The weakest (always-terminating) tier's index.
FLOOR_TIER = LADDER[-1].index


def tier(index: int) -> Tier:
    """The ladder rung at ``index`` (clamped into range)."""
    return LADDER[max(0, min(index, len(LADDER) - 1))]


def tier_names() -> Tuple[str, ...]:
    """Ladder tier names, strongest first."""
    return tuple(t.name for t in LADDER)


# ---------------------------------------------------------------------------
# Job outcomes.
# ---------------------------------------------------------------------------

#: The three definite job statuses.  Every job the supervisor accepts
#: terminates in exactly one of these; there is no fourth state.
STATUS_OK = "OK"
STATUS_DEGRADED = "DEGRADED"
STATUS_FAILED = "FAILED"


@dataclass
class Attempt:
    """One try of one job at one tier."""

    tier: int
    tier_name: str
    #: ok | timeout | killed | oom | crash | error | verify-fail |
    #: diff-mismatch | circuit-open | no-result
    result: str
    detail: str = ""
    #: Backoff applied *before* this attempt, in seconds (deterministic
    #: given the batch seed; recorded so journals are self-describing).
    backoff_s: float = 0.0
    #: Structured failure context (e.g. the unloadable path and errno
    #: of a vanished input file).  Serialized only when non-empty, so
    #: journals without context keep their exact historical bytes.
    context: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        record = {"tier": self.tier, "tier_name": self.tier_name,
                  "result": self.result, "detail": self.detail,
                  "backoff_s": round(self.backoff_s, 6)}
        if self.context:
            record["context"] = dict(self.context)
        return record

    @classmethod
    def from_json(cls, data: dict) -> "Attempt":
        return cls(tier=data["tier"], tier_name=data["tier_name"],
                   result=data["result"], detail=data.get("detail", ""),
                   backoff_s=data.get("backoff_s", 0.0),
                   context=dict(data.get("context", {})))


#: Attempt results that feed the circuit breaker: the worker process
#: died (timeout, killed, crash, no-result), or it ran out of memory
#: under its cap (oom: the worker's own structured ``MemoryError``
#: report).  Only a success resets a class's count.
HARD_RESULTS = frozenset({"timeout", "killed", "oom", "crash", "no-result"})


def death_verdict(exitcode: Optional[int], kill_reason: str = "",
                  timeout_s: float = 0.0) -> Tuple[str, str]:
    """The ``(result, detail)`` for :meth:`JobPolicy.fail` of an attempt
    whose worker ended without a result frame: killed by its host for
    ``kill_reason`` (``"timeout"``: it outlived ``timeout_s``), or dead
    on its own with ``exitcode`` (negative: a signal).  Batch journals
    the details, so their bytes must not change."""
    if kill_reason == "timeout":
        return "timeout", f"no result within {timeout_s:g}s; worker killed"
    if kill_reason:
        return "killed", f"worker killed ({kill_reason})"
    if exitcode is not None and exitcode < 0:
        return "killed", f"worker died on signal {-exitcode}"
    if exitcode:
        return "crash", f"worker exited with code {exitcode}"
    return "no-result", "worker exited without a result"

#: Structured error kinds no amount of degradation can fix: the input
#: itself is invalid, so the ladder is skipped and the job fails fast.
#: (``KeyError``/``LookupError``/``ValueError`` arrive from the load
#: phase — an unknown ``suite:`` benchmark or a malformed scale — and
#: are exactly as permanent as a missing file.)
NON_RETRYABLE_ERRORS = frozenset({"LexError", "ParseError", "SemanticError",
                                  "LoweringError", "SupervisorError",
                                  "FileNotFoundError", "IsADirectoryError",
                                  "NotADirectoryError", "PermissionError",
                                  "KeyError", "LookupError", "ValueError",
                                  "UnicodeDecodeError"})


@dataclass
class JobOutcome:
    """The definite, structured verdict on one batch or serve job.

    ``status`` is one of :data:`STATUS_OK` (succeeded at tier 0),
    :data:`STATUS_DEGRADED` (succeeded at a lower tier; ``tier`` and
    ``reason`` say where and why) or :data:`STATUS_FAILED` (no tier
    succeeded; ``reason`` is the last failure).
    """

    job: str
    status: str
    tier: int
    tier_name: str
    reason: str = ""
    attempts: Tuple[Attempt, ...] = ()
    #: Deterministic result counters from the successful attempt
    #: (empty for FAILED): optimized/conditionals/nodes counts.
    counts: dict = None  # type: ignore[assignment]
    #: Structured context of the definitive failure (empty for OK and
    #: DEGRADED, and for failures that carry none); serialized only
    #: when non-empty so historical journal bytes are unchanged.
    context: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = {}
        if self.context is None:
            self.context = {}

    @property
    def definite(self) -> bool:
        """Every outcome the supervisor emits must satisfy this."""
        return self.status in (STATUS_OK, STATUS_DEGRADED, STATUS_FAILED)

    @property
    def retries(self) -> int:
        return max(0, len(self.attempts) - 1)

    @property
    def kills(self) -> int:
        """Attempts that ended with the supervisor killing the worker."""
        return sum(1 for a in self.attempts
                   if a.result in ("timeout", "killed"))

    def describe(self) -> str:
        line = f"{self.job}: {self.status}"
        if self.status == STATUS_DEGRADED:
            line += f"(tier={self.tier}/{self.tier_name}, reason={self.reason})"
        elif self.status == STATUS_FAILED:
            line += f" ({self.reason})"
        if self.retries:
            line += f" [{self.retries} retries]"
        return line

    def to_json(self) -> dict:
        record = {"job": self.job, "status": self.status, "tier": self.tier,
                  "tier_name": self.tier_name, "reason": self.reason,
                  "attempts": [a.to_json() for a in self.attempts],
                  "counts": dict(self.counts)}
        if self.context:
            record["context"] = dict(self.context)
        return record

    @classmethod
    def from_json(cls, data: dict) -> "JobOutcome":
        return cls(job=data["job"], status=data["status"],
                   tier=data["tier"], tier_name=data["tier_name"],
                   reason=data.get("reason", ""),
                   attempts=tuple(Attempt.from_json(a)
                                  for a in data.get("attempts", ())),
                   counts=dict(data.get("counts", {})),
                   context=dict(data.get("context", {})))


# ---------------------------------------------------------------------------
# The job policy.
# ---------------------------------------------------------------------------


@dataclass
class JobOptions:
    """The knobs every job of either host runs under: what an attempt
    is given (:func:`~repro.robustness.worker.attempt_spec`) and how a
    failed one is judged (:class:`JobPolicy`).  ``SupervisorOptions``
    and ``ServeOptions`` inherit them."""

    #: Per-attempt wall clock: a worker busy longer than this on one
    #: attempt is SIGKILLed and the job descends the ladder.
    timeout_s: float = 60.0
    #: Per-worker address-space cap, in MiB (``resource.setrlimit``).
    memory_mb: Optional[int] = 512
    #: The single source of randomness: backoff jitter, differential
    #: workloads and chaos points derive from it.
    seed: int = 0
    budget: int = 1000
    duplication_limit: Optional[int] = 100
    diff_check: bool = True
    #: Per-conditional cooperative deadline inside the worker (None =
    #: rely on the per-attempt timeout alone).
    conditional_deadline_s: Optional[float] = None
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5        # +0..50% seeded jitter
    backoff_max_s: float = 2.0
    #: Open a job class's circuit breaker after K consecutive hard
    #: worker deaths in that class.
    breaker_threshold: int = 5


class PolicyJob(Protocol):
    """The fields of a host's job record that :class:`JobPolicy` reads
    and writes."""

    @property
    def name(self) -> str: ...

    @property
    def job_class(self) -> str: ...

    #: Seeds the job's backoff jitter: stable job identity, never a
    #: pid, a clock or a scheduling position.
    @property
    def backoff_key(self) -> str: ...

    tier: int
    attempts: List[Attempt]
    #: The backoff waited before the next attempt, recorded on it.
    pending_backoff_s: float


class JobPolicy:
    """What each finished attempt of a job means: the ladder, the
    per-class circuit breaker and seeded backoff, with no I/O and no
    clock.

    A host hands every finished attempt to :meth:`settle` (the worker
    reported a payload) or :meth:`fail` (the host saw the attempt die;
    :func:`death_verdict` says how).
    Both append the :class:`Attempt` to the job and return the job's
    definite :class:`JobOutcome` — or ``None`` after moving the job one
    tier down and setting ``job.pending_backoff_s``, which the host
    waits out before the next attempt.

    A class's breaker opens once its :data:`HARD_RESULTS` since its last
    success reach ``options.breaker_threshold``; from then on, any
    failed attempt in the class ends its job FAILED.

    ``options`` is the host's :class:`JobOptions`; the policy reads its
    seed, ``backoff_*`` fields and ``breaker_threshold``.
    """

    def __init__(self, options) -> None:
        #: Read at every decision: a batch resume adopts its journal's
        #: options after the policy exists.
        self.options = options
        #: Job class -> hard results since the class's last success.
        self.counts: Dict[str, int] = {}
        #: Job class -> detail of the hard failure that opened it.
        self.open: Dict[str, str] = {}

    def settle(self, job: PolicyJob, payload: dict) -> Optional[JobOutcome]:
        """Classify a worker's structured payload (side channels such
        as telemetry already stripped)."""
        if payload.get("ok"):
            self._attempt(job, "ok")
            self.counts[job.job_class] = 0
            if job.tier == 0:
                status, reason = STATUS_OK, ""
            else:
                first = next(a for a in job.attempts if a.result != "ok")
                status = STATUS_DEGRADED
                reason = f"{first.result}: {first.detail}"
            return self._outcome(job, status, reason,
                                 counts=payload.get("counts") or {})
        detail = f"{payload.get('error')}: {payload.get('message')}"
        if (payload.get("kind") == "load-error"
                or payload.get("error") in NON_RETRYABLE_ERRORS):
            context = payload.get("context") or {}
            self._attempt(job, "error", detail, context)
            return self._outcome(job, STATUS_FAILED,
                                 f"non-retryable: {detail}", context=context)
        return self.fail(job, payload.get("kind", "error"), detail)

    def fail(self, job: PolicyJob, result: str,
             detail: str) -> Optional[JobOutcome]:
        """Account one failed attempt: breaker first, then descend or
        fail at the floor."""
        self._attempt(job, result, detail)
        threshold = self.options.breaker_threshold
        if result in HARD_RESULTS:
            count = self.counts.get(job.job_class, 0) + 1
            self.counts[job.job_class] = count
            if count >= threshold:
                self.open.setdefault(job.job_class, detail)
        if job.job_class in self.open:
            rung = tier(job.tier)
            job.attempts.append(Attempt(
                tier=rung.index, tier_name=rung.name, result="circuit-open",
                detail=f"class {job.job_class!r} breaker open"))
            return self._outcome(
                job, STATUS_FAILED,
                f"circuit breaker open for class {job.job_class!r} after "
                f"{threshold} consecutive hard failures; last: {detail}")
        if job.tier >= FLOOR_TIER:
            return self._outcome(
                job, STATUS_FAILED,
                f"failed at floor tier {tier(job.tier).name}: {detail}")
        job.tier += 1
        job.pending_backoff_s = self.backoff_delay(job.backoff_key,
                                                   len(job.attempts))
        return None

    def backoff_delay(self, key: str, failures: int) -> float:
        """Seeded, jittered exponential backoff before the attempt that
        follows ``failures`` failed ones.

        A pure function of (seed, ``key``, ``failures``): independent of
        scheduling order and of resume points, which is what keeps batch
        journals byte-identical across interruptions.
        """
        options = self.options
        rng = random.Random((zlib.crc32(key.encode()) << 17)
                            ^ (failures * 7919) ^ options.seed)
        delay = options.backoff_base_s * (options.backoff_factor
                                          ** max(0, failures - 1))
        delay *= 1.0 + options.backoff_jitter * rng.random()
        return min(delay, options.backoff_max_s)

    @staticmethod
    def _attempt(job: PolicyJob, result: str, detail: str = "",
                 context: Optional[dict] = None) -> None:
        rung = tier(job.tier)
        job.attempts.append(Attempt(
            tier=rung.index, tier_name=rung.name, result=result,
            detail=detail, backoff_s=job.pending_backoff_s,
            context=dict(context or {})))

    @staticmethod
    def _outcome(job: PolicyJob, status: str, reason: str,
                 counts: Optional[dict] = None,
                 context: Optional[dict] = None) -> JobOutcome:
        rung = tier(job.tier)
        return JobOutcome(job=job.name, status=status, tier=rung.index,
                          tier_name=rung.name, reason=reason,
                          attempts=tuple(job.attempts),
                          counts=dict(counts or {}),
                          context=dict(context or {}))
