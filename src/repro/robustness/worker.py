"""The batch supervisor's isolated worker (child-process side).

One worker process = one attempt of one job at one ladder tier.  The
worker is designed to die well: it caps its own address space with
``resource.setrlimit`` *before* touching the input, arms a SIGALRM
backstop so an orphaned hang self-terminates even if the supervisor was
SIGKILLed, and reports through an **atomically renamed** JSON result
file — so the supervisor either sees a complete structured result or no
result at all, never a torn one.

Result protocol (every field the supervisor may journal is
deterministic — no timings, no pids; the ``telemetry``/``spans``/
``metrics`` side-channel fields are the explicit exception and are
stripped by the supervisor before journaling):

- success: ``{"ok": true, "tier": i, "verify_ok": true, "diff_ok":
  true, "counts": {...}}``
- structured failure: ``{"ok": false, "error": "<ExceptionType>",
  "message": "...", "context": {...}}`` — the worker survived and
  explained itself (a :class:`~repro.errors.ReproError`, a
  ``MemoryError`` under the rlimit, a failed validation);
- no result file / nonzero exit — the worker died hard (crash, OOM
  kill, or the supervisor's SIGKILL on timeout); the supervisor
  classifies these from the exit status.

Chaos injection (``spec["inject"]``) deliberately produces the three
pathologies the supervisor must survive — ``hang`` (ignores cooperative
checkpoints), ``crash`` (hard ``os._exit``), ``oom`` (allocates until
the rlimit bites) — gated on the attempt's tier so the degradation
ladder genuinely recovers the job one tier down.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import zlib
from typing import Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError, error_context
from repro.interp.workload import Workload
from repro.ir import lower_program, verify_icfg
from repro.ir.icfg import ICFG
from repro.lang import parse_program
from repro.robustness import degrade
from repro.robustness.diffcheck import differential_check, seeded_workloads
from repro.robustness.faults import FaultPlan, FaultSpec
from repro.utils import durafs

#: Exit codes the chaos faults use (recognizable in supervisor logs).
EXIT_CRASH = 134          # simulated abort()
EXIT_ORPHAN_BACKSTOP = 124

#: durafs fault site of the worker's result publication.
SITE_RESULT = "batch.result"

#: How far past the supervisor's own kill deadline the worker's SIGALRM
#: backstop waits before self-terminating (it only ever fires when the
#: supervisor itself was killed and can no longer clean us up).
ORPHAN_GRACE_FACTOR = 3.0


def parse_job_source(source: str):
    """``suite:<name>@<scale>`` -> (name, scale); anything else -> None."""
    if not source.startswith("suite:"):
        return None
    spec = source[len("suite:"):]
    name, _, scale_text = spec.partition("@")
    scale = int(scale_text) if scale_text else 1
    return name, scale


def load_job_icfg(source: str) -> Tuple[ICFG, Optional[Workload]]:
    """Parse, lower, and verify one job's program.

    ``source`` is either a path to a ``.mc`` file or a
    ``suite:<name>@<scale>`` benchmark reference; suite jobs also yield
    their deterministic ref workload for differential validation.
    """
    suite_ref = parse_job_source(source)
    if suite_ref is not None:
        from repro.benchgen.suite import load_benchmark
        bench = load_benchmark(suite_ref[0], scale=suite_ref[1])
        program, workload = bench.program, bench.workload
    else:
        with open(source, "r", encoding="utf-8") as handle:
            program = parse_program(handle.read())
        workload = None
    icfg = lower_program(program)
    verify_icfg(icfg)
    return icfg, workload


def _apply_rlimits(memory_mb: Optional[int]) -> None:
    """Cap the worker's memory before any real work happens.

    Linux does not enforce ``RLIMIT_RSS``, so the address-space limit
    (``RLIMIT_AS``) is the practical RSS cap: allocations past it raise
    ``MemoryError``, which the worker reports as a structured failure.
    """
    if memory_mb is None:
        return
    try:
        import resource
    except ImportError:          # non-POSIX: run uncapped rather than die
        return
    limit = int(memory_mb) * 1024 * 1024
    for name in ("RLIMIT_AS", "RLIMIT_DATA"):
        kind = getattr(resource, name, None)
        if kind is None:
            continue
        try:
            soft, hard = resource.getrlimit(kind)
            ceiling = hard if hard != resource.RLIM_INFINITY else limit
            resource.setrlimit(kind, (min(limit, ceiling), hard))
        except (ValueError, OSError):
            pass                 # container forbids it: supervisor kill
                                 # on timeout remains the backstop


def _arm_orphan_backstop(timeout_s: Optional[float]) -> None:
    """Self-destruct long after the supervisor would have killed us.

    The supervisor SIGKILLs hung workers at ``timeout_s``; this alarm
    only matters when the *supervisor* died first (e.g. the chaos drill
    SIGKILLs it), so an injected hang cannot leak a spinning orphan.
    """
    if timeout_s is None or not hasattr(signal, "SIGALRM"):
        return
    signal.signal(signal.SIGALRM,
                  lambda signum, frame: os._exit(EXIT_ORPHAN_BACKSTOP))
    signal.alarm(max(1, int(timeout_s * ORPHAN_GRACE_FACTOR) + 5))


def _run_injection(inject: Optional[dict], tier_index: int,
                   memory_mb: Optional[int]) -> None:
    """Fire a chaos fault if one is armed for this tier."""
    if not inject or tier_index not in inject.get("tiers", (0,)):
        return
    kind = inject.get("kind")
    if kind == "crash":
        os._exit(EXIT_CRASH)
    if kind == "hang":
        while True:              # ignores every cooperative checkpoint;
            time.sleep(0.25)     # only SIGKILL (or the alarm) ends this
    if kind == "oom":
        ceiling_mb = (memory_mb * 4) if memory_mb else 256
        hog = []
        for _ in range(int(ceiling_mb) // 8 + 1):
            hog.append(bytearray(8 * 1024 * 1024))
        del hog
        raise MemoryError(f"injected allocation reached {ceiling_mb}MB "
                          f"without tripping the rlimit")
    raise ValueError(f"unknown chaos injection kind {kind!r}")


def _write_result(result_path: str, payload: dict) -> None:
    """Atomic, fsynced result publication (write temp, rename).

    ``must=True``: an unpublishable result is a hard worker death (the
    OSError escapes and the process exits nonzero), which the
    supervisor already classifies correctly — never a torn file.
    """
    durafs.atomic_write_json(result_path, payload, site=SITE_RESULT,
                             must=True)


def _fault_plan(spec: dict) -> Optional[FaultPlan]:
    specs = spec.get("faults") or ()
    if not specs:
        return None
    return FaultPlan([FaultSpec(site=f["site"], hit=f.get("hit", 1),
                                action=f.get("action", "raise"),
                                seed=f.get("seed", 0)) for f in specs])


def _peak_rss_kb() -> int:
    """This process's lifetime peak resident set size, in KiB.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; normalize to KiB.
    Returns 0 where ``resource`` is unavailable (non-POSIX).
    """
    try:
        import resource
    except ImportError:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        peak //= 1024
    return int(peak)


def attempt_spec(options, job: str, tier: int, identity: str,
                 inject: Optional[dict] = None, faults: Sequence[dict] = (),
                 strict: bool = False) -> dict:
    """The spec of one attempt of ``job`` at ``tier`` under a host's
    options (a batch's ``SupervisorOptions`` or a daemon's
    ``ServeOptions``).

    ``identity`` and the host seed derive the attempt's differential
    workloads, so a job draws the same inputs at every tier and across
    resumes.  Workers trace only when the host itself runs under an
    observability session, which adopts their spans back.
    """
    return {"job": job,
            "tier": tier,
            "budget": options.budget,
            "duplication_limit": options.duplication_limit,
            "diff_check": options.diff_check,
            "diff_seed": (zlib.crc32(f"diff:{identity}".encode())
                          ^ options.seed) & 0x7FFFFFFF,
            "conditional_deadline_s": options.conditional_deadline_s,
            "timeout_s": options.timeout_s,
            "memory_mb": options.memory_mb,
            "inject": inject,
            "faults": list(faults),
            "strict": strict,
            "trace": obs.enabled()}


def run_attempt(spec: dict) -> dict:
    """Execute one (job, tier) attempt; returns the result payload.

    Never raises for job-level problems: every failure is folded into a
    structured ``ok: false`` payload (the supervisor decides what it
    means for the ladder).

    On top of the deterministic result fields the payload carries a
    ``telemetry`` dict (attempt wall seconds, the worker process's peak
    RSS in KiB) and — when ``spec["trace"]`` asks for it — ``spans``
    and ``metrics`` from the worker's own observability session.  The
    supervisor strips all three before anything reaches the journal,
    which is what keeps journal bytes deterministic.
    """
    started = time.monotonic()
    if spec.get("trace") and not obs.enabled():
        # Subprocess case: trace into a private session and serialize
        # it for the supervisor to adopt.  (In-process attempts find
        # the supervisor's session already active and just inherit it —
        # their spans parent naturally, so nothing is exported.)
        with obs.session() as active:
            with obs.span("worker.attempt", job=spec.get("job", ""),
                          tier=spec.get("tier", 0)):
                payload = _attempt_payload(spec)
            payload["spans"] = active.export_spans()
            payload["metrics"] = active.metrics.snapshot()
    else:
        payload = _attempt_payload(spec)
    payload["telemetry"] = {
        "wall_s": round(time.monotonic() - started, 6),
        "peak_rss_kb": _peak_rss_kb(),
    }
    return payload


def _attempt_payload(spec: dict) -> dict:
    """The attempt itself: load, optimize at the tier, validate."""
    tier = degrade.tier(spec["tier"])
    try:
        _run_injection(spec.get("inject"), tier.index, spec.get("memory_mb"))
        try:
            icfg, ref_workload = load_job_icfg(spec["job"])
        except MemoryError:
            raise
        except (ReproError, OSError, LookupError, ValueError) as failure:
            return _load_failure(spec["job"], failure)
        counts = {"conditionals": icfg.conditional_node_count(),
                  "nodes_before": icfg.node_count()}
        if not tier.optimize:
            # Parse-through: the verified input is the output.
            counts.update(optimized=0, failed=0, rolled_back=0,
                          nodes_after=icfg.node_count())
            return {"ok": True, "tier": tier.index, "verify_ok": True,
                    "diff_ok": True, "counts": counts}
        options = tier.options(
            budget=spec.get("budget", 1000),
            duplication_limit=spec.get("duplication_limit"),
            deadline_s=spec.get("conditional_deadline_s"),
            diff_check=bool(spec.get("diff_check", True)),
            diff_seed=spec.get("diff_seed", 0),
            fault_plan=_fault_plan(spec))
        options.strict = bool(spec.get("strict", False))
        from repro.transform import ICBEOptimizer
        report = ICBEOptimizer(options).optimize(icfg)
        counts.update(optimized=report.optimized_count,
                      failed=report.failed_count,
                      rolled_back=report.rolled_back_count,
                      nodes_after=report.optimized.node_count())
        # The optimizer's final validation already verified the result
        # in full and, with diff-check on, diffed it over this seeded
        # battery; only the workloads it did not run are left to check.
        workloads = ([] if options.diff_check
                     else seeded_workloads(seed=options.diff_seed))
        if ref_workload is not None:
            workloads.append(ref_workload)
        if workloads:
            diff = differential_check(icfg, report.optimized,
                                      workloads=workloads)
            if not diff.ok:
                return {"ok": False, "error": "DifferentialMismatch",
                        "message": diff.describe(), "context": {},
                        "kind": "diff-mismatch"}
        return {"ok": True, "tier": tier.index, "verify_ok": True,
                "diff_ok": True, "counts": counts}
    except MemoryError:
        return {"ok": False, "error": "MemoryError",
                "message": f"memory cap "
                           f"({spec.get('memory_mb')}MB) exhausted",
                "context": {}, "kind": "oom"}
    except ReproError as failure:
        kind = ("verify-fail"
                if type(failure).__name__ == "VerificationError"
                else "error")
        return {"ok": False, "error": type(failure).__name__,
                "message": str(failure),
                "context": error_context(failure), "kind": kind}
    except OSError as failure:
        return {"ok": False, "error": type(failure).__name__,
                "message": str(failure), "context": {}, "kind": "error"}


def _load_failure(source: str, failure: BaseException) -> dict:
    """A structured verdict for a job whose program cannot be loaded.

    An input file deleted between admission and attempt, a bad or
    unknown ``suite:`` reference, an unreadable path — none of these
    can be fixed by degrading, so the payload is marked with the
    dedicated ``load-error`` kind (the supervisor fails the job fast,
    skipping the ladder) and carries structured context naming exactly
    what was unloadable, so the journaled outcome is diagnosable
    without reproducing the state of the filesystem.
    """
    context: dict = {"source": source, **error_context(failure)}
    if isinstance(failure, OSError):
        if failure.filename:
            context["path"] = str(failure.filename)
        if failure.errno is not None:
            context["errno"] = int(failure.errno)
    return {"ok": False, "error": type(failure).__name__,
            "message": f"cannot load job {source!r}: {failure}",
            "context": context, "kind": "load-error"}


def worker_main(spec: dict, result_path: str) -> None:
    """Child-process entry: cap resources, run, publish, exit 0.

    Anything that escapes (a true crash) leaves no result file, which
    the supervisor reads as a hard failure.
    """
    obs.reset()          # a forked child must not append to the
                         # supervisor's observability session
    _apply_rlimits(spec.get("memory_mb"))
    _arm_orphan_backstop(spec.get("timeout_s"))
    payload = run_attempt(spec)
    _write_result(result_path, payload)
