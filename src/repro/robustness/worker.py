"""The attempt worker of ``icbe batch`` and ``icbe serve``.

Every attempt runs in a worker process running :func:`serve_jobs`, one
loop over newline-delimited JSON frames: ``job`` (an attempt spec for
:func:`run_attempt`) and ``shutdown`` down, ``ready``, ``heartbeat``
(peak RSS, from a daemon thread) and ``result`` (the payload) up.  A
frame counts only once its newline has arrived (:class:`FrameReader`),
so a worker killed mid-frame reports nothing, and its host judges the
death (:func:`~repro.robustness.degrade.death_verdict`).

The hosts differ only in how long a worker lives.  Batch forks its
already-imported supervisor once per attempt (:func:`run_forked`): a
fork pays no interpreter start-up, and every attempt starts from the
same state, so neither its ``RLIMIT_AS`` headroom nor its peak-RSS
telemetry depends on the attempts before it.  Serve keeps resident
workers (:func:`main`): a fresh interpreter's start-up and imports
cost about twice a small job's latency, and forking the daemon would
fork a process whose executor threads are running.

The worker is designed to die well: it caps its address space before
any job runs (an OOM becomes a structured ``MemoryError`` failure),
and a SIGALRM backstop around each job, result frame included, kills
it long after its host should have, so a hang cannot outlive a
SIGKILLed host.  Payloads are ``{"ok": true, "tier": i, "counts":
{...}, ...}`` or a structured failure ``{"ok": false, "error": ...,
"message": ..., "context": {...}, "kind": ...}``; every field but the
``telemetry``/``spans``/``metrics`` side channels, which hosts strip
before journaling, is deterministic.  Chaos injection
(``spec["inject"]``: ``hang``, ``crash``, ``oom``) is gated on the
attempt's tier, so the ladder recovers the job one tier down.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
import zlib
from typing import BinaryIO, List, Optional, Sequence, Tuple

from repro import obs
from repro.errors import ReproError, error_context
from repro.interp.workload import Workload
from repro.ir import lower_program, verify_icfg
from repro.ir.icfg import ICFG
from repro.lang import parse_program
from repro.robustness import degrade
from repro.robustness.diffcheck import differential_check, seeded_workloads
from repro.robustness.faults import FaultPlan, FaultSpec

#: Exit codes the chaos faults use (recognizable in host logs).
EXIT_CRASH = 134          # simulated abort()
EXIT_ORPHAN_BACKSTOP = 124

#: How far past the host's own kill deadline the worker's SIGALRM
#: backstop waits before self-terminating (it only ever fires when the
#: host itself was killed and can no longer clean us up).
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
            pass                 # container forbids it: the host's kill
                                 # on timeout remains the backstop


def _backstop(timeout_s: Optional[float]) -> None:
    """Arm (or, with no timeout, disarm) a self-destruct long after the
    host would have killed us.

    The host SIGKILLs a worker whose attempt outlives ``timeout_s``;
    this alarm only matters when the *host* died first (e.g. the chaos
    drill SIGKILLs it), so an injected hang cannot leak a spinning
    orphan.
    """
    if not hasattr(signal, "SIGALRM"):
        return
    signal.signal(signal.SIGALRM,
                  lambda signum, frame: os._exit(EXIT_ORPHAN_BACKSTOP))
    signal.alarm(max(1, int(timeout_s * ORPHAN_GRACE_FACTOR) + 5)
                 if timeout_s else 0)


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
    structured ``ok: false`` payload (the host's job policy decides
    what it means for the ladder).

    On top of the deterministic result fields the payload carries a
    ``telemetry`` dict (attempt wall seconds, the worker process's peak
    RSS in KiB) and — when ``spec["trace"]`` asks for it — ``spans``
    and ``metrics`` from the worker's own observability session.  The
    host strips all three before anything reaches the journal,
    which is what keeps journal bytes deterministic.
    """
    started = time.monotonic()
    if spec.get("trace") and not obs.enabled():
        # Trace into a private session and serialize it for the host to
        # adopt.  (A caller already tracing, such as a test replaying
        # an attempt in its own process, keeps its session: sessions do
        # not nest.)
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


# ---------------------------------------------------------------------------
# The pipe protocol and the worker loop.
# ---------------------------------------------------------------------------


def encode_frame(record: dict) -> bytes:
    """One protocol frame: a line of JSON."""
    return (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")


class FrameReader:
    """Cuts a byte stream into frames.

    A frame counts only once its newline has arrived: a partial tail is
    held until the rest comes, and a stream that ends mid-frame (the
    worker was killed while writing) yields nothing for it.  A complete
    line that is not JSON raises :class:`ValueError`.
    """

    def __init__(self) -> None:
        self._tail = b""

    def feed(self, data: bytes) -> List[dict]:
        """The frames completed by ``data``, in order."""
        *lines, self._tail = (self._tail + data).split(b"\n")
        return [json.loads(line) for line in lines if line.strip()]


class _Channel:
    """Locked frame writes, shared by the loop and the heartbeat thread."""

    def __init__(self, handle: BinaryIO) -> None:
        self._handle = handle
        self._lock = threading.Lock()

    def send(self, record: dict) -> None:
        data = encode_frame(record)
        with self._lock:
            self._handle.write(data)
            self._handle.flush()


def serve_jobs(down: BinaryIO, up: BinaryIO, memory_mb: Optional[int],
               heartbeat_interval_s: float = 0.5) -> None:
    """The worker loop: answer each ``job`` frame read from ``down``
    with a ``result`` frame on ``up``, until ``shutdown`` or the end of
    ``down``.  The heartbeat thread starts before the memory cap
    applies, so the cap cannot cost the worker its thread stack."""
    obs.reset()                  # never inherit the host's session
    channel = _Channel(up)
    stop = threading.Event()

    def heartbeats() -> None:
        while not stop.wait(heartbeat_interval_s):
            try:
                channel.send({"type": "heartbeat", "rss_kb": _peak_rss_kb()})
            except (OSError, ValueError):
                return           # the host is gone; the loop will see it

    threading.Thread(target=heartbeats, daemon=True).start()
    _apply_rlimits(memory_mb)
    channel.send({"type": "ready", "pid": os.getpid()})
    try:
        for line in down:
            message = json.loads(line)
            if message["type"] == "shutdown":
                break
            _backstop(message["spec"].get("timeout_s"))
            try:
                channel.send({"type": "result", "id": message.get("id"),
                              "payload": run_attempt(message["spec"])})
            finally:
                _backstop(None)
    finally:
        stop.set()


def run_forked(down_fd: int, up_fd: int, memory_mb: Optional[int]) -> None:
    """A batch attempt's child, right after ``os.fork``: the loop on two
    pipe ends, then exit, never returning into the supervisor's code
    (status 1, traceback on stderr, if the loop raised)."""
    code = 1
    try:
        with open(down_fd, "rb") as down, open(up_fd, "wb") as up:
            serve_jobs(down, up, memory_mb)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


def main() -> None:
    """A daemon's resident worker: the loop on stdin and stdout, with
    the JSON config (``memory_mb``, ``heartbeat_interval_s``) in
    ``sys.argv[1]``.  Fd 1 then points at stderr, so a stray ``print``
    cannot corrupt the framing.  :mod:`repro.serve.pool` runs it with
    ``python -c``: run as ``-m``, this module would execute a second
    time as ``__main__``, beside the copy that tools wrapping
    :func:`run_attempt` at import see."""
    config = json.loads(sys.argv[1])
    up = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    serve_jobs(sys.stdin.buffer, up, config.get("memory_mb"),
               float(config["heartbeat_interval_s"]))
