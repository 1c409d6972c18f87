"""CI gate: SIGKILL the serve daemon mid-request, restart, recover.

Stands up ``icbe serve``, submits the six-benchmark suite at scale 2
plus one hang-injected job, SIGKILLs the daemon while work is still in
flight, restarts it on the same run directory, and fails the build if:

- any admitted job fails to reach a definite result under its original
  id after the restart (journal recovery lost work), or
- the hang-injected job does not land DEGRADED exactly one tier down
  (the ladder did not survive the restart), or
- resubmitting an already-completed benchmark is not answered from the
  content-addressed cache (the disk cache did not survive), or
- the restarted daemon cannot drain cleanly (exit 0) afterwards.

Run:  PYTHONPATH=src python benchmarks/ci_chaos_serve.py
"""

import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from repro.benchgen.suite import benchmark_names
from repro.serve.app import read_discovery
from repro.serve.client import ServeClient

SCALE = 2
WORKERS = 2
SEED = 97
ATTEMPT_TIMEOUT_S = 60.0
JOB_WAIT_S = 420.0


def spawn(run_dir, daemons):
    """Start a daemon in its own process group, recorded in ``daemons``
    before anything can fail, and wait until it is ready."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--workers", str(WORKERS), "--run-dir", run_dir,
         "--timeout", str(ATTEMPT_TIMEOUT_S), "--seed", str(SEED)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        start_new_session=True)
    daemons.append(process)
    deadline = time.monotonic() + 120.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise SystemExit("serve daemon died on startup:\n"
                             + process.stderr.read().decode())
        info = read_discovery(run_dir)
        if info is not None and info.get("pid") == process.pid:
            client = ServeClient(info["host"], info["port"],
                                 timeout_s=60.0)
            try:
                if client.readyz()[0] == 200:
                    return process, client
            except OSError:
                pass
        time.sleep(0.05)
    raise SystemExit("serve daemon never became ready")


def main():
    scratch = tempfile.mkdtemp(prefix="icbe-ci-chaos-serve-")
    daemons = []
    try:
        drill(os.path.join(scratch, "run"), daemons)
    finally:
        # Every exit path: the daemons and their workers (each daemon
        # leads its own process group), then the scratch directory.
        for process in daemons:
            try:
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait(timeout=30)
            process.stderr.close()
        shutil.rmtree(scratch, ignore_errors=True)


def drill(run_dir, daemons):
    process, client = spawn(run_dir, daemons)

    expectations = {}            # job id -> expected status
    for name in benchmark_names():
        status, payload, _ = client.submit(suite=f"{name}@{SCALE}")
        if status != 202:
            raise SystemExit(f"submission refused: {status} {payload}")
        expectations[payload["id"]] = "OK"
    status, payload, _ = client.submit(
        suite=f"li_like@{SCALE}",
        inject={"kind": "hang", "tiers": [0]})
    if status != 202:
        raise SystemExit(f"chaos submission refused: {status} {payload}")
    expectations[payload["id"]] = "DEGRADED"
    print(f"admitted {len(expectations)} jobs "
          f"(1 hang-injected), waiting for first completion...")

    deadline = time.monotonic() + JOB_WAIT_S
    while client.stats()["jobs"]["completed"] == 0:
        if time.monotonic() > deadline:
            raise SystemExit("no job completed before the kill window")
        time.sleep(0.1)

    print("SIGKILL mid-request")
    process.kill()
    process.wait(timeout=30)

    process, client = spawn(run_dir, daemons)
    recovered = client.stats()["jobs"]["recovered"]
    print(f"restarted: {recovered} interrupted job(s) recovered "
          f"from the journal")
    if recovered < 1:
        raise SystemExit("restart recovered nothing; the kill landed "
                         "after all jobs finished (widen the window)")

    failures = []
    for job_id, expected in expectations.items():
        final = client.wait(job_id, timeout_s=JOB_WAIT_S)
        got = final["result"]["status"]
        tier = final["result"]["tier"]
        print(f"  {job_id} {final['name']:<16} {got:<9} tier {tier}")
        if got != expected:
            failures.append(f"{job_id} ({final['name']}): expected "
                            f"{expected}, got {got}")
        if expected == "DEGRADED" and tier != 1:
            failures.append(f"{job_id}: hang cost {tier} tiers, not 1")
    if failures:
        raise SystemExit("jobs lost or mis-recovered after SIGKILL:\n  "
                         + "\n  ".join(failures))

    status, payload, _ = client.submit(suite=f"go_like@{SCALE}")
    if status != 200 or not payload.get("cached"):
        raise SystemExit(f"resubmission was not cache-served: "
                         f"{status} {payload}")
    print("resubmission of a completed benchmark: cache hit")

    client.drain()
    code = process.wait(timeout=120)
    if code != 0:
        raise SystemExit(f"drained daemon exited {code}, expected 0")
    print("chaos-serve gate passed: no lost results, cache intact, "
          "clean drain")


if __name__ == "__main__":
    main()
