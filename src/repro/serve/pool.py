"""The resident worker pool (parent side): spawn, talk, watch, kill.

This module is deliberately mechanical — it owns subprocess lifecycles
and the host side of the frame protocol of
:mod:`~repro.robustness.worker`, the worker ``icbe batch`` runs too,
and reports everything that happens to callbacks.  *Policy* (which job
runs where, when a worker is killed for a timeout, when it is recycled
for age or RSS, how a death maps onto the degradation ladder) lives in
:mod:`~repro.serve.service`.

One :class:`WorkerHandle` per live subprocess, with one asyncio reader
task draining its stdout: ``ready`` flips it idle, ``heartbeat``
refreshes its liveness stamp and peak RSS, ``result`` hands the
finished attempt payload up, and EOF — however the process died —
reports the worker (and whatever job it held) to ``on_exit``.  The
pool never restarts anything by itself; the service's monitor loop
calls :meth:`WorkerPool.ensure` to bring the population back to
target, which keeps respawn policy (not during drain, backoff after
spawn storms) out of the IO layer.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.robustness.worker import FrameReader, encode_frame
from repro.serve.config import ServeOptions
from repro.serve.models import JobRecord

#: Starts a resident worker, importing its module under its own name
#: (see :func:`repro.robustness.worker.main`).
_WORKER_COMMAND = "from repro.robustness.worker import main; main()"

W_STARTING = "starting"
W_IDLE = "idle"
W_BUSY = "busy"
W_STOPPING = "stopping"
W_DEAD = "dead"


class WorkerHandle:
    """One resident worker subprocess, as the daemon sees it."""

    def __init__(self, wid: str, process: asyncio.subprocess.Process,
                 now: float) -> None:
        self.wid = wid
        self.process = process
        self.state = W_STARTING
        self.job: Optional[JobRecord] = None
        #: Event-loop instant the current attempt must finish by.
        self.attempt_deadline: float = 0.0
        self.jobs_served = 0
        self.peak_rss_kb = 0
        self.last_heartbeat = now
        #: Why the pool killed it ("" = it died on its own).
        self.kill_reason = ""
        self.reader: Optional[asyncio.Task] = None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def describe(self) -> dict:
        return {"id": self.wid, "pid": self.pid, "state": self.state,
                "jobs_served": self.jobs_served,
                "peak_rss_kb": self.peak_rss_kb,
                "job": self.job.id if self.job else None}


class WorkerPool:
    """Spawns and supervises the resident workers."""

    def __init__(self, options: ServeOptions,
                 on_idle: Callable[[WorkerHandle], None],
                 on_result: Callable[[WorkerHandle, Optional[JobRecord],
                                      dict], None],
                 on_exit: Callable[[WorkerHandle, Optional[JobRecord],
                                    str], None]) -> None:
        self.options = options
        self.on_idle = on_idle
        self.on_result = on_result
        self.on_exit = on_exit
        self.workers: List[WorkerHandle] = []
        self._spawned = 0
        self._closed = False

    # -- population --------------------------------------------------------

    async def start(self) -> None:
        await self.ensure()

    async def ensure(self) -> int:
        """Spawn workers until the live population meets the target;
        returns how many were spawned.  No-op once closed."""
        if self._closed:
            return 0
        self.workers = [w for w in self.workers if w.state != W_DEAD]
        spawned = 0
        while len(self.workers) < self.options.workers:
            await self._spawn()
            spawned += 1
        return spawned

    async def _spawn(self) -> WorkerHandle:
        self._spawned += 1
        wid = f"w{self._spawned}"
        config = {"memory_mb": self.options.memory_mb,
                  "heartbeat_interval_s": self.options.heartbeat_interval_s}
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        existing = env.get("PYTHONPATH", "")
        if package_root not in existing.split(os.pathsep):
            env["PYTHONPATH"] = (package_root + os.pathsep + existing
                                 if existing else package_root)
        process = await asyncio.create_subprocess_exec(
            sys.executable, "-c", _WORKER_COMMAND, json.dumps(config),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env)
        worker = WorkerHandle(wid, process,
                              asyncio.get_running_loop().time())
        worker.reader = asyncio.create_task(self._read_loop(worker),
                                            name=f"pool-read-{wid}")
        self.workers.append(worker)
        obs.add("serve.worker.spawned")
        if self._closed:
            # stop() ran while this worker was starting and never saw
            # it; left alive, it would wait on stdin forever.
            self.kill(worker, "drain")
        return worker

    # -- protocol ----------------------------------------------------------

    async def send_job(self, worker: WorkerHandle, job: JobRecord,
                       spec: dict) -> None:
        """Hand one attempt to an idle worker."""
        assert worker.state == W_IDLE and worker.job is None
        worker.state = W_BUSY
        worker.job = job
        worker.attempt_deadline = (asyncio.get_running_loop().time()
                                   + self.options.timeout_s)
        frame = encode_frame({"type": "job", "id": job.id, "spec": spec})
        try:
            worker.process.stdin.write(frame)
            await worker.process.stdin.drain()
        except (ConnectionResetError, BrokenPipeError, OSError):
            # The worker died between dispatch decision and write; the
            # reader's EOF path will hand the job back for retry.
            pass

    def request_shutdown(self, worker: WorkerHandle, reason: str) -> None:
        """Ask a worker to exit after its current state (graceful)."""
        worker.state = W_STOPPING
        worker.kill_reason = reason
        try:
            worker.process.stdin.write(encode_frame({"type": "shutdown"}))
        except (ConnectionResetError, BrokenPipeError, OSError, ValueError):
            self.kill(worker, reason)

    def kill(self, worker: WorkerHandle, reason: str) -> None:
        """SIGKILL a worker; the reader's EOF path does the accounting."""
        worker.kill_reason = reason
        try:
            worker.process.kill()
        except ProcessLookupError:
            pass
        obs.add("serve.worker.killed")

    # -- the reader --------------------------------------------------------

    async def _read_loop(self, worker: WorkerHandle) -> None:
        loop = asyncio.get_running_loop()
        frames = FrameReader()
        try:
            while True:
                data = await worker.process.stdout.read(1 << 16)
                if not data:
                    break
                try:
                    messages = frames.feed(data)
                except ValueError:
                    self.kill(worker, "garbled-protocol")
                    break
                for message in messages:
                    self._on_frame(worker, message, loop.time())
        finally:
            job, worker.job = worker.job, None
            was = worker.state
            worker.state = W_DEAD
            try:
                await worker.process.wait()
            except ProcessLookupError:
                pass
            obs.add("serve.worker.exited")
            if was != W_DEAD:
                self.on_exit(worker, job, worker.kill_reason)

    def _on_frame(self, worker: WorkerHandle, message: dict,
                  now: float) -> None:
        kind = message.get("type")
        worker.last_heartbeat = now
        if kind == "ready":
            if worker.state == W_STARTING:
                worker.state = W_IDLE
                self.on_idle(worker)
        elif kind == "heartbeat":
            worker.peak_rss_kb = max(worker.peak_rss_kb,
                                     int(message.get("rss_kb", 0)))
        elif kind == "result":
            job, worker.job = worker.job, None
            worker.jobs_served += 1
            if worker.state == W_BUSY:
                worker.state = W_IDLE
            self.on_result(worker, job, message.get("payload") or {})
            if worker.state == W_IDLE:
                self.on_idle(worker)

    # -- teardown ----------------------------------------------------------

    async def stop(self, grace_s: float = 2.0) -> None:
        """Shut every worker down: polite first, SIGKILL after grace."""
        self._closed = True
        for worker in self.workers:
            if worker.state in (W_IDLE, W_STARTING):
                self.request_shutdown(worker, "drain")
        deadline = asyncio.get_running_loop().time() + grace_s
        while (any(w.state != W_DEAD for w in self.workers)
               and asyncio.get_running_loop().time() < deadline):
            await asyncio.sleep(0.02)
        for worker in self.workers:
            if worker.state != W_DEAD:
                self.kill(worker, "drain")
        for worker in self.workers:
            if worker.reader is not None:
                try:
                    await asyncio.wait_for(worker.reader, 5.0)
                except asyncio.TimeoutError:
                    worker.reader.cancel()

    # -- introspection -----------------------------------------------------

    def idle_workers(self) -> List[WorkerHandle]:
        return [w for w in self.workers if w.state == W_IDLE]

    def busy_workers(self) -> List[WorkerHandle]:
        return [w for w in self.workers if w.state == W_BUSY]

    def live_count(self) -> int:
        return sum(1 for w in self.workers if w.state != W_DEAD)

    def by_job(self, job_id: str) -> Optional[WorkerHandle]:
        for worker in self.workers:
            if worker.job is not None and worker.job.id == job_id:
                return worker
        return None

    def describe(self) -> List[Dict]:
        return [w.describe() for w in self.workers]
