"""A minimal blocking client for the ``icbe serve`` HTTP API.

Stdlib-only (``http.client``), synchronous, one connection per call —
deliberately boring, because its consumers are load generators, CI
chaos drills, and shell-adjacent scripts, all of which want obvious
failure modes over throughput.  Discovery mirrors the daemon: point
:meth:`ServeClient.from_run_dir` at the run directory and the client
reads ``serve.json`` for the bound host/port.

Every call returns ``(status, payload, headers)`` where ``payload`` is
the parsed JSON body (``{}`` when empty); connection-level failures
raise ``OSError`` so callers can distinguish "the daemon said no"
from "there is no daemon".
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Optional, Tuple

from repro.errors import ServeError
from repro.serve.app import read_discovery

Response = Tuple[int, dict, dict]


class ServeClient:
    """Blocking JSON-over-HTTP client for one ``icbe serve`` daemon."""

    def __init__(self, host: str, port: int,
                 timeout_s: float = 60.0) -> None:
        self.host = host
        self.port = port
        self.timeout_s = timeout_s

    @classmethod
    def from_run_dir(cls, run_dir: str,
                     timeout_s: float = 60.0) -> "ServeClient":
        info = read_discovery(run_dir)
        if info is None:
            raise ServeError(f"no serve.json in {run_dir!r}: daemon "
                             f"not started (or not yet bound)",
                             run_dir=run_dir)
        return cls(info["host"], info["port"], timeout_s=timeout_s)

    # -- transport ---------------------------------------------------------

    def request(self, method: str, path: str,
                body: Optional[dict] = None) -> Response:
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            payload = None if body is None else json.dumps(body)
            connection.request(method, path, body=payload,
                               headers={"Content-Type":
                                        "application/json"})
            response = connection.getresponse()
            raw = response.read()
            parsed = json.loads(raw) if raw else {}
            return response.status, parsed, dict(response.getheaders())
        finally:
            connection.close()

    # -- the API -----------------------------------------------------------

    def submit(self, **body) -> Response:
        """POST /v1/jobs with ``source=``/``suite=`` plus options."""
        return self.request("POST", "/v1/jobs", body)

    def job(self, job_id: str, wait_s: Optional[float] = None) -> Response:
        path = f"/v1/jobs/{job_id}"
        if wait_s is not None:
            path += f"?wait={wait_s:g}"
        return self.request("GET", path)

    def wait(self, job_id: str, timeout_s: float = 300.0) -> dict:
        """Long-poll one job to its terminal state; returns the job
        JSON.  Raises :class:`~repro.errors.ServeError` on timeout."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            remaining = min(30.0, max(0.5, deadline - time.monotonic()))
            status, payload, _ = self.job(job_id, wait_s=remaining)
            if status != 200:
                raise ServeError(f"poll of {job_id} got HTTP {status}: "
                                 f"{payload}", job_id=job_id,
                                 status=status)
            if payload.get("state") == "done":
                return payload
        raise ServeError(f"job {job_id} not done after {timeout_s:g}s",
                         job_id=job_id)

    def healthz(self) -> Response:
        return self.request("GET", "/healthz")

    def readyz(self) -> Response:
        return self.request("GET", "/readyz")

    def stats(self) -> dict:
        status, payload, _ = self.request("GET", "/v1/stats")
        if status != 200:
            raise ServeError(f"/v1/stats got HTTP {status}", status=status)
        return payload

    def drain(self) -> Response:
        return self.request("POST", "/v1/drain")
