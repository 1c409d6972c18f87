"""A minimal, dependency-free HTTP/1.1 front end for the daemon.

Just enough HTTP for a control-plane API, written directly against
``asyncio.start_server``: one request per connection
(``Connection: close``), JSON bodies bounded by
``ServeOptions.max_body_bytes``, chunked transfer-encoding only for
the one streaming endpoint.  No routing framework, no regexes — the
URL space is five endpoints and a dispatch ladder reads better than a
table at this size.

Endpoints (documented for clients in ``docs/SERVING.md``)::

    GET  /healthz              liveness  (200 while the process runs)
    GET  /readyz               readiness (503 when draining/workerless)
    GET  /v1/stats             queue/worker/cache/breaker introspection
    POST /v1/jobs              submit    {"source": ...}|{"suite": ...}
    GET  /v1/jobs/<id>         poll      (?wait=SECONDS long-polls)
    GET  /v1/jobs/<id>/stream  NDJSON state snapshots until terminal
    POST /v1/drain             begin graceful drain (also SIGTERM)

Every admission-control refusal is an *explicit* HTTP status the
client can act on: 429 with Retry-After (rate limit, queue full), 503
(draining), 413 (body too large) — never a hang, never a dropped
connection.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro import obs
from repro.serve.config import ServeOptions
from repro.serve.service import OptimizationService

_MAX_HEADER_BYTES = 32 * 1024
_STREAM_IDLE_S = 30.0


class _BadRequest(Exception):
    """Maps straight onto a 400 (or the carried status)."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class HttpFrontend:
    """Translates HTTP requests into :class:`OptimizationService` calls."""

    def __init__(self, service: OptimizationService,
                 options: ServeOptions) -> None:
        self.service = service
        self.options = options
        self._server: Optional[asyncio.base_events.Server] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> int:
        """Bind and listen; returns the actual port (resolves port 0)."""
        self._server = await asyncio.start_server(
            self._handle, host=self.options.host, port=self.options.port)
        return self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- one connection ----------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, target, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
            except _BadRequest as refusal:
                await self._send_json(writer, refusal.status,
                                      {"error": "bad-request",
                                       "message": str(refusal)})
                return
            except (asyncio.IncompleteReadError, ConnectionError,
                    asyncio.LimitOverrunError):
                return
            client = headers.get("x-client") or self._peer(writer)
            try:
                await self._dispatch(writer, method, target, headers,
                                     body, client)
            except (ConnectionError, BrokenPipeError):
                raise
            except Exception as surprise:   # a 500 beats a dead socket
                obs.add("serve.errors.internal")
                await self._send_json(
                    writer, 500,
                    {"error": type(surprise).__name__,
                     "message": str(surprise)})
        except (ConnectionError, BrokenPipeError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError, OSError):
                pass

    @staticmethod
    def _peer(writer: asyncio.StreamWriter) -> str:
        peer = writer.get_extra_info("peername")
        return peer[0] if isinstance(peer, tuple) else "unknown"

    async def _read_head(self, reader: asyncio.StreamReader
                         ) -> Tuple[str, str, Dict[str, str]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large", status=431)
        if len(head) > _MAX_HEADER_BYTES:
            raise _BadRequest("request head too large", status=431)
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            raise _BadRequest(f"malformed request line: {lines[0]!r}")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        return method.upper(), target, headers

    async def _read_body(self, reader: asyncio.StreamReader,
                         headers: Dict[str, str]) -> bytes:
        raw_length = headers.get("content-length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            raise _BadRequest(f"bad Content-Length: {raw_length!r}")
        if length < 0:
            raise _BadRequest(f"bad Content-Length: {raw_length!r}")
        if length > self.options.max_body_bytes:
            raise _BadRequest(
                f"body of {length} bytes exceeds the "
                f"{self.options.max_body_bytes}-byte limit", status=413)
        if length == 0:
            return b""
        return await reader.readexactly(length)

    # -- routing -----------------------------------------------------------

    async def _dispatch(self, writer: asyncio.StreamWriter, method: str,
                        target: str, headers: Dict[str, str],
                        body: bytes, client: str) -> None:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = parse_qs(split.query)
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, {"ok": True})
        elif path == "/readyz" and method == "GET":
            ready = self.service.ready
            await self._send_json(
                writer, 200 if ready else 503,
                {"ready": ready, "draining": self.service.draining})
        elif path == "/v1/stats" and method == "GET":
            await self._send_json(writer, 200, self.service.describe())
        elif path == "/v1/jobs" and method == "POST":
            await self._submit(writer, body, client)
        elif path == "/v1/drain" and method == "POST":
            asyncio.get_running_loop().create_task(self.service.stop())
            await self._send_json(writer, 202, {"draining": True})
        elif path.startswith("/v1/jobs/") and method == "GET":
            job_id = path[len("/v1/jobs/"):]
            if job_id.endswith("/stream"):
                await self._stream(writer, job_id[:-len("/stream")])
            else:
                await self._poll(writer, job_id, query)
        else:
            await self._send_json(writer, 404,
                                  {"error": "not-found", "path": path})

    # -- endpoints ---------------------------------------------------------

    async def _submit(self, writer: asyncio.StreamWriter, body: bytes,
                      client: str) -> None:
        try:
            parsed = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError):
            await self._send_json(writer, 400,
                                  {"error": "bad-json",
                                   "message": "body must be a JSON object"})
            return
        if not isinstance(parsed, dict):
            await self._send_json(writer, 400,
                                  {"error": "bad-json",
                                   "message": "body must be a JSON object"})
            return
        status, payload, extra = await self.service.submit(parsed, client)
        await self._send_json(writer, status, payload, extra)

    async def _poll(self, writer: asyncio.StreamWriter, job_id: str,
                    query: Dict[str, list]) -> None:
        job = self.service.job_info(job_id)
        if job is None:
            await self._send_json(writer, 404,
                                  {"error": "unknown-job", "id": job_id})
            return
        wait_s = 0.0
        if "wait" in query:
            try:
                wait_s = min(60.0, max(0.0, float(query["wait"][0])))
            except ValueError:
                await self._send_json(
                    writer, 400, {"error": "bad-request",
                                  "message": "wait must be a number"})
                return
        if wait_s > 0 and not job.terminal:
            try:
                await asyncio.wait_for(job.done_event().wait(), wait_s)
            except asyncio.TimeoutError:
                pass
        await self._send_json(writer, 200, job.to_json())

    async def _stream(self, writer: asyncio.StreamWriter,
                      job_id: str) -> None:
        job = self.service.job_info(job_id)
        if job is None:
            await self._send_json(writer, 404,
                                  {"error": "unknown-job", "id": job_id})
            return
        obs.add("serve.streams")
        queue = job.subscribe()
        try:
            writer.write(b"HTTP/1.1 200 OK\r\n"
                         b"Content-Type: application/x-ndjson\r\n"
                         b"Transfer-Encoding: chunked\r\n"
                         b"Connection: close\r\n\r\n")
            await writer.drain()
            while True:
                try:
                    snapshot = await asyncio.wait_for(queue.get(),
                                                      _STREAM_IDLE_S)
                except asyncio.TimeoutError:
                    snapshot = job.to_json()    # keep-alive snapshot
                if snapshot is None:
                    break
                chunk = (json.dumps(snapshot, sort_keys=True) + "\n"
                         ).encode("utf-8")
                writer.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
                await writer.drain()
                if snapshot.get("state") == "done":
                    break
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            job.unsubscribe(queue)

    # -- responses ---------------------------------------------------------

    _REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 413: "Payload Too Large",
                429: "Too Many Requests", 431: "Request Header Fields "
                "Too Large", 500: "Internal Server Error",
                503: "Service Unavailable"}

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict,
                         extra_headers: Optional[Dict[str, str]] = None
                         ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        reason = self._REASONS.get(status, "Unknown")
        head = [f"HTTP/1.1 {status} {reason}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}",
                "Connection: close"]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1")
                     + body)
        await writer.drain()
