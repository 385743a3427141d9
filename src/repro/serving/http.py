"""Stdlib HTTP+JSON front end for the serving scheduler.

One ``ThreadingHTTPServer`` (a thread per connection — fine, because
request threads only parse, enqueue, and wait; all engine work happens
on the scheduler's single batch thread) exposing:

* ``POST /v1/whatif``   — price a cluster config (ranked advisor
  recommendation; synchronous by default);
* ``POST /v1/advise``   — the auto-advisor's sharded Pareto sweep
  (synchronous by default; serving-sized grid unless the client asks
  for more);
* ``POST /v1/simulate`` — run simulations (asynchronous by default,
  ``202`` + job id);
* ``GET /v1/jobs/<id>`` — poll a submitted request (``?wait_s=N``
  long-polls until terminal or the wait expires);
* ``GET /metrics``      — Prometheus text exposition 0.0.4 of the
  process registry (scheduler + engine + cache series);
* ``GET /healthz``      — liveness plus scheduler counters.

Errors are structured JSON — ``{"error": {"code", "message"}}`` — with
the HTTP status carrying the class (400 bad request, 404 unknown job,
413 oversized body, 429 over quota with a ``Retry-After`` header, 503
queue full).  A synchronous request that fails as ``invalid`` — a
configuration nothing can serve, such as a batch no candidate fits in
memory — is a 400 like any other bad input; engine and internal
failures are 500s.  No dependency beyond the standard library.
"""

from __future__ import annotations

import json
import math
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import ConfigurationError, ReproError
from ..telemetry.logs import get_logger
from ..telemetry.metrics import get_registry, render_prometheus
from .quota import AdmissionError
from .requests import parse_request
from .scheduler import ServingScheduler

#: Largest accepted request body; anything bigger is rejected 413.
MAX_BODY_BYTES = 1 << 20

#: Request state -> HTTP status for synchronous (waited) responses.
_STATE_STATUS = {"done": 200, "failed": 500, "expired": 504,
                 "queued": 202, "running": 202}


class ServingHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the server's scheduler."""

    server_version = "repro-serve"
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two sends; without TCP_NODELAY, Nagle
    # holds the body until the client's delayed ACK (~40 ms a response).
    disable_nagle_algorithm = True
    #: Requests answered on this connection.  Waiting on its first
    #: request does not count the connection as blocked: a client that
    #: has just connected may be one of several connecting together,
    #: and the batch keeps its window for the others.
    answered = 0

    @property
    def scheduler(self) -> ServingScheduler:
        """The scheduler attached by :func:`make_server`."""
        return self.server.scheduler  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Route per-request access logs to the structured logger at
        debug level instead of BaseHTTPRequestHandler's raw stderr."""
        get_logger("serving.http").debug(format % args)

    def handle_one_request(self) -> None:
        """Serve the connection's next request, and count it."""
        super().handle_one_request()
        self.answered += 1

    # ----- responses ---------------------------------------------------------

    def _send_json(self, status: int, body: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        payload = (json.dumps(body, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_error_json(self, status: int, code: str, message: str,
                         retry_after_s: Optional[float] = None) -> None:
        error: Dict[str, Any] = {"code": code, "message": message}
        headers = {}
        if retry_after_s is not None:
            error["retry_after_s"] = retry_after_s
            headers["Retry-After"] = str(max(1, int(round(retry_after_s))))
        self._send_json(status, {"error": error}, headers=headers)

    # ----- routing -----------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """``/healthz``, ``/metrics``, and ``/v1/jobs/<id>``."""
        parsed = urlparse(self.path)
        try:
            if parsed.path == "/healthz":
                self._send_json(200, {"status": "ok",
                                      **self.scheduler.stats()})
            elif parsed.path == "/metrics":
                text = render_prometheus(get_registry().snapshot())
                payload = text.encode("utf-8")
                self.send_response(200)
                self.send_header(
                    "Content-Type",
                    "text/plain; version=0.0.4; charset=utf-8")
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)
            elif parsed.path.startswith("/v1/jobs/"):
                self._get_job(parsed)
            else:
                self._send_error_json(404, "not_found",
                                      f"no route {parsed.path!r}")
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, "internal",
                                  f"{type(exc).__name__}: {exc}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """``/v1/whatif``, ``/v1/advise``, and ``/v1/simulate``
        submissions."""
        parsed = urlparse(self.path)
        routes = {"/v1/whatif": "whatif", "/v1/simulate": "simulate",
                  "/v1/advise": "advise"}
        try:
            kind = routes.get(parsed.path)
            if kind is None:
                self._send_error_json(404, "not_found",
                                      f"no route {parsed.path!r}")
                return
            body, error = self._read_json_body()
            if error is not None:
                return
            self._submit(kind, body)
        except (BrokenPipeError, ConnectionResetError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            self._send_error_json(500, "internal",
                                  f"{type(exc).__name__}: {exc}")

    # ----- handlers ----------------------------------------------------------

    def _read_json_body(self) -> Tuple[Any, Optional[str]]:
        """Read and decode the request body, emitting the error response
        itself (returning ``(None, reason)``) when it is unusable."""
        length = self.headers.get("Content-Length")
        try:
            n = int(length) if length is not None else 0
            if n < 0:
                raise ValueError(length)
        except ValueError:
            self.close_connection = True  # the body's framing is unknown
            self._send_error_json(400, "bad_request",
                                  f"bad Content-Length {length!r}")
            return None, "bad length"
        if n > MAX_BODY_BYTES:
            # Drain (bounded) so a client mid-write sees the 413
            # instead of a connection reset; anything truly huge gets
            # the reset, and either way this connection is done.
            remaining = min(n, 8 * MAX_BODY_BYTES)
            while remaining > 0:
                chunk = self.rfile.read(min(65536, remaining))
                if not chunk:
                    break
                remaining -= len(chunk)
            self.close_connection = True
            self._send_error_json(
                413, "too_large",
                f"body of {n} bytes exceeds {MAX_BODY_BYTES}")
            return None, "too large"
        raw = self.rfile.read(n) if n else b"{}"
        try:
            return json.loads(raw.decode("utf-8") or "{}"), None
        except (UnicodeDecodeError, ValueError) as exc:
            self._send_error_json(400, "bad_request",
                                  f"body is not valid JSON: {exc}")
            return None, "bad json"

    def _submit(self, kind: str, body: Any) -> None:
        tenant = self.headers.get("X-Tenant", "default")
        try:
            request = parse_request(kind, body)
        except ConfigurationError as exc:
            self._send_error_json(400, "bad_request", str(exc))
            return
        try:
            state = self.scheduler.submit(request, tenant=tenant)
        except AdmissionError as exc:
            self._send_error_json(exc.status, exc.reason, str(exc),
                                  retry_after_s=exc.retry_after_s)
            return
        if request.wait:
            # ``or state``: a state forgotten meanwhile was finished.
            state = self.scheduler.wait(state.id,
                                        timeout_s=request.timeout_s or
                                        self.scheduler.default_timeout_s,
                                        connection=self.answered > 0) or state
        if state.status == "failed" and state.invalid:
            self._send_error_json(400, "bad_request", state.error)
            return
        self._send_json(_STATE_STATUS.get(state.status, 200),
                        state.to_dict())

    def _get_job(self, parsed: Any) -> None:
        job_id = parsed.path[len("/v1/jobs/"):]
        query = parse_qs(parsed.query)
        state = self.scheduler.get(job_id)
        if state is None:
            self._send_error_json(404, "not_found",
                                  f"unknown job {job_id!r}")
            return
        wait_values = query.get("wait_s")
        if wait_values:
            try:
                wait_s = float(wait_values[0])
                if not math.isfinite(wait_s):
                    raise ValueError(wait_s)
            except ValueError:
                self._send_error_json(400, "bad_request",
                                      f"bad wait_s {wait_values[0]!r}")
                return
            state = self.scheduler.wait(job_id,
                                        timeout_s=min(wait_s, 300.0),
                                        connection=self.answered > 0) or state
        self._send_json(200, state.to_dict())


class ServingHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server carrying its scheduler.

    ``daemon_threads`` so in-flight connections never block process
    exit; ``allow_reuse_address`` for fast restarts behind a load
    balancer's health checks.  The scheduler counts each connection
    open from the moment it is accepted until its handler thread ends,
    so that a batch forms early only when no open connection can add
    to it.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int],
                 scheduler: ServingScheduler):
        """Bind to ``address`` and attach ``scheduler`` for handlers."""
        super().__init__(address, ServingHandler)
        self.scheduler = scheduler

    def process_request(self, request: Any, client_address: Any) -> None:
        """Count the accepted connection, then hand it to a thread."""
        self.scheduler.connection_opened()
        try:
            super().process_request(request, client_address)
        except BaseException:
            self.scheduler.connection_closed()
            raise

    def process_request_thread(self, request: Any,
                               client_address: Any) -> None:
        """Serve one connection; it stops counting once closed."""
        try:
            super().process_request_thread(request, client_address)
        finally:
            self.scheduler.connection_closed()


def make_server(scheduler: ServingScheduler, host: str = "127.0.0.1",
                port: int = 0) -> ServingHTTPServer:
    """Bind a server (``port=0`` picks an ephemeral port; read the
    actual one from ``server.server_address``).  A port outside
    ``0..65535`` raises :class:`ConfigurationError` before any socket
    is made."""
    if isinstance(port, bool) or not isinstance(port, int) \
            or not 0 <= port <= 65535:
        raise ConfigurationError(
            f"port must be an integer in 0..65535, got {port!r}")
    try:
        return ServingHTTPServer((host, port), scheduler)
    except OSError as exc:
        raise ReproError(f"cannot bind {host}:{port}: {exc}")
