"""The socket boundary: HTTP framing, limits, shedding, and drain.

Everything here is a thin byte pump over :class:`ServeService` — the
handler reads a bounded JSON body, dispatches to the service, and
writes the canonical rendering back. All the robustness policy lives
at this boundary:

* ``Content-Length`` is required (411) and capped (413 + connection
  close, so an oversized sender cannot stuff the socket),
* a non-blocking inflight semaphore sheds excess load with 429 and a
  ``Retry-After`` hint instead of queueing unboundedly,
* a per-request deadline (checked between batch items) turns runaway
  requests into typed 503s,
* :meth:`ReproServeDaemon.request_drain` flips the daemon into
  draining mode — new requests get 503 while in-flight handlers finish
  (``block_on_close`` joins them) — which is also the SIGTERM path.
  It also shuts the read side of every open connection, so a handler
  idling between keep-alive requests reads EOF and exits instead of
  holding ``server_close`` open until the client hangs up,
* ``TCP_NODELAY`` is set on every accepted socket: a response leaves in
  two sends (headers, then body), and with Nagle on the body would wait
  for the client's delayed ACK of the headers (~40 ms per keep-alive
  request).

This is the one module in the repo allowed to read a clock outside the
measurement layer: deadlines are a property of the socket boundary,
not of any answer, so no timestamp ever reaches a response payload.
The waiver is confined to :func:`_now` below.
"""

from __future__ import annotations

import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from types import FrameType
from typing import Any, Optional

from repro.query.render import payload_to_json
from repro.serve.protocol import (
    BadRequestError,
    DeadlineError,
    DrainingError,
    OverloadedError,
    classify_error,
)
from repro.serve.service import ServeService

#: Hard ceiling on request bodies; a batch of max_batch queries is far
#: smaller, so anything bigger is garbage or abuse.
DEFAULT_MAX_BODY = 1 << 20

#: Seconds a single request may run before it is cut off with a 503.
DEFAULT_DEADLINE_S = 30.0

#: Concurrent requests admitted before the daemon sheds with 429.
DEFAULT_MAX_INFLIGHT = 32


def _now() -> float:
    """Monotonic seconds, for socket deadlines only.

    Deadline enforcement is inherently wall-clock; quarantining the
    read here keeps every other serve module deterministic and lets
    the data-flow checker prove no timestamp reaches a payload.
    """
    return time.monotonic()  # repro: noqa[REP001] -- request deadlines are a socket-boundary concern; the value never enters a response payload


def _shutdown(server: ThreadingHTTPServer) -> None:
    """Stop the accept loop (must run off the serve_forever thread)."""
    server.shutdown()


def _stop_reading(connection: socket.socket) -> None:
    """Make the handler's next read past its buffer return EOF."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the peer already reset or closed the connection


class ReproServeDaemon(ThreadingHTTPServer):
    """A ``repro-serve/1`` daemon over one :class:`ServeService`."""

    # Drain semantics: handler threads are joined on server_close, so
    # in-flight requests finish before the process exits.
    daemon_threads = False
    block_on_close = True
    allow_reuse_address = True

    def __init__(
        self,
        service: ServeService,
        host: str = "127.0.0.1",
        port: int = 0,
        max_body: int = DEFAULT_MAX_BODY,
        deadline_s: float = DEFAULT_DEADLINE_S,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
    ) -> None:
        self.service = service
        self.max_body = max_body
        self.deadline_s = deadline_s
        self.inflight = threading.BoundedSemaphore(max_inflight)
        self.draining = threading.Event()
        # Re-entrant: the SIGTERM handler runs request_drain on the
        # accept-loop thread, possibly while process_request holds it.
        self._drain_lock = threading.RLock()
        self._drain_started = False
        # Accepted sockets whose handler has not finished (a dict for
        # its ordered keys); guarded by _drain_lock so request_drain
        # sees every one of them.
        self._connections: dict[socket.socket, None] = {}
        super().__init__((host, port), ServeHandler)

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is concrete even for port 0."""
        host = self.server_address[0]
        if not isinstance(host, str):
            host = host.decode("ascii")
        return host, int(self.server_address[1])

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._drain_lock:
            self._connections[request] = None
            if self._drain_started:
                _stop_reading(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._drain_lock:
            self._connections.pop(request, None)
        super().shutdown_request(request)

    def request_drain(self) -> None:
        """Refuse new work and stop accepting; in-flight finishes.

        Every open connection loses its read side: a handler mid-request
        still writes its response, while one idle between keep-alive
        requests reads EOF and exits, so ``server_close`` (which joins
        the handlers) does not wait on clients that never hang up.

        Safe to call from a signal handler or any request thread:
        ``shutdown()`` blocks until the accept loop exits, so it runs
        on a helper thread.
        """
        with self._drain_lock:
            if self._drain_started:
                return
            self._drain_started = True
            self.draining.set()
            for connection in self._connections:
                _stop_reading(connection)
        threading.Thread(target=_shutdown, args=(self,)).start()

    def install_sigterm_drain(self) -> None:
        """Route SIGTERM (and SIGINT) into a graceful drain."""

        def handler(signum: int, frame: Optional[FrameType]) -> None:
            self.request_drain()

        signal.signal(signal.SIGTERM, handler)
        signal.signal(signal.SIGINT, handler)


class ServeHandler(BaseHTTPRequestHandler):
    """Routes ``repro-serve/1`` endpoints onto the service."""

    protocol_version = "HTTP/1.1"
    # A response is two sends (headers, then body); without TCP_NODELAY
    # Nagle holds the body until the client's delayed ACK of the headers.
    disable_nagle_algorithm = True
    server: ReproServeDaemon

    # The default handler logs every request to stderr; the daemon's
    # observability lives in /statz instead.
    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _respond(self, status: int, payload: dict[str, Any]) -> None:
        body = payload_to_json(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        self.end_headers()
        self.wfile.write(body)

    def _refuse(self, endpoint: str, exc: Exception) -> None:
        """Refuse without reading the body; the connection must close."""
        status, payload = classify_error(exc)
        self.close_connection = True
        self._respond(status, payload)
        self.server.service.record(endpoint, status)

    def _read_body(self) -> bytes:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise BadRequestError.with_status(
                411, "Content-Length is required"
            )
        try:
            length = int(length_header)
        except ValueError:
            raise BadRequestError(
                f"bad Content-Length {length_header!r}"
            ) from None
        if length < 0:
            raise BadRequestError(f"bad Content-Length {length!r}")
        if length > self.server.max_body:
            self.close_connection = True
            raise BadRequestError.with_status(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.server.max_body}-byte limit",
            )
        return self.rfile.read(length)

    def _parse_body(self) -> dict[str, Any]:
        raw = self._read_body()
        try:
            doc = json.loads(raw)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise BadRequestError(f"request body is not JSON: {exc}") from None
        except RecursionError:
            raise BadRequestError("request body nests too deeply") from None
        if not isinstance(doc, dict):
            raise BadRequestError("request body must be a JSON object")
        return doc

    # -- GET: introspection ----------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            payload = self.server.service.healthz()
            status = 200
        elif self.path == "/statz":
            payload = self.server.service.statz()
            status = 200
        else:
            exc = BadRequestError.with_status(
                404, f"no such endpoint {self.path!r}"
            )
            status, payload = classify_error(exc)
        self._respond(status, payload)
        self.server.service.record(self.path, status)

    # -- POST: queries ---------------------------------------------------------

    def do_POST(self) -> None:
        endpoint = self.path
        if self.server.draining.is_set():
            self._refuse(endpoint, DrainingError("daemon is draining"))
            return
        if not self.server.inflight.acquire(blocking=False):
            self._refuse(
                endpoint,
                OverloadedError("too many requests in flight; retry"),
            )
            return
        try:
            status, payload = self._dispatch(endpoint)
        finally:
            self.server.inflight.release()
        self._respond(status, payload)
        self.server.service.record(endpoint, status)

    def _dispatch(self, endpoint: str) -> tuple[int, dict[str, Any]]:
        deadline = (
            _now() + self.server.deadline_s
            if self.server.deadline_s
            else None
        )

        def check() -> None:
            if deadline is not None and _now() > deadline:
                raise DeadlineError(
                    f"request ran past its "
                    f"{self.server.deadline_s:g}s deadline"
                )

        try:
            doc = self._parse_body()
            check()
            if endpoint == "/v1/query":
                return 200, self.server.service.answer(doc)
            if endpoint == "/v1/batch":
                return 200, self.server.service.answer_batch(doc, check)
            if endpoint == "/v1/diff":
                return 200, self.server.service.answer_diff(doc)
            raise BadRequestError.with_status(
                404, f"no such endpoint {endpoint!r}"
            )
        except Exception as exc:
            return classify_error(exc)
