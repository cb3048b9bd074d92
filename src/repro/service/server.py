"""The HTTP shim: ``http.server`` sockets around :class:`ClipService`.

Deliberately thin — every decision (routing, auth, deadlines, error
envelopes, metrics) lives in :meth:`ClipService.dispatch`, which this
module only adapts onto ``ThreadingHTTPServer``.  Stdlib only: the
repro has no web-framework dependency to install, and a threading
server is exactly right for a workload whose unit of concurrency is
one plan evaluation.

The handler:

* speaks HTTP/1.1 with an explicit ``Content-Length`` on every
  response (keep-alive works, chunking never happens);
* refuses oversized uploads by ``Content-Length`` *before* reading the
  body (413 + ``Connection: close``), so a hostile payload cannot make
  the server buffer it first;
* never logs per-request lines to stderr (the service's own metrics
  are the observability surface);
* catches dispatch-level surprises into a minimal 500 envelope so a
  handler thread can't die with a traceback on the socket.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from .app import ClipService, ServiceResponse


class ClipHTTPServer(ThreadingHTTPServer):
    """One thread per connection; daemon threads so Ctrl-C exits."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: ClipService):
        self.service = service
        super().__init__(address, ClipRequestHandler)


class ClipRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "clip-service"
    # Omit the default Python/BaseHTTP banner from the Server header.
    sys_version = ""
    # TCP_NODELAY: headers and body go out in separate writes, and a
    # short body would otherwise wait for the client's delayed ACK.
    disable_nagle_algorithm = True

    @property
    def service(self) -> ClipService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Silence the default per-request stderr line."""

    def _respond(self, response: ServiceResponse) -> None:
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(response.body)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(response.body)

    def _fail(self, status: int, error: str, message: str,
              close: bool = False) -> None:
        body = (json.dumps({
            "format": "clip-service-error",
            "version": 1,
            "error": error,
            "message": message,
            "status": status,
            "transient": False,
        }, indent=2) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if close:
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> bytes:
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest(f"invalid Content-Length: {raw!r}")
        if length > self.service.config.max_body:
            # Refuse before buffering; the unread body forces a close.
            raise _TooLarge(
                f"request body of {length} bytes exceeds the "
                f"{self.service.config.max_body}-byte ceiling"
            )
        return self.rfile.read(length) if length else b""

    def _handle(self, method: str) -> None:
        try:
            body = self._read_body()
        except _BadRequest as exc:
            self._fail(400, "ServiceError", str(exc), close=True)
            return
        except _TooLarge as exc:
            self._fail(413, "PayloadTooLargeError", str(exc), close=True)
            return
        try:
            response = self.service.dispatch(
                method, self.path, self.headers, body
            )
        except Exception as exc:  # noqa: BLE001 — last-ditch: keep the thread alive
            self._fail(500, type(exc).__name__, str(exc), close=True)
            return
        try:
            self._respond(response)
        except (BrokenPipeError, ConnectionResetError):
            self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 — http.server naming
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802
        self._handle("PUT")

    def do_DELETE(self) -> None:  # noqa: N802
        self._handle("DELETE")


class _BadRequest(Exception):
    pass


class _TooLarge(Exception):
    pass


def make_server(service: ClipService) -> ClipHTTPServer:
    """Bind a server for ``service`` at its configured host and port.

    Port ``0`` asks the OS for an ephemeral port; read the actual one
    back from ``server.server_address[1]`` (the CLI prints it, and the
    smoke tests parse it).
    """
    return ClipHTTPServer(
        (service.config.host, service.config.port), service
    )
