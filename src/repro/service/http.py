"""Stdlib HTTP/JSON API for the classification engine.

Endpoints:

* ``POST /classify`` — body ``{"qname": "x.example.com"}`` for a
  single verdict, or ``{"qnames": [...]}`` for a batch.  Either shape
  is one vectorised ``classify_batch`` call, made on the request's own
  handler thread under the server's engine lock.
* ``GET /metrics`` — Prometheus-style text exposition of the request,
  engine, verdict-cache and classify-call counters.
* ``GET /healthz`` — liveness probe.

Built on ``http.server.ThreadingHTTPServer`` only — the repo has no
web-framework dependency and the daemon must not grow one.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Sequence, Tuple

from repro.service.engine import ClassificationEngine, Verdict

__all__ = ["ClassifyServer", "make_server", "MAX_BODY_BYTES",
           "MAX_BATCH_NAMES"]

#: Request-body size cap (bytes); larger posts get 413.
MAX_BODY_BYTES = 1_048_576

#: Per-request qname cap; larger batches get 400.
MAX_BATCH_NAMES = 10_000

#: Bounds on draining a connection the server closes (64 KiB a read).
LINGER_READS = 64
LINGER_TIMEOUT_S = 1.0


class ClassifyServer(ThreadingHTTPServer):
    """Threaded HTTP server owning the engine.

    Each request is classified on its own handler thread; one lock
    serialises engine access, since the engine's caches and counters
    are not thread-safe.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int],
                 engine: ClassificationEngine) -> None:
        super().__init__(address, _ClassifyHandler)
        self.engine = engine
        self._engine_lock = threading.Lock()
        self._classify_calls = 0
        self._classify_names = 0
        self._counter_lock = threading.Lock()
        self._requests: Dict[str, int] = {}
        self._errors = 0

    def classify(self, qnames: Sequence[str]) -> List[Verdict]:
        """One engine call for one request's qnames.

        ``classify_batch`` is looked up per call, so a wrapper set on
        the engine after the server was built still sees every call.
        """
        with self._engine_lock:
            verdicts = self.engine.classify_batch(qnames)
            self._classify_calls += 1
            self._classify_names += len(qnames)
        return verdicts

    def count_request(self, endpoint: str) -> None:
        with self._counter_lock:
            self._requests[endpoint] = self._requests.get(endpoint, 0) + 1

    def count_error(self) -> None:
        with self._counter_lock:
            self._errors += 1

    def request_counts(self) -> Tuple[Dict[str, int], int]:
        with self._counter_lock:
            return dict(self._requests), self._errors

    def close(self) -> None:
        """Stop the ``serve_forever`` loop and release the socket."""
        self.shutdown()
        self.server_close()

    # -- metrics rendering ----------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus text exposition for ``GET /metrics``."""
        requests, errors = self.request_counts()
        lines: List[str] = [
            "# HELP repro_serve_requests_total "
            "HTTP requests handled, by endpoint.",
            "# TYPE repro_serve_requests_total counter",
        ]
        for endpoint in sorted(requests):
            lines.append(f'repro_serve_requests_total'
                         f'{{endpoint="{endpoint}"}} {requests[endpoint]}')
        lines.append("# HELP repro_serve_request_errors_total "
                     "Requests answered with a 4xx/5xx status.")
        lines.append("# TYPE repro_serve_request_errors_total counter")
        lines.append(f"repro_serve_request_errors_total {errors}")
        gauges = {"repro_serve_verdict_cache_size":
                  ("Resident verdict-cache entries.",
                   self.engine.cache.stats()["size"])}
        counters = {}
        for name, value in self.engine.cache.stats().items():
            if name in ("size", "capacity"):
                continue
            counters[f"repro_serve_verdict_cache_{name}_total"] = (
                f"Verdict cache {name}.", value)
        for name, value in self.engine.stats().items():
            counters[f"repro_serve_engine_{name}_total"] = (
                f"Engine {name.replace('_', ' ')}.", value)
        # ``repro_serve_batcher_*`` names stay because the benchmark
        # (bench/workloads.py) reads them: each classify request is one
        # batch, and none is coalesced.
        calls, names = self._classify_calls, self._classify_names
        counters.update({
            "repro_serve_batcher_batches_total":
                ("Engine calls, one per classify request.", calls),
            "repro_serve_batcher_requests_total":
                ("Classify requests answered.", calls),
            "repro_serve_batcher_names_total":
                ("Qnames in classify requests.", names),
            "repro_serve_batcher_coalesced_requests_total":
                ("Requests sharing another's engine call (always 0).", 0),
        })
        for name, (help_text, value) in sorted(counters.items()):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        for name, (help_text, value) in sorted(gauges.items()):
            lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {value}")
        return "\n".join(lines) + "\n"


class _ClassifyHandler(BaseHTTPRequestHandler):
    """Request handler; all state lives on the :class:`ClassifyServer`."""

    server: ClassifyServer
    protocol_version = "HTTP/1.1"
    # One send per response, never held back.  A buffered ``wfile``
    # collects the headers and the body until ``handle_one_request``
    # flushes it, so a response up to the 8 KiB buffer is one write;
    # with Nagle off no write waits for the peer's ACK.  Without both,
    # the body of a two-write response waits for the client's delayed
    # ACK, about 40 ms per keep-alive request.
    disable_nagle_algorithm = True
    wbufsize = -1

    # -- plumbing -------------------------------------------------------

    def log_message(self, format: str, *args: object) -> None:
        """Silence per-request stderr logging (the daemon serves QPS,
        not logs; observability goes through /metrics)."""

    def finish(self) -> None:
        """Flush, then close the connection in stages (RFC 9112 §9.6).

        Closing a socket with unread input makes TCP send a reset,
        which can reach the client before it has read the last
        response, or while it is still sending a body that response
        refused.  So stop writing first, then discard what the client
        still sends until it closes, for at most ``LINGER_READS``
        reads of ``LINGER_TIMEOUT_S`` each.  A client that closed
        first costs one read that returns at once.
        """
        super().finish()
        try:
            self.connection.shutdown(socket.SHUT_WR)
            self.connection.settimeout(LINGER_TIMEOUT_S)
            for _ in range(LINGER_READS):
                if not self.connection.recv(65536):
                    break
        except OSError:     # reset, timeout, or already disconnected
            pass

    def handle_expect_100(self) -> bool:
        # The interim 100 must leave now, not with the final response:
        # the client sends the body only once it has seen it.
        super().handle_expect_100()
        self.wfile.flush()
        return True

    def _send(self, status: int, body: bytes, content_type: str, *,
              close: bool = False) -> None:
        if status >= 400:
            self.server.count_error()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if close:
            # Sets ``close_connection`` too.  Needed whenever the
            # request body was not read: kept alive, the stream would
            # parse that body as the next request.
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":      # a HEAD answer carries no body
            self.wfile.write(body)

    def _send_json(self, status: int, payload: object, *,
                   close: bool = False) -> None:
        self._send(status, json.dumps(payload).encode("utf-8"),
                   "application/json", close=close)

    def _send_error_json(self, status: int, message: str, *,
                         close: bool = False) -> None:
        self._send_json(status, {"error": message}, close=close)

    def send_error(self, code: int, message: Optional[str] = None,
                   explain: Optional[str] = None) -> None:
        """Errors ``http.server`` answers itself (unsupported method,
        malformed or oversized request line, bad headers) get the
        API's JSON body and count in ``/metrics`` like any other; the
        connection closes, as the stdlib's error path does."""
        if message is None:
            message = self.responses.get(code, ("error",))[0]
        self._send_error_json(code, message, close=True)

    # -- GET ------------------------------------------------------------

    def do_GET(self) -> None:
        if self.path == "/healthz":
            self.server.count_request("/healthz")
            self._send_json(200, {"status": "ok"})
        elif self.path == "/metrics":
            self.server.count_request("/metrics")
            self._send(200, self.server.render_metrics().encode("utf-8"),
                       "text/plain; version=0.0.4")
        else:
            self._send_error_json(404, f"unknown path {self.path!r}")

    # -- POST /classify --------------------------------------------------

    def _read_body(self) -> Optional[bytes]:
        """The request body, or ``None`` after an error response that
        closes the connection (the body is left unread)."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self._send_error_json(400, "invalid Content-Length", close=True)
            return None
        if length <= 0:
            self._send_error_json(400, "missing request body", close=True)
            return None
        if length > MAX_BODY_BYTES:
            self._send_error_json(
                413, f"request body exceeds {MAX_BODY_BYTES} bytes",
                close=True)
            return None
        return self.rfile.read(length)

    def _parse_qnames(self, body: bytes) -> Optional[Tuple[List[str], bool]]:
        """``(qnames, is_batch)`` from the request document, or
        ``None`` after a 400 has been sent."""
        try:
            document = json.loads(body)
        except ValueError as exc:   # includes JSONDecodeError/Unicode
            self._send_error_json(400, f"invalid JSON body: {exc}")
            return None
        if not isinstance(document, dict):
            self._send_error_json(400, "request body must be a JSON object")
            return None
        has_single = "qname" in document
        has_batch = "qnames" in document
        if has_single == has_batch:
            self._send_error_json(
                400, "provide exactly one of 'qname' or 'qnames'")
            return None
        if has_single:
            qname = document["qname"]
            if not isinstance(qname, str):
                self._send_error_json(400, "'qname' must be a string")
                return None
            return [qname], False
        qnames = document["qnames"]
        if (not isinstance(qnames, list)
                or any(not isinstance(item, str) for item in qnames)):
            self._send_error_json(400, "'qnames' must be a list of strings")
            return None
        if len(qnames) > MAX_BATCH_NAMES:
            self._send_error_json(
                400, f"batch exceeds {MAX_BATCH_NAMES} qnames")
            return None
        return qnames, True

    def do_POST(self) -> None:
        if self.path != "/classify":
            self._send_error_json(404, f"unknown path {self.path!r}",
                                  close=True)
            return
        self.server.count_request("/classify")
        body = self._read_body()
        if body is None:
            return
        parsed = self._parse_qnames(body)
        if parsed is None:
            return
        qnames, is_batch = parsed
        verdicts = self.server.classify(qnames)
        if is_batch:
            self._send_json(200, {"verdicts": [verdict.to_json()
                                               for verdict in verdicts]})
        else:
            self._send_json(200, verdicts[0].to_json())


def make_server(engine: ClassificationEngine, host: str = "127.0.0.1",
                port: int = 0) -> ClassifyServer:
    """Bind a :class:`ClassifyServer`; ``port=0`` picks an ephemeral
    port (read it back from ``server.server_address``)."""
    return ClassifyServer((host, port), engine)
