"""End-to-end daemon test: real HTTP against an ephemeral port."""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.service.http import MAX_BATCH_NAMES, MAX_BODY_BYTES, make_server


@pytest.fixture
def server(tiny_engine):
    instance = make_server(tiny_engine, port=0)
    thread = threading.Thread(target=instance.serve_forever, daemon=True)
    thread.start()
    yield instance
    instance.close()
    thread.join(timeout=5)


def _url(server, path: str) -> str:
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _post(server, path: str, payload: object):
    request = urllib.request.Request(
        _url(server, path), data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(server, path: str):
    with urllib.request.urlopen(_url(server, path),
                                timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def _connection(server) -> http.client.HTTPConnection:
    host, port = server.server_address[:2]
    return http.client.HTTPConnection(host, port, timeout=10)


def _post_on(conn: http.client.HTTPConnection, body: bytes,
             path: str = "/classify"):
    """One POST on a caller-owned (keep-alive) connection."""
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    return response.status, response.read()


def _metric(body: str, name: str) -> int:
    for line in body.splitlines():
        if line.startswith(name + " "):
            return int(line.rpartition(" ")[2])
    raise AssertionError(f"{name} missing from /metrics")


class TestClassify:
    def test_single_qname_matches_oracle(self, server, tiny_stream):
        qname = tiny_stream[0]
        oracle = server.engine.classify_one(qname).to_json()
        status, document = _post(server, "/classify", {"qname": qname})
        assert status == 200
        assert document == oracle

    def test_batch_matches_oracle(self, server, tiny_stream):
        qnames = tiny_stream[:25]
        oracle = [server.engine.classify_one(q).to_json() for q in qnames]
        status, document = _post(server, "/classify", {"qnames": qnames})
        assert status == 200
        assert document["verdicts"] == oracle

    def test_invalid_qname_is_a_verdict_not_an_error(self, server):
        status, document = _post(server, "/classify",
                                 {"qname": "bad..name"})
        assert status == 200
        assert document["reason"] == "invalid-name"


class TestMetricsAndHealth:
    def test_healthz(self, server):
        status, body = _get(server, "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_metrics_exposition(self, server, tiny_stream):
        _post(server, "/classify", {"qnames": tiny_stream[:10]})
        status, body = _get(server, "/metrics")
        assert status == 200
        assert 'repro_serve_requests_total{endpoint="/classify"} 1' in body
        assert "repro_serve_engine_names_classified_total 10" in body
        assert "repro_serve_verdict_cache_size" in body
        assert "repro_serve_batcher_batches_total" in body
        assert "repro_serve_request_errors_total 0" in body


class TestBadRequests:
    def _status_of(self, call):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            call()
        return excinfo.value.code, json.loads(excinfo.value.read())

    def test_invalid_json(self, server):
        request = urllib.request.Request(
            _url(server, "/classify"), data=b"{not json",
            headers={"Content-Type": "application/json"}, method="POST")
        code, document = self._status_of(
            lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "invalid JSON" in document["error"]

    def test_missing_body(self, server):
        request = urllib.request.Request(
            _url(server, "/classify"), data=b"", method="POST")
        code, document = self._status_of(
            lambda: urllib.request.urlopen(request, timeout=10))
        assert code == 400
        assert "missing request body" in document["error"]

    def test_both_qname_and_qnames(self, server):
        code, document = self._status_of(
            lambda: _post(server, "/classify",
                          {"qname": "a.com", "qnames": ["b.com"]}))
        assert code == 400
        assert "exactly one" in document["error"]

    def test_non_string_qname(self, server):
        code, _ = self._status_of(
            lambda: _post(server, "/classify", {"qname": 7}))
        assert code == 400

    def test_oversized_batch(self, server):
        qnames = ["x.example.com"] * (MAX_BATCH_NAMES + 1)
        code, document = self._status_of(
            lambda: _post(server, "/classify", {"qnames": qnames}))
        assert code == 400
        assert "batch exceeds" in document["error"]

    def test_unknown_paths_404(self, server):
        code, _ = self._status_of(lambda: _get(server, "/nope"))
        assert code == 404
        code, _ = self._status_of(
            lambda: _post(server, "/nope", {"qname": "a.com"}))
        assert code == 404

    def test_errors_are_counted(self, server):
        self._status_of(lambda: _get(server, "/nope"))
        _, body = _get(server, "/metrics")
        assert "repro_serve_request_errors_total 1" in body

    def test_stdlib_errors_answer_json_and_are_counted(self, server):
        """Errors ``http.server`` answers before any handler runs (an
        unsupported method, a request line over its 64 KiB limit) get
        the API's JSON body and count like every other error."""
        for method, path, status in [("BREW", "/classify", 501),
                                     ("GET", "/" + "a" * 70_000, 414)]:
            conn = _connection(server)
            try:
                conn.request(method, path)
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            assert response.status == status
            assert response.getheader("Content-Type") == "application/json"
            assert json.loads(body)["error"]
        _, metrics = _get(server, "/metrics")
        assert _metric(metrics, "repro_serve_request_errors_total") == 2

    def test_head_error_has_no_body(self, server):
        conn = _connection(server)
        try:
            conn.request("HEAD", "/healthz")
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        assert response.status == 501
        assert response.getheader("Content-Type") == "application/json"
        assert body == b""


class TestKeepAlive:
    def test_back_to_back_requests_do_not_stall(self, server, tiny_stream):
        """Each response leaves in one send with Nagle off; a response
        held back until the client's delayed ACK took ~44 ms."""
        body = json.dumps({"qnames": tiny_stream[:8]}).encode("utf-8")
        conn = _connection(server)
        try:
            _post_on(conn, body)            # connect outside the clock
            start = time.perf_counter()
            for _ in range(50):
                status, _ = _post_on(conn, body)
                assert status == 200
            elapsed = time.perf_counter() - start
        finally:
            conn.close()
        assert elapsed < 1.0, f"50 keep-alive requests took {elapsed:.2f}s"

    @pytest.mark.parametrize("path, body, status", [
        ("/nope", b'{"qname": "a.com"}', 404),
        ("/classify", b"x" * (MAX_BODY_BYTES + 1), 413),
    ], ids=["unknown-path", "oversized-body"])
    def test_unread_body_does_not_poison_the_connection(
            self, server, tiny_stream, path, body, status):
        """An error answered before the body was read closes the
        connection, so the next request is not parsed from that body."""
        qnames = tiny_stream[:5]
        oracle = [server.engine.classify_one(q).to_json() for q in qnames]
        conn = _connection(server)
        try:
            assert _post_on(conn, body, path)[0] == status
            code, payload = _post_on(
                conn, json.dumps({"qnames": qnames}).encode("utf-8"))
        finally:
            conn.close()
        assert code == 200
        assert json.loads(payload)["verdicts"] == oracle

    def test_expect_continue_is_answered_before_the_body(self, server,
                                                         tiny_stream):
        """The interim 100 leaves at once, not with the final response:
        the client holds its body back until it arrives."""
        body = json.dumps({"qname": tiny_stream[0]}).encode("utf-8")
        with socket.create_connection(server.server_address[:2],
                                      timeout=2) as sock:
            sock.sendall(b"POST /classify HTTP/1.1\r\nHost: test\r\n"
                         b"Expect: 100-continue\r\n"
                         b"Content-Length: %d\r\n\r\n" % len(body))
            assert sock.recv(64).startswith(b"HTTP/1.1 100")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert (json.loads(response.read())
                    == server.engine.classify_one(tiny_stream[0]).to_json())


class TestEngineLock:
    def test_engine_error_reaches_caller_and_releases_lock(
            self, server, tiny_stream, monkeypatch):
        """``classify`` looks the engine method up per call (a wrapper
        set after the server was built sees it), lets the engine's
        error through, and leaves the lock free for the next call."""
        def broken(qnames):
            raise RuntimeError("engine down")

        monkeypatch.setattr(server.engine, "classify_batch", broken)
        with pytest.raises(RuntimeError, match="engine down"):
            server.classify(tiny_stream[:2])
        monkeypatch.undo()
        assert server.classify(tiny_stream[:2]) == [
            server.engine.classify_one(q) for q in tiny_stream[:2]]


class TestConcurrency:
    THREADS = 8
    REQUESTS = 20
    NAMES = 3

    def test_concurrent_connections_each_get_their_verdicts(
            self, server, tiny_stream):
        """Eight keep-alive clients at once: every response carries
        exactly its own request's verdicts, and each request is one
        engine call of its own."""
        per_thread = self.REQUESTS * self.NAMES
        slices = [[tiny_stream[start + r * self.NAMES:
                               start + (r + 1) * self.NAMES]
                   for r in range(self.REQUESTS)]
                  for start in range(0, self.THREADS * per_thread,
                                     per_thread)]
        oracle = [[[server.engine.classify_one(q).to_json() for q in names]
                   for names in requests] for requests in slices]
        results = {}
        errors = []

        def client(index: int) -> None:
            conn = _connection(server)
            try:
                for names in slices[index]:
                    status, payload = _post_on(
                        conn, json.dumps({"qnames": names}).encode("utf-8"))
                    assert status == 200
                    results.setdefault(index, []).append(
                        json.loads(payload)["verdicts"])
            except Exception as exc:  # surfaced by the main thread
                errors.append(exc)
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(index,))
                   for index in range(self.THREADS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)     # switch threads often: no lost update
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert [results[index] for index in range(self.THREADS)] == oracle
        _, body = _get(server, "/metrics")
        requests = self.THREADS * self.REQUESTS
        assert _metric(body, "repro_serve_batcher_requests_total") == requests
        assert _metric(body, "repro_serve_batcher_batches_total") == requests
        assert (_metric(body, "repro_serve_batcher_names_total")
                == requests * self.NAMES)
        assert _metric(body,
                       "repro_serve_batcher_coalesced_requests_total") == 0
