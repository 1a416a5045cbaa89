"""Connections and wake-up: kept-alive HTTP, the request-body rule, the
client's single resend, and workers woken by submissions instead of a
poll."""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import sys
import threading
import time

import pytest

import repro.service.queue as queue_mod
from repro.errors import ServiceError
from repro.service.app import ServiceHandler, serve_background
from repro.service.client import ServiceClient
from repro.service.queue import JobQueue, ServiceConfig


class _Log:
    """Stands in for the server's structured logger; keeps every event."""

    def __init__(self):
        self.events: list[tuple[str, str, dict]] = []

    def _keep(self, level):
        return lambda event, **fields: self.events.append(
            (level, event, fields))

    def __getattr__(self, level):
        return self._keep(level)


def _wait_for(condition, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out waiting"
        time.sleep(0.01)


@pytest.fixture()
def live(tmp_path):
    """A daemon that lists the connections it accepts and closes."""
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))
    server, _thread = serve_background(queue)
    accepted, closed = [], []
    get_request = server.get_request
    shutdown_request = server.shutdown_request

    def counting_accept():
        conn, addr = get_request()
        accepted.append(addr)
        return conn, addr

    def counting_close(conn):
        shutdown_request(conn)
        closed.append(conn)

    server.get_request = counting_accept
    server.shutdown_request = counting_close
    server.log = _Log()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield client, server, accepted, closed
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        queue.stop()


def _raw_exchange(server, request: bytes) -> tuple[bytes, bytes]:
    """Send raw bytes; return (everything the daemon sent until it closed
    the connection, the status line)."""
    chunks = []
    with socket.create_connection(server.server_address[:2], timeout=5) as s:
        s.sendall(request)
        try:
            while chunk := s.recv(65536):  # b"" once the daemon closes
                chunks.append(chunk)
        except ConnectionResetError:  # it closed with our bytes unread
            pass
    reply = b"".join(chunks)
    return reply, reply.split(b"\r\n", 1)[0]


# ------------------------------------------------------------- keep-alive
def test_one_client_thread_uses_one_connection(live):
    client, _server, accepted, _closed = live
    for _ in range(5):
        assert client.status()["jobs"]["queued"] == 0
    assert client.healthy()
    assert len(accepted) == 1


def test_each_client_thread_keeps_its_own_connection(live):
    client, _server, accepted, _closed = live
    client.status()
    seen = []

    def other_thread():
        seen.append(client.status())
        client.close()  # this thread's connection

    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(10)
    assert not thread.is_alive() and len(seen) == 1
    client.status()
    assert len(accepted) == 2


def test_unrouted_post_body_is_consumed(live):
    """A POST to an unknown route leaves nothing unread on the connection,
    so the next request on it parses cleanly."""
    _client, server, accepted, _closed = live
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
    try:
        conn.request("POST", "/api/nowhere",
                     body=json.dumps({"pad": "x" * 300}),
                     headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        assert resp.status == 404
        assert "no POST route" in json.loads(resp.read())["error"]
        conn.request("GET", "/api/status")
        resp = conn.getresponse()
        assert resp.status == 200
        assert json.loads(resp.read())["jobs"]["queued"] == 0
    finally:
        conn.close()
    assert len(accepted) == 1


@pytest.mark.parametrize("length", ["abc", "-5"])
def test_malformed_content_length_is_a_400(live, length):
    _client, server, _accepted, _closed = live
    reply, status = _raw_exchange(
        server,
        b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
        b"Content-Length: " + length.encode() + b"\r\n\r\n{}",
    )
    assert status == b"HTTP/1.1 400 Bad Request"
    assert b"Connection: close" in reply
    body = json.loads(reply.split(b"\r\n\r\n", 1)[1])
    assert body == {"error": f"malformed Content-Length header: {length!r}"}
    events = [(event, fields.get("status"))
              for _level, event, fields in server.log.events]
    assert ("request", 400) in events
    assert "request handler crashed" not in [e for e, _ in events]


def test_post_without_content_length_is_a_400(live):
    _client, server, _accepted, _closed = live
    reply, status = _raw_exchange(
        server,
        b"POST /api/jobs HTTP/1.1\r\nHost: x\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        b"2\r\n{}\r\n0\r\n\r\nGET /api/status HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    assert status == b"HTTP/1.1 400 Bad Request"
    assert b"Content-Length header required" in reply
    # the connection closed instead of reading the chunks as a request
    assert reply.count(b"HTTP/1.1 ") == 1


def test_bad_job_id_is_a_404(live):
    """A job id that is not a plain decimal names no job: each route that
    takes one answers 404 naming it, nothing crashes, and the kept-alive
    connection carries on."""
    _client, server, accepted, _closed = live
    conn = http.client.HTTPConnection(*server.server_address[:2], timeout=5)
    try:
        for path, bad_id in (("/api/jobs/abc", "abc"),
                             ("/api/jobs/abc/artifacts/x", "abc"),
                             ("/jobs/x.html", "x"),
                             ("/api/jobs/-1", "-1"),
                             ("/api/jobs/%201", "%201")):
            conn.request("GET", path)
            resp = conn.getresponse()
            assert resp.status == 404, path
            assert json.loads(resp.read()) == {
                "error": f"no job with id {bad_id!r}"
            }
        conn.request("GET", "/api/status")
        resp = conn.getresponse()
        assert resp.status == 200
        resp.read()
    finally:
        conn.close()
    assert len(accepted) == 1
    events = [(event, fields.get("status"))
              for _level, event, fields in server.log.events]
    assert events.count(("request", 404)) == 5
    assert "request handler crashed" not in [e for e, _ in events]


# ---------------------------------------------------------- client resend
def test_client_resends_once_when_daemon_closed_idle_connection(
        live, monkeypatch):
    client, _server, accepted, closed = live
    # every connection the daemon accepts from here on times out when idle
    monkeypatch.setattr(ServiceHandler, "timeout", 0.2)
    client.status()
    _wait_for(lambda: closed)  # the daemon dropped the idle connection
    assert client.status()["jobs"]["done"] == 0
    assert len(accepted) == 2


def _fake_daemon(script):
    """A listening socket whose n-th accepted connection runs
    ``script[n]`` (connections past the script are closed at once);
    returns (url, accepted connections, closed connections, thread)."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(1.0)  # how long to wait for an unscripted connection
    accepted, closed = [], []

    def serve():
        with listener:
            while len(accepted) < len(script) + 1:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(conn)
                with conn:
                    if len(accepted) <= len(script):
                        script[len(accepted) - 1](conn)
                closed.append(conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    host, port = listener.getsockname()[:2]
    return f"http://{host}:{port}", accepted, closed, thread


def _read_request(conn) -> None:
    data = b""
    while b"\r\n\r\n" not in data:
        data += conn.recv(65536)


_OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
       b"Content-Length: 2\r\n\r\n{}")


def test_client_resends_at_most_once():
    def answer_then_close(conn):
        _read_request(conn)
        conn.sendall(_OK)

    url, accepted, closed, thread = _fake_daemon([answer_then_close,
                                                  lambda conn: None])
    client = ServiceClient(url, timeout=5)
    try:
        assert client.status() == {}
        _wait_for(lambda: closed)
        # reused connection closed -> one resend -> closed unanswered again
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()
    finally:
        client.close()
    thread.join(10)
    assert len(accepted) == 2


def test_client_does_not_resend_after_a_partial_response():
    def answer_then_cut_off(conn):
        _read_request(conn)
        conn.sendall(_OK)
        _read_request(conn)
        conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")

    url, accepted, _closed, thread = _fake_daemon([answer_then_cut_off])
    client = ServiceClient(url, timeout=5)
    try:
        assert client.status() == {}
        with pytest.raises(ServiceError, match="cannot reach"):
            client.status()
    finally:
        client.close()
    thread.join(10)
    assert len(accepted) == 1


# ---------------------------------------------------------------- wake-up
def _fast_jobs(monkeypatch):
    monkeypatch.setattr(queue_mod, "execute_job",
                        lambda spec, artifact_dir, ctx=None: {"ok": True})


def _spec(i: int) -> dict:
    return {"workload": "matmul_racing", "verify": False, "history": i + 1}


def test_idle_worker_starts_a_submission_at_once(tmp_path, monkeypatch):
    _fast_jobs(monkeypatch)
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))
    queue.start()
    try:
        waits = []
        for i in range(10):
            time.sleep(0.02)  # the worker is idle, waiting
            job = queue.submit("annotate", _spec(i))
            assert job["disposition"] == "new"
            queue.drain(timeout=10)
            row = queue.db.job(job["id"])
            assert row["state"] == "done"
            waits.append(row["started_at"] - row["submitted_at"])
    finally:
        queue.stop()
    assert statistics.median(waits) < 0.010, waits


def test_stop_returns_promptly_while_workers_idle(tmp_path):
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path), workers=3))
    queue.start()
    workers = list(queue._workers)
    time.sleep(0.05)
    start = time.monotonic()
    queue.stop(timeout=5)
    assert time.monotonic() - start < 1.0
    assert not any(worker.is_alive() for worker in workers)


def test_drain_keeps_its_deadline(tmp_path):
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))  # no workers
    queue.submit("annotate", _spec(0))
    start = time.monotonic()
    with pytest.raises(ServiceError, match="did not drain within 0.2s"):
        queue.drain(timeout=0.2)
    assert time.monotonic() - start < 2.0


def test_no_wake_up_is_lost_under_contention(tmp_path, monkeypatch):
    """More workers and submitters than cores, with the interpreter
    switching threads as often as it can: every submission still runs."""
    _fast_jobs(monkeypatch)
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path), workers=4))
    queue.start()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def submit_many(offset):
            for i in range(25):
                queue.submit("annotate", _spec(offset + i))

        threads = [threading.Thread(target=submit_many, args=(25 * t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert not any(thread.is_alive() for thread in threads)
        queue.drain(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        queue.stop()
    assert queue.db.counts() == {"queued": 0, "running": 0, "done": 100,
                                 "failed": 0}
    assert queue.stats.executed == 100
