"""A small ``http.client`` client for the repro-serve JSON API.

Used by the ``repro-client`` CLI, the tests and the benchmark; any HTTP or
transport failure surfaces as :class:`~repro.errors.ServiceError` so
callers get the repo's usual one-line exit-2 behaviour through ``run_cli``.

Each thread that uses a client keeps one kept-alive connection to the
daemon, so a request costs no TCP handshake after the first.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.parse

from repro.errors import ServiceError

#: job states that wait() treats as terminal
TERMINAL_STATES = ("done", "failed")
#: wait()'s first sleep between two polls, and the cap its doubling stops at
FIRST_POLL_S = 0.005
MAX_POLL_S = 0.2


class ServiceClient:
    """Talk to one daemon at ``url`` (e.g. ``http://127.0.0.1:8642``)."""

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url.rstrip("/")
        self.timeout = timeout
        self._base = urllib.parse.urlsplit(self.url)
        self._local = threading.local()  # .conn: this thread's connection

    # ------------------------------------------------------------ plumbing
    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._base.scheme != "http":
                raise ServiceError(f"cannot reach {self.url}: not an "
                                   "http:// URL")
            conn = http.client.HTTPConnection(self._base.netloc,
                                              timeout=self.timeout)
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close the calling thread's connection (the next request opens a
        new one).  Other threads' connections close when they exit."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()

    def _exchange(self, method: str, target: str, data: bytes | None,
                  headers: dict) -> tuple[int, bytes]:
        """One request on this thread's connection; ``(status, body)``.

        A kept-alive connection may have been closed by the daemon while
        it sat idle.  The request then fails before any byte of a response
        arrives, and only then is it sent once more, on a fresh connection:
        a submission is idempotent by content hash, so a resend is safe.
        """
        conn = self._connection()
        while True:  # at most twice: the resend runs on a fresh connection
            reused = conn.sock is not None
            sent = False
            try:
                conn.request(method, target, body=data, headers=headers)
                sent = True
                resp = conn.getresponse()
                return resp.status, resp.read()
            except ConnectionError as exc:
                conn.close()
                unanswered = (not sent
                              or isinstance(exc, http.client.RemoteDisconnected))
                if not (reused and unanswered):
                    raise

    def _request(self, path: str, body: dict | None = None) -> bytes:
        target = self._base.path + path
        if body is None:
            method, data, headers = "GET", None, {}
        else:
            method = "POST"
            data = json.dumps(body).encode("utf-8")
            headers = {"Content-Type": "application/json"}
        try:
            status, raw = self._exchange(method, target, data, headers)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            raise ServiceError(f"cannot reach {self.url}: {exc}") from None
        if status >= 400:
            detail = raw.decode("utf-8", "replace")
            try:
                detail = json.loads(detail)["error"]
            except (json.JSONDecodeError, KeyError, TypeError):
                pass
            raise ServiceError(f"{path}: HTTP {status}: {detail}")
        return raw

    def _json(self, path: str, body: dict | None = None) -> dict:
        raw = self._request(path, body)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(
                f"{path}: daemon returned non-JSON response: {exc}"
            ) from None

    # ----------------------------------------------------------------- api
    def healthy(self) -> bool:
        try:
            return self._request("/healthz").strip() == b"ok"
        except ServiceError:
            return False

    def status(self) -> dict:
        return self._json("/api/status")

    def metrics(self) -> dict:
        """The telemetry registry as JSON (``/api/metrics``)."""
        return self._json("/api/metrics")

    def metrics_text(self) -> str:
        """The raw Prometheus exposition page (``GET /metrics``)."""
        return self._request("/metrics").decode("utf-8")

    def trace(self) -> dict:
        """The daemon's live Chrome trace (``/api/trace``)."""
        return self._json("/api/trace")

    def submit(self, kind: str, params: dict | None = None) -> dict:
        """Submit one job; the response carries ``disposition`` and
        ``cached`` (True when the content hash was already served)."""
        return self._json("/api/jobs", {"kind": kind, "params": params or {}})

    def job(self, job_id: int) -> dict:
        return self._json(f"/api/jobs/{int(job_id)}")

    def jobs(self) -> list[dict]:
        return self._json("/api/jobs")["jobs"]

    def wait(self, job_id: int, timeout: float = 600.0) -> dict:
        """Poll until the job reaches ``done`` or ``failed``.

        The first poll goes out at once and the next after
        :data:`FIRST_POLL_S`; each later interval doubles, up to
        :data:`MAX_POLL_S`, and none runs past ``timeout``.  A job of a
        few tens of milliseconds is seen finished within a few
        milliseconds, and a long one costs the daemon at most five polls
        a second.
        """
        deadline = time.monotonic() + timeout
        interval = FIRST_POLL_S
        while True:
            payload = self.job(job_id)
            if payload["state"] in TERMINAL_STATES:
                return payload
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServiceError(
                    f"job {job_id} still {payload['state']} after {timeout}s"
                )
            time.sleep(min(interval, remaining))
            interval = min(2 * interval, MAX_POLL_S)

    def artifact(self, job_id: int, name: str) -> bytes:
        return self._request(f"/api/jobs/{int(job_id)}/artifacts/{name}")


__all__ = ["ServiceClient", "TERMINAL_STATES"]
