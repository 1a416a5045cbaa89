"""The daemon's HTTP surface: a JSON API plus the live dashboards.

Stdlib only (``http.server``); the daemon binds localhost by default and
is a trusted-network tool, not an internet-facing one.  The handler is
deliberately thin — every decision lives in :class:`JobQueue` — so the
API, the CLI client and the tests exercise identical semantics.

Routes::

    GET  /healthz                       liveness probe ("ok")
    GET  /metrics                       Prometheus text exposition
    GET  /api/metrics                   the same registry as JSON
    GET  /api/trace                     daemon-lifetime Chrome trace JSON
    GET  /api/status                    version, queue counts, cache stats
    GET  /api/jobs                      job ledger, newest first
    POST /api/jobs                      submit {"kind": ..., "params": {...}}
    GET  /api/jobs/<id>                 one job (spec, result, artifacts)
    GET  /api/jobs/<id>/artifacts/<p>   one stored artifact's bytes
    GET  /                              HTML dashboard index
    GET  /ops.html                      live operational telemetry dashboard
    GET  /jobs/<id>.html                HTML job detail

Submission responses carry ``disposition``: ``new`` (queued),
``cached`` (content hash already served — stored artifacts, zero simulator
cycles), ``coalesced`` (an identical job is already in flight) or
``requeued`` (a previously failed key, retried).

Connections are HTTP/1.1 keep-alive with Nagle's algorithm off.  Each
request's body is read in full before routing, so the next request on
the connection starts in step; a request whose body length is unknown (a
malformed ``Content-Length``, or a POST without one, such as a chunked
one) is answered 400 and its connection closed.

Every request is instrumented: counted and latency-bucketed into the
queue's :class:`~repro.obs.telemetry.ServiceTelemetry` under a
low-cardinality *route template* (``/api/jobs/{id}``, never the raw
path), recorded as a span in the service Chrome trace, and structured-
logged (GETs at DEBUG — the client polls — POSTs at INFO).  An exception
no ``except`` clause claims is logged once with its traceback and mapped
to a 500, instead of vanishing into ``ThreadingHTTPServer``'s default
stderr handler.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import ReproError, ServiceError
from repro.obs.logs import get_logger
from repro.service.queue import JobQueue

_CONTENT_TYPES = {
    ".json": "application/json",
    ".jsonl": "application/jsonl",
    ".html": "text/html; charset=utf-8",
    ".txt": "text/plain; charset=utf-8",
    ".src": "text/plain; charset=utf-8",
}

#: routes the instrumentation templates exactly as written
_EXACT_ROUTES = frozenset({
    "/", "/healthz", "/metrics", "/ops.html", "/index.html",
    "/api/status", "/api/jobs", "/api/metrics", "/api/trace",
})


def route_template(path: str) -> str:
    """Collapse a request path onto a bounded route vocabulary, so metric
    label sets stay small no matter what clients ask for."""
    path = path.split("?", 1)[0].rstrip("/") or "/"
    if path in _EXACT_ROUTES:
        return path
    if path.startswith("/api/jobs/"):
        if "/artifacts/" in path:
            return "/api/jobs/{id}/artifacts/{name}"
        return "/api/jobs/{id}"
    if path.startswith("/jobs/") and path.endswith(".html"):
        return "/jobs/{id}.html"
    return "(other)"


class _BadRequest(ServiceError):
    """The request's framing is broken: answered 400, connection closed."""


def _job_id(text: str) -> int:
    """A job id from a URL path segment.  Anything but ASCII digits names
    no job, so a GET answers 404 (``int()`` alone would also take ``-1``,
    `` 1`` or ``1_0``, and raise a bare ValueError on the rest)."""
    if not (text.isascii() and text.isdigit()):
        raise ServiceError(f"no job with id {text!r}")
    return int(text)


class ServiceHandler(BaseHTTPRequestHandler):
    server: "ServiceServer"
    protocol_version = "HTTP/1.1"  # keep-alive
    # A response goes out as two writes, headers then body; with Nagle on,
    # the body of a kept-alive response can wait ~40 ms for the client's
    # delayed ACK of the headers.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------ plumbing
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        # http.server's own chatter (it logs errors like unreadable
        # sockets here) goes to the structured log, never raw stderr.
        self.server.log.debug("http.server: " + (format % args))

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _json(self, payload, status: int = 200) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _html(self, text: str, status: int = 200) -> None:
        self._send(status, text.encode("utf-8"), "text/html; charset=utf-8")

    def _error(self, status: int, message: str) -> None:
        self._json({"error": message}, status=status)

    # ------------------------------------------------------------- routes
    def do_GET(self) -> None:  # noqa: N802 - stdlib name
        self._instrumented("GET", self._route_get, not_found=404)

    def do_POST(self) -> None:  # noqa: N802 - stdlib name
        self._instrumented("POST", self._route_post, not_found=400)

    def _instrumented(self, method: str, route_fn, not_found: int) -> None:
        """Dispatch one request with telemetry around it: latency histogram
        + request counter under the route template, an HTTP span in the
        service trace (carrying the submission's flow arrow for POSTs that
        created or joined a job), and a structured log line.  Any exception
        the route handlers didn't claim is logged exactly once — with the
        job-free request context and the traceback — and answered 500."""
        self._status = 0  # _send records the real one
        self._flow_cid = None  # _route_post records the submission's id
        telemetry = self.server.queue.telemetry
        log = self.server.log
        ts_us = telemetry.tracer.now_us()
        start = time.monotonic()
        try:
            self._body = self._read_body()
            route_fn()
        except _BadRequest as exc:
            self.close_connection = True
            self._error(400, str(exc))
        except ServiceError as exc:
            self._error(not_found, str(exc))
        except ReproError as exc:
            self._error(500, str(exc))
        except Exception as exc:
            log.exception(
                "request handler crashed", method=method, path=self.path,
                error=repr(exc),
            )
            try:
                self._error(500, f"internal error: {exc!r}")
            except OSError:  # client already hung up
                pass
        dur_s = time.monotonic() - start
        route = route_template(self.path)
        status = getattr(self, "_status", 0)
        telemetry.http_request(method, route, status, dur_s)
        telemetry.tracer.http_span(
            method, route, status, ts_us, int(dur_s * 1e6),
            correlation=self._flow_cid,
        )
        # the client polls /api/jobs/{id}; keep steady-state INFO quiet
        emit = log.info if method == "POST" else log.debug
        emit(
            "request", method=method, route=route, path=self.path,
            status=status, dur_ms=round(dur_s * 1e3, 3),
            **({"correlation": self._flow_cid} if self._flow_cid else {}),
        )

    def _read_body(self) -> bytes:
        """The request body, read in full so the next request on a
        kept-alive connection starts where this one ends."""
        length = self.headers.get("Content-Length")
        if length is None:
            if self.command == "POST" or "Transfer-Encoding" in self.headers:
                raise _BadRequest("Content-Length header required")
            return b""
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(f"malformed Content-Length header: {length!r}")
        return self.rfile.read(int(length))

    def _route_get(self) -> None:
        queue = self.server.queue
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/healthz":
            self._send(200, b"ok\n", "text/plain; charset=utf-8")
        elif path == "/metrics":
            body = queue.telemetry.prometheus().encode("utf-8")
            self._send(200, body,
                       "text/plain; version=0.0.4; charset=utf-8")
        elif path == "/api/metrics":
            self._json(queue.telemetry.snapshot())
        elif path == "/api/trace":
            self._json(queue.telemetry.tracer.chrome_trace(
                {"source": "repro-serve", "live": True}
            ))
        elif path == "/api/status":
            self._json(queue.status())
        elif path == "/api/jobs":
            self._json({
                "jobs": [queue.job_payload(row) for row in queue.db.jobs()]
            })
        elif path.startswith("/api/jobs/"):
            rest = path[len("/api/jobs/"):]
            if "/artifacts/" in rest:
                job_id, name = rest.split("/artifacts/", 1)
                self._artifact(_job_id(job_id), name)
            else:
                self._json(queue.job_payload(queue.db.job(_job_id(rest))))
        elif path in ("/", "/index.html"):
            self._dashboard_index()
        elif path == "/ops.html":
            self._dashboard_ops()
        elif path.startswith("/jobs/") and path.endswith(".html"):
            self._dashboard_job(_job_id(path[len("/jobs/"):-len(".html")]))
        else:
            self._error(404, f"no route for {path}")

    def _route_post(self) -> None:
        if self.path.rstrip("/") != "/api/jobs":
            self._error(404, f"no POST route for {self.path}")
            return
        try:
            body = json.loads(self._body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}") from None
        if not isinstance(body, dict) or "kind" not in body:
            raise ServiceError('request body must be {"kind": ..., '
                               '"params": {...}}')
        payload = self.server.queue.submit(body["kind"], body.get("params"))
        if payload["disposition"] != "cached":
            # the flow arrow joins this request's span to the job run
            self._flow_cid = payload["correlation_id"]
        self._json(payload, status=200 if payload["cached"] else 202)

    # ---------------------------------------------------------- dashboards
    def _artifact(self, job_id: int, name: str) -> None:
        path = self.server.queue.artifact_path(job_id, name)
        suffix = path.suffix.lower()
        content_type = _CONTENT_TYPES.get(suffix, "application/octet-stream")
        self._send(200, path.read_bytes(), content_type)

    def _dashboard_index(self) -> None:
        from repro.service.reports import render_index

        queue = self.server.queue
        payloads = [queue.job_payload(row) for row in queue.db.jobs()]
        self._html(render_index(queue.status(), payloads, ops_link=True))

    def _dashboard_ops(self) -> None:
        from repro.service.reports import render_ops

        queue = self.server.queue
        self._html(render_ops(queue.status(), queue.telemetry.snapshot()))

    def _dashboard_job(self, job_id: int) -> None:
        from repro.service.reports import render_job

        queue = self.server.queue
        payload = queue.job_payload(queue.db.job(job_id))
        # the live job page reads artifacts straight off disk, like the
        # static exporter does
        payload["_artifact_root"] = str(queue.artifact_dir(payload["key"]))

        def href(name: str) -> str:
            return f"/api/jobs/{job_id}/artifacts/{name}"

        self._html(render_job(payload, href))


class ServiceServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, address: tuple[str, int], queue: JobQueue):
        super().__init__(address, ServiceHandler)
        self.queue = queue
        self.log = get_logger("repro.service.http")

    def handle_error(self, request, client_address) -> None:
        # socketserver's default prints a traceback to stderr; keep even
        # transport-level failures (client hangups mid-write) structured
        self.log.warning(
            "connection error", client=str(client_address), exc_info=True,
        )


def serve(queue: JobQueue, host: str = "127.0.0.1",
          port: int = 0) -> ServiceServer:
    """Bind the server (``port=0`` picks a free port; the bound one is on
    ``server.server_address``) and start the queue's workers.  The caller
    owns the accept loop: ``server.serve_forever()``."""
    try:
        server = ServiceServer((host, port), queue)
    except OSError as exc:
        raise ServiceError(f"cannot bind {host}:{port}: {exc}") from None
    queue.start()
    return server


def serve_background(queue: JobQueue, host: str = "127.0.0.1",
                     port: int = 0) -> tuple[ServiceServer, threading.Thread]:
    """In-process daemon for tests: accept loop on a thread."""
    server = serve(queue, host, port)
    thread = threading.Thread(target=server.serve_forever,
                              name="repro-serve-http", daemon=True)
    thread.start()
    return server, thread


__all__ = [
    "ServiceHandler",
    "ServiceServer",
    "route_template",
    "serve",
    "serve_background",
]
