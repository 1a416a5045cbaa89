"""Operational telemetry: /metrics exposition validity, counter
conservation against the sqlite ledger, trace flow arrows, the ops page
and the ``top`` snapshot."""

from __future__ import annotations

import re
import threading
import time
import urllib.request
from contextlib import contextmanager

import pytest

from repro.obs import telemetry as telemetry_mod
from repro.obs.telemetry import (
    ServiceTelemetry,
    ServiceTracer,
    family_counts,
    labelled,
    prometheus_text,
    split_labelled,
)
from repro.service.app import serve_background
from repro.service.cli import _render_top
from repro.service.client import ServiceClient
from repro.service import queue as queue_mod
from repro.service.jobs import execute_job
from repro.service.queue import JobQueue, ServiceConfig

PARAMS = {"workload": "matmul_racing", "verify": False}

#: one Prometheus text-exposition sample line
SAMPLE_RE = re.compile(
    r'^[a-zA-Z_:][a-zA-Z0-9_:]*'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"'
    r'(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})?'
    r' -?[0-9]+(\.[0-9]+)?([eE][+-][0-9]+)?$'
)
META_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$")


@contextmanager
def _daemon(tmp_path):
    """An in-process daemon: (client, queue, base url).  Built on entry,
    so a test that patches the tracer bound first gets a daemon with it."""
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))
    server, _thread = serve_background(queue)
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}")
    try:
        yield client, queue, f"http://{host}:{port}"
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        queue.stop()


@pytest.fixture()
def live(tmp_path):
    with _daemon(tmp_path) as daemon:
        yield daemon


def fetch(url: str) -> bytes:
    """GET ``url`` and close the response."""
    with urllib.request.urlopen(url) as resp:
        return resp.read()


def run_one_job_plus_cache_hit(client) -> dict:
    payload = client.submit("annotate", PARAMS)
    done = client.wait(payload["id"], timeout=120)
    assert done["state"] == "done"
    assert client.submit("annotate", PARAMS)["cached"] is True
    return payload


def parse_samples(text: str) -> dict[str, float]:
    out = {}
    for line in text.splitlines():
        if not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


# ------------------------------------------------------------- exposition
def test_metrics_page_is_valid_exposition(live):
    client, _queue, base = live
    run_one_job_plus_cache_hit(client)

    with urllib.request.urlopen(base + "/metrics") as resp:
        assert resp.headers["Content-Type"] == \
            "text/plain; version=0.0.4; charset=utf-8"
        text = resp.read().decode("utf-8")
    assert text.endswith("\n")
    for line in text.splitlines():
        pattern = META_RE if line.startswith("#") else SAMPLE_RE
        assert pattern.match(line), f"malformed exposition line: {line!r}"

    samples = parse_samples(text)
    assert samples['repro_service_submissions_total{disposition="new"}'] == 1
    assert samples[
        'repro_service_submissions_total{disposition="cached"}'] == 1
    assert samples['repro_service_jobs_completed_total'
                   '{kind="annotate",outcome="ok"}'] == 1
    assert samples["repro_service_telemetry_enabled"] == 1
    # instruments exist from the first scrape, zero-valued not absent
    assert samples[
        'repro_service_submissions_total{disposition="requeued"}'] == 0


def test_histogram_buckets_are_cumulative_and_close_at_inf(live):
    client, _queue, base = live
    run_one_job_plus_cache_hit(client)
    client.status()  # a couple more HTTP observations
    client.jobs()

    text = fetch(base + "/metrics").decode()
    buckets: dict[tuple[str, str], list[tuple[float, float]]] = {}
    counts: dict[str, float] = {}
    for name, value in parse_samples(text).items():
        if "_bucket{" in name:
            family, labels = name.split("_bucket{", 1)
            le = re.search(r'le="([^"]+)"', labels).group(1)
            rest = re.sub(r',?le="[^"]+"', "", labels)
            bound = float("inf") if le == "+Inf" else float(le)
            buckets.setdefault((family, rest), []).append((bound, value))
        elif "_count" in name:
            counts[name] = value
    assert buckets, "no histograms were exported"
    for (family, labels), series in buckets.items():
        series.sort()
        values = [v for _bound, v in series]
        assert values == sorted(values), f"{family} buckets not cumulative"
        assert series[-1][0] == float("inf")
        count_key = f"{family}_count{{{labels[:-1]}}}" if labels != "}" \
            else f"{family}_count"
        assert series[-1][1] == counts[count_key]


def test_counters_reconcile_with_the_ledger(live):
    client, queue, base = live
    run_one_job_plus_cache_hit(client)
    # a second distinct key, then its cache hit
    p2 = {"workload": "matmul_racing", "verify": False,
          "policy": "programmer"}
    client.wait(client.submit("annotate", p2)["id"], timeout=120)
    client.submit("annotate", p2)

    samples = parse_samples(
        fetch(base + "/metrics").decode()
    )

    def counter(family: str, **labels) -> float:
        name = "repro_" + family.replace(".", "_") + "_total"
        _, inner = split_labelled(labelled("x", **labels))
        return samples[f"{name}{{{inner}}}" if inner else name]

    # conservation against the in-memory stats...
    stats = queue.stats.as_dict()
    dispositions = {
        d: counter("service.submissions", disposition=d)
        for d in ("new", "cached", "coalesced", "requeued")
    }
    assert sum(dispositions.values()) == stats["submitted"] == 4
    assert dispositions["cached"] == stats["cache_hits"] == 2
    # ...and against the sqlite ledger itself: every "new" is a row, and
    # the incrementally maintained counts match a full scan
    ledger = queue.db.counts_scan()
    assert dispositions["new"] == sum(ledger.values()) == 2
    assert queue.db.counts() == ledger
    assert ledger["done"] == counter("service.jobs.completed",
                                     kind="annotate", outcome="ok") == 2
    # gauges mirror the drained ledger
    assert samples["repro_service_queue_depth"] == ledger["queued"] == 0
    assert samples["repro_service_jobs_running"] == ledger["running"] == 0


def test_coalesced_submissions_are_counted(tmp_path):
    # workers never started: the first submission stays queued, so the
    # second must coalesce onto it
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path)))
    queue.submit("annotate", PARAMS)
    payload = queue.submit("annotate", PARAMS)
    assert payload["disposition"] == "coalesced"
    snap = queue.telemetry.registry.snapshot()
    by_disposition = family_counts(snap, "service.submissions")
    assert by_disposition['disposition="new"'] == 1
    assert by_disposition['disposition="coalesced"'] == 1
    assert snap["service.queue.depth"] == 1


# ------------------------------------------------------------------ traces
def test_trace_links_requests_to_job_runs_by_flow_arrows(live):
    client, _queue, _base = live
    payload = run_one_job_plus_cache_hit(client)
    cid = payload["correlation_id"]

    trace = client.trace()
    events = trace["traceEvents"]
    names = [e["name"] for e in events]
    for expected in ("queued", "run annotate", "simulate", "annotate",
                     "persist", "POST /api/jobs"):
        assert expected in names, f"missing span {expected!r}"

    flows = [e for e in events if e.get("cat") == "service"
             and e.get("id") == cid]
    phases = sorted(e["ph"] for e in flows)
    assert phases == ["f", "s", "t"], f"incomplete flow arrow: {flows}"
    start = next(e for e in flows if e["ph"] == "s")
    finish = next(e for e in flows if e["ph"] == "f")
    # starts on the HTTP process, finishes on the workers' persist span
    assert start["pid"] == 0 and finish["pid"] == 1
    assert finish["bp"] == "e"
    persist = next(e for e in events if e["name"] == "persist")
    assert finish["ts"] == persist["ts"]
    # the cached resubmission created no second flow
    all_flow_ids = {e["id"] for e in events if e.get("cat") == "service"}
    assert all_flow_ids == {cid}
    # both processes are named for Perfetto
    proc_meta = {e["pid"]: e["args"]["name"] for e in events
                 if e["name"] == "process_name"}
    assert proc_meta == {0: "repro-serve: http", 1: "repro-serve: jobs"}


# ------------------------------------------------------------- dashboards
def test_ops_page_and_top_snapshot(live):
    client, _queue, base = live
    run_one_job_plus_cache_hit(client)

    html = fetch(base + "/ops.html").decode()
    assert "operational telemetry" in html
    assert "job execution latency" in html
    assert "annotate" in html
    # counter names render HTML-escaped (quotes become &quot;)
    assert "service.submissions{disposition=&quot;cached&quot;}" in html

    index = fetch(base + "/").decode()
    assert "/ops.html" in index

    top = _render_top(client.status(), client.metrics())
    assert "telemetry on" in top
    assert "job latency" in top and "http latency" in top
    assert "/api/jobs/{id}" in top  # templated routes, not raw paths


def test_ops_page_and_top_render_identical_latency_cells():
    """Both dashboards render the shared latency rows: for the same
    (JSON round-tripped) snapshot every quantile cell is byte-identical."""
    import json

    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import (
        HTTP_LATENCY_BUCKETS_US,
        JOB_LATENCY_BUCKETS_MS,
        latency_rows,
    )
    from repro.service.reports import render_ops

    registry = MetricsRegistry()
    for name, bounds, values in (
        (labelled("service.job.latency_ms", kind="annotate"),
         JOB_LATENCY_BUCKETS_MS, (3, 40, 41, 900)),
        (labelled("service.job.latency_ms", kind="bench"),
         JOB_LATENCY_BUCKETS_MS, (10**9,)),  # overflow: exact max
        (labelled("service.http.latency_us", route="/api/jobs/{id}"),
         HTTP_LATENCY_BUCKETS_US, (120, 95, 4000)),
    ):
        hist = registry.histogram(name, bounds)
        for value in values:
            hist.observe(value)
    metrics = json.loads(json.dumps(
        {"enabled": True, "metrics": registry.snapshot()}
    ))
    status = {
        "version": "0", "uptime_s": 1.0, "workers": 1, "telemetry": True,
        "jobs": {"queued": 0, "running": 0, "done": 5, "failed": 0},
        "stats": {"submitted": 5, "cache_hits": 0, "failed": 0},
    }
    html = render_ops(status, metrics)
    html_rows = [
        re.findall(r"<td[^>]*>(.*?)</td>", tr)
        for tr in re.findall(r"<tr>(.*?)</tr>", html)
    ]
    top_rows = [
        re.split(r"\s{2,}", line.strip())
        for line in _render_top(status, metrics).splitlines()
    ]
    expected = [
        [str(cell) if not isinstance(cell, float) else f"{cell:.3f}"
         for cell in row]
        for family in ("service.job.latency_ms", "service.http.latency_us")
        for row in latency_rows(metrics["metrics"], family)
    ]
    assert len(expected) == 3
    for row in expected:
        assert row in html_rows and row in top_rows, row


# ---------------------------------------------------------------- disabled
def test_disabled_telemetry_serves_but_collects_nothing(tmp_path):
    queue = JobQueue(ServiceConfig(data_dir=str(tmp_path), telemetry=False))
    server, _thread = serve_background(queue)
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"
    client = ServiceClient(base)
    try:
        run_one_job_plus_cache_hit(client)
        text = fetch(base + "/metrics").decode()
        assert "repro_service_telemetry_enabled 0" in text
        assert "submissions" not in text
        snap = client.metrics()
        assert snap["enabled"] is False and snap["metrics"] == {}
        assert client.trace()["traceEvents"] == [
            e for e in client.trace()["traceEvents"] if e["ph"] == "M"
        ]  # process metadata only, no spans
        assert "(telemetry disabled" in _render_top(client.status(),
                                                    snap)
        html = fetch(base + "/ops.html").decode()
        assert "Telemetry is disabled" in html
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        queue.stop()


def test_prometheus_rejects_mixed_instrument_families():
    from repro.obs.metrics import MetricsError, MetricsRegistry

    registry = MetricsRegistry()
    registry.counter(labelled("service.thing", a="1"))
    registry.gauge(labelled("service.thing", a="2"))
    with pytest.raises(MetricsError, match="mixes instrument types"):
        prometheus_text(registry)


def test_next_id_is_allocated_even_when_disabled():
    telemetry = ServiceTelemetry(enabled=False)
    assert telemetry.next_id() == 1
    assert telemetry.next_id() == 2


def test_instruments_resolved_once_count_every_request():
    """Each label tuple's counter and histogram are resolved once and
    bumped on every later request: the registry reads the same as one
    that resolves the labelled names per request."""
    telemetry = ServiceTelemetry()
    traffic = [("GET", "/api/jobs/{id}", 200, 0.0004),
               ("POST", "/api/jobs", 202, 0.003),
               ("GET", "/api/jobs/{id}", 200, 0.0002),
               ("GET", "/api/jobs/{id}", 404, 0.0001)] * 3
    for request in traffic:
        telemetry.http_request(*request)
    for outcome in ("done", "done", "failed"):
        telemetry.job_finished("annotate", outcome, 0.02)

    expected = ServiceTelemetry()
    registry = expected.registry
    for method, route, status, dur_s in traffic:
        registry.counter(labelled("service.http.requests", method=method,
                                  route=route, status=str(status))).inc()
        registry.histogram(labelled("service.http.latency_us", route=route),
                           telemetry_mod.HTTP_LATENCY_BUCKETS_US,
                           ).observe(int(dur_s * 1e6))
    for outcome in ("done", "done", "failed"):
        registry.counter(labelled("service.jobs.completed", kind="annotate",
                                  outcome=outcome)).inc()
        registry.histogram(labelled("service.job.latency_ms",
                                    kind="annotate"),
                           telemetry_mod.JOB_LATENCY_BUCKETS_MS).observe(20)
    assert telemetry.registry.snapshot() == registry.snapshot()
    assert telemetry.prometheus() == expected.prometheus()


# ------------------------------------------------------------ trace bound
def _flow_phases(events) -> dict[int, list[str]]:
    flows: dict[int, list[str]] = {}
    for event in events:
        if event.get("cat") == "service":
            flows.setdefault(event["id"], []).append(event["ph"])
    return {cid: sorted(phases) for cid, phases in flows.items()}


def test_tracer_serves_whole_flow_arrows_only(monkeypatch):
    """The tracer keeps its newest TRACE_EVENTS events; a trace serves an
    arrow only while all three of its ends are among them."""
    monkeypatch.setattr(telemetry_mod, "TRACE_EVENTS", 4)
    tracer = ServiceTracer()
    now = time.time()
    # span + s, then queued + run + t + f: the s falls out with the span
    tracer.http_span("POST", "/api/jobs", 202, 0, 5, correlation=7)
    with tracer.run_job(1, "annotate", now, now, [7]):
        pass
    events = tracer.chrome_trace()["traceEvents"]
    assert _flow_phases(events) == {}
    assert [e["name"] for e in events if e["ph"] == "X"] == [
        "queued", "run annotate"]
    # an s whose job has not run yet is not served either
    tracer.http_span("POST", "/api/jobs", 202, 10, 5, correlation=8)
    assert _flow_phases(tracer.chrome_trace()["traceEvents"]) == {}
    assert len(tracer._events) == 4
    # a whole arrow within the bound is served whole
    monkeypatch.setattr(telemetry_mod, "TRACE_EVENTS", 64)
    tracer = ServiceTracer()
    tracer.http_span("POST", "/api/jobs", 202, 40, 5, correlation=9)
    with tracer.run_job(3, "annotate", now, now, [9]):
        pass
    events = tracer.chrome_trace()["traceEvents"]
    assert _flow_phases(events) == {9: ["f", "s", "t"]}


def test_trace_stays_at_its_bound_with_whole_flow_arrows(tmp_path,
                                                          monkeypatch):
    """Many cached submissions leave the daemon's trace at its bound, with
    its thread names and no one-ended flow arrow."""
    monkeypatch.setattr(telemetry_mod, "TRACE_EVENTS", 12)
    with _daemon(tmp_path) as (client, queue, _base):
        run_one_job_plus_cache_hit(client)
        for _ in range(30):
            assert client.submit("annotate", PARAMS)["cached"] is True
        assert len(queue.telemetry.tracer._events) == 12
        events = client.trace()["traceEvents"]
    threads = {(e["pid"], e["args"]["name"]) for e in events
               if e["name"] == "thread_name"}
    assert (0, "http 0") in threads and (1, "worker 0") in threads
    for phases in _flow_phases(events).values():
        assert phases == ["f", "s", "t"]
    assert 0 < len([e for e in events if e["ph"] != "M"]) <= 12


def test_submission_joining_a_running_job_serves_no_half_arrow(tmp_path,
                                                               monkeypatch):
    """A submission of the same spec while its job runs coalesces onto
    the job after the run took its flow arrows, so its start never gets
    a step or a finish: the trace leaves that arrow out and serves the
    first submission's whole."""
    running, release = threading.Event(), threading.Event()

    def held(*args, **kwargs):
        running.set()
        assert release.wait(60)
        return execute_job(*args, **kwargs)

    monkeypatch.setattr(queue_mod, "execute_job", held)
    with _daemon(tmp_path) as (client, queue, _base):
        first = client.submit("annotate", PARAMS)
        assert running.wait(60)
        again = client.submit("annotate", PARAMS)
        assert again["disposition"] == "coalesced"
        assert again["id"] == first["id"]
        release.set()
        assert client.wait(first["id"], timeout=120)["state"] == "done"
        events = client.trace()["traceEvents"]
    assert _flow_phases(events) == {first["correlation_id"]: ["f", "s", "t"]}
    # the joined submission's flow went with the run (the workers are
    # stopped now, so the run has ended)
    assert queue._pending_flows == {}
