"""Service telemetry: metrics, Prometheus exposition, and daemon tracing.

:mod:`repro.obs.metrics` instruments simulated *cycles*; this module points
the same registry at the daemon's own wall clock.  One
:class:`ServiceTelemetry` per :class:`~repro.service.queue.JobQueue` owns

* a :class:`~repro.obs.metrics.MetricsRegistry` of service instruments —
  queue-depth and running-jobs gauges, submission-disposition and
  job-outcome counters, per-kind job-latency and per-route HTTP-latency
  histograms — using a *labelled name* convention
  (``service.job.latency_ms{kind="annotate"}``) that
  :func:`prometheus_text` renders as Prometheus text exposition with real
  label sets, cumulative ``le`` buckets, ``_sum`` and ``_count``;
* a :class:`ServiceTracer` recording the daemon's lifetime as Chrome trace
  events: one process for the HTTP surface, one for the job workers, an
  ``X`` span per request and per job phase (queued → running →
  simulate/annotate/sweep → persist), and one Perfetto flow arrow per
  submission joining the HTTP request span to the job run that served it.
  Inside a job, the executors mark phases via :func:`job_phase` (a no-op
  outside a worker), so a daemon's trace opens in Perfetto with the full
  submit→persist causal chain — and the per-run traces a figure6 job
  exports carry the txn-level flows within the simulation itself.

Everything is O(1) per event, guarded by one lock, and compiled out by
``enabled=False`` (``repro-serve --no-telemetry``); the bench-smoke CI job
pins the hot-path overhead under 5% of a cached round trip.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.export import process_meta, thread_meta, trace_document
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    bucket_quantile,
)

#: HTTP request latency buckets (microseconds): loopback JSON round trips.
HTTP_LATENCY_BUCKETS_US = (
    100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
    250_000, 1_000_000,
)
#: Job execution latency buckets (milliseconds): annotate runs in tens of
#: ms, full figure6 sweeps in minutes.
JOB_LATENCY_BUCKETS_MS = (
    1, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 15_000, 60_000,
    300_000, 1_200_000,
)
#: submission dispositions, in the ledger's vocabulary
DISPOSITIONS = ("new", "cached", "coalesced", "requeued")

#: Chrome-trace process ids for the daemon's two surfaces.
HTTP_PID = 0
JOBS_PID = 1

#: trace events a daemon keeps besides its thread names: the newest ones
#: (a 15 s ``service`` benchmark run records about 2,000)
TRACE_EVENTS = 8192
#: the ends of one submission's flow arrow: its start ("s") on the HTTP
#: span, its step ("t") and finish ("f") on the job run
FLOW_ENDS = frozenset("stf")


# ------------------------------------------------------------ labelled names
def escape_label(value: str) -> str:
    """Prometheus label-value escaping (backslash, quote, newline)."""
    return (
        value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")
    )


def labelled(name: str, **labels: str) -> str:
    """A registry instrument name carrying a Prometheus-style label set.

    Labels are sorted, so the same logical series always lands on the same
    instrument: ``labelled("service.http.requests", route="/metrics",
    method="GET")`` → ``service.http.requests{method="GET",route="/metrics"}``.
    """
    if not labels:
        return name
    inner = ",".join(
        f'{key}="{escape_label(str(value))}"'
        for key, value in sorted(labels.items())
    )
    return f"{name}{{{inner}}}"


def split_labelled(key: str) -> tuple[str, str]:
    """``(family, label string)`` of a (possibly) labelled instrument name.

    The label string is the raw ``k="v",...`` interior (empty when the name
    carries no labels) — already in exposition syntax.
    """
    if key.endswith("}") and "{" in key:
        family, _, rest = key.partition("{")
        return family, rest[:-1]
    return key, ""


def family_counts(snapshot: dict, family: str) -> dict[str, int | dict]:
    """All of ``family``'s series in a registry snapshot, keyed by label
    string (works on live snapshots and JSON round-tripped ones)."""
    out: dict[str, int | dict] = {}
    for key, value in snapshot.items():
        fam, labels = split_labelled(key)
        if fam == family:
            out[labels] = value
    return out


def snapshot_quantile(snap: dict, q: float) -> float | None:
    """Quantile from a histogram *snapshot* dict (the same bucket walk as
    :meth:`~repro.obs.metrics.Histogram.quantile`, but works after a JSON
    round trip where bucket bounds became strings)."""
    count = snap.get("count", 0)
    if not count:
        return None
    buckets = sorted((float(bound), n) for bound, n in snap["buckets"].items())
    return bucket_quantile(buckets, count, float(snap["max"]), q)


def latency_rows(snapshot: dict, family: str) -> list[list]:
    """``[label, count, p50, p90, p99, max]`` for each series of a latency
    histogram family, sorted by label ("-" for an empty quantile).  These
    are the rows both ``/ops.html`` and ``repro-client top`` render, so the
    two show the same numbers for the same snapshot."""
    rows = []
    for labels, hist in sorted(family_counts(snapshot, family).items()):
        label = labels.split('"')[1] if '"' in labels else labels
        quantiles = [snapshot_quantile(hist, q) for q in (0.5, 0.9, 0.99)]
        rows.append([
            label, hist["count"],
            *("-" if value is None else value for value in quantiles),
            hist["max"],
        ])
    return rows


# -------------------------------------------------------- prometheus render
_PROM_HELP = {
    "service.submissions": "Job submissions by ledger disposition.",
    "service.jobs.completed": "Executed jobs by kind and outcome.",
    "service.jobs.retries": "Requeues: failed-key resubmissions plus "
                            "crash-recovery requeues.",
    "service.queue.depth": "Jobs currently queued.",
    "service.jobs.running": "Jobs currently executing.",
    "service.job.latency_ms": "Job execution wall-clock latency.",
    "service.http.requests": "HTTP requests by method, route and status.",
    "service.http.latency_us": "HTTP request service latency.",
    "service.telemetry.enabled": "1 when telemetry is collecting.",
}


def _prom_name(family: str) -> str:
    return "repro_" + family.replace(".", "_").replace("-", "_")


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry as Prometheus text exposition (version 0.0.4).

    Counters gain the conventional ``_total`` suffix; histograms render as
    *cumulative* ``_bucket{le=...}`` series ending at ``le="+Inf"`` plus
    ``_sum`` and ``_count``.  Instruments created via :func:`labelled`
    become one family with a real label set.
    """
    families: dict[str, list[tuple[str, object]]] = {}
    for name in registry.names():
        family, labels = split_labelled(name)
        families.setdefault(family, []).append((labels, registry.get(name)))

    lines: list[str] = []
    for family in sorted(families):
        series = families[family]
        kinds = {type(inst) for _labels, inst in series}
        if len(kinds) != 1:
            raise MetricsError(
                f"metric family {family!r} mixes instrument types: "
                f"{sorted(k.__name__ for k in kinds)}"
            )
        kind = kinds.pop()
        prom = _prom_name(family)
        help_text = _PROM_HELP.get(family, family)
        if kind is Counter:
            lines.append(f"# HELP {prom}_total {help_text}")
            lines.append(f"# TYPE {prom}_total counter")
            for labels, inst in series:
                label_part = f"{{{labels}}}" if labels else ""
                lines.append(f"{prom}_total{label_part} {inst.value}")
        elif kind is Gauge:
            lines.append(f"# HELP {prom} {help_text}")
            lines.append(f"# TYPE {prom} gauge")
            for labels, inst in series:
                label_part = f"{{{labels}}}" if labels else ""
                lines.append(f"{prom}{label_part} {inst.value}")
        else:  # Histogram
            lines.append(f"# HELP {prom} {help_text}")
            lines.append(f"# TYPE {prom} histogram")
            for labels, inst in series:
                prefix = f"{labels}," if labels else ""
                running = 0
                for bound, count in zip(inst.bounds, inst.counts):
                    running += count
                    lines.append(
                        f'{prom}_bucket{{{prefix}le="{bound}"}} {running}'
                    )
                running += inst.counts[-1]
                lines.append(f'{prom}_bucket{{{prefix}le="+Inf"}} {running}')
                label_part = f"{{{labels}}}" if labels else ""
                lines.append(f"{prom}_sum{label_part} {inst.total}")
                lines.append(f"{prom}_count{label_part} {inst.count}")
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------ service tracer
@dataclass
class _JobCtx:
    """Thread-local context of the job currently executing on a worker."""

    job_id: int
    kind: str
    tid: int
    #: (ts, pid, tid) of the last phase span — the flow arrow's landing pad
    last_phase: tuple[int, int, int] | None = None


_active = threading.local()  # .tracer / .job while inside run_job


class ServiceTracer:
    """Record the daemon's lifetime as Chrome trace events.

    Wall-clock microseconds since tracer start; process 0 is the HTTP
    surface (one thread track per handler thread), process 1 the job
    workers.  Submission correlation ids double as Perfetto flow ids, so
    the arrow from a ``POST /api/jobs`` span to the job's ``run`` span is
    the same id the structured logs carry in their ``correlation`` field.

    A long-running daemon keeps its thread names and its newest
    :data:`TRACE_EVENTS` events.  A trace served holds a flow arrow only
    when all its ends are among those: an arrow that lost its oldest end,
    or whose job has not run yet (or never runs, for a submission that
    joined a job already running), is left out whole.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.RLock()
        self._meta: list[dict] = []  # thread names, never dropped
        self._events: deque[dict] = deque(maxlen=TRACE_EVENTS)
        self._ids = itertools.count(1)
        self._t0_mono = time.monotonic()
        self._t0_wall = time.time()
        self._tids: dict[tuple[int, int], int] = {}
        self._tid_next: dict[int, itertools.count] = {}

    # ------------------------------------------------------------- plumbing
    def next_id(self) -> int:
        """A fresh correlation id (allocated even when disabled: the logs
        still want one)."""
        return next(self._ids)

    def now_us(self) -> int:
        return int((time.monotonic() - self._t0_mono) * 1e6)

    def wall_us(self, wall: float) -> int:
        """Map a ``time.time()`` stamp (ledger columns) onto the trace
        clock; clamped at 0 for stamps predating this daemon."""
        return max(0, int((wall - self._t0_wall) * 1e6))

    def add(self, event: dict) -> None:
        if self.enabled:
            with self._lock:
                self._events.append(event)  # the oldest falls out

    def _ensure_tid(self, pid: int, prefix: str) -> int:
        """Small per-process track id for the calling thread (registers the
        ``thread_name`` metadata the first time)."""
        key = (pid, threading.get_ident())
        with self._lock:
            tid = self._tids.get(key)
            if tid is None:
                counter = self._tid_next.setdefault(pid, itertools.count())
                tid = self._tids[key] = next(counter)
                self._meta += thread_meta(pid, tid, f"{prefix} {tid}")
            return tid

    # ---------------------------------------------------------------- spans
    def http_span(
        self,
        method: str,
        route: str,
        status: int,
        ts_us: int,
        dur_us: int,
        correlation: int | None = None,
    ) -> None:
        """One request as an ``X`` span on the HTTP process; when the
        request created/joined a job (``correlation``), also start that
        submission's flow arrow here."""
        if not self.enabled:
            return
        tid = self._ensure_tid(HTTP_PID, "http")
        self.add({
            "name": f"{method} {route}", "cat": "http", "ph": "X",
            "ts": ts_us, "dur": max(dur_us, 1), "pid": HTTP_PID, "tid": tid,
            "args": {"status": status, "route": route,
                     **({"correlation": correlation} if correlation else {})},
        })
        if correlation is not None:
            self.add({
                "name": "job", "cat": "service", "id": correlation,
                "ph": "s", "ts": ts_us, "pid": HTTP_PID, "tid": tid,
            })

    @contextmanager
    def run_job(
        self,
        job_id: int,
        kind: str,
        submitted_wall: float,
        started_wall: float,
        correlations: list[int],
    ) -> Iterator[None]:
        """Trace one job execution on the worker's track.

        Draws the ``queued`` span (ledger submit → claim), the ``run``
        span around the executor, and — for every submission that joined
        this job — the flow steps landing on the run span and finishing on
        its last phase span (``persist``, when the executor marked one).
        Executors mark phases via :func:`job_phase`, which finds this
        context through a thread-local.
        """
        if not self.enabled:
            yield
            return
        tid = self._ensure_tid(JOBS_PID, "worker")
        q_start = self.wall_us(submitted_wall)
        q_end = self.wall_us(started_wall)
        self.add({
            "name": "queued", "cat": "job", "ph": "X", "ts": q_start,
            "dur": max(q_end - q_start, 1), "pid": JOBS_PID, "tid": tid,
            "args": {"job": job_id, "kind": kind},
        })
        ctx = _JobCtx(job_id=job_id, kind=kind, tid=tid)
        _active.tracer = self
        _active.job = ctx
        start = self.now_us()
        try:
            yield
        finally:
            _active.tracer = None
            _active.job = None
            end = self.now_us()
            self.add({
                "name": f"run {kind}", "cat": "job", "ph": "X", "ts": start,
                "dur": max(end - start, 1), "pid": JOBS_PID, "tid": tid,
                "args": {"job": job_id, "kind": kind,
                         "submissions": len(correlations)},
            })
            for cid in correlations:
                flow = {"name": "job", "cat": "service", "id": cid}
                self.add({**flow, "ph": "t", "ts": start,
                          "pid": JOBS_PID, "tid": tid})
                tail_ts, tail_pid, tail_tid = (
                    ctx.last_phase or (start, JOBS_PID, tid)
                )
                self.add({**flow, "ph": "f", "bp": "e", "ts": tail_ts,
                          "pid": tail_pid, "tid": tail_tid})

    def chrome_trace(self, meta: dict | None = None) -> dict:
        """The daemon session as a Chrome trace-event JSON object (same
        shape as :func:`repro.obs.export.chrome_trace`, different clock:
        wall microseconds since daemon start)."""
        with self._lock:
            events = list(self._events)
            threads = list(self._meta)
        ends: dict[int, set[str]] = {}
        for event in events:
            if "id" in event:  # only a flow end has one
                ends.setdefault(event["id"], set()).add(event["ph"])
        events = [event for event in events
                  if "id" not in event or ends[event["id"]] == FLOW_ENDS]
        prelude = (process_meta(HTTP_PID, "repro-serve: http")
                   + process_meta(JOBS_PID, "repro-serve: jobs"))
        return trace_document(prelude + threads + events, "ms", {
            "clock": "wall microseconds since daemon start",
            **{k: str(v) for k, v in (meta or {}).items()},
        })


@contextmanager
def job_phase(name: str, **args) -> Iterator[None]:
    """Mark a phase of the currently executing job (``simulate``,
    ``annotate``, ``sweep``, ``verify``, ``persist``, ...).

    Executors call this unconditionally; outside a traced worker — unit
    tests calling :func:`repro.service.jobs.execute_job` directly, or a
    daemon running ``--no-telemetry`` — it is a no-op.
    """
    tracer: ServiceTracer | None = getattr(_active, "tracer", None)
    ctx: _JobCtx | None = getattr(_active, "job", None)
    if tracer is None or ctx is None:
        yield
        return
    ts = tracer.now_us()
    try:
        yield
    finally:
        end = tracer.now_us()
        tracer.add({
            "name": name, "cat": "phase", "ph": "X", "ts": ts,
            "dur": max(end - ts, 1), "pid": JOBS_PID, "tid": ctx.tid,
            "args": {"job": ctx.job_id, "kind": ctx.kind, **args},
        })
        ctx.last_phase = (ts, JOBS_PID, ctx.tid)


# --------------------------------------------------------- service telemetry
@dataclass
class ServiceTelemetry:
    """One daemon's telemetry: registry + tracer behind no-op-able methods.

    Every mutator is a couple of dict operations under one lock; with
    ``enabled=False`` they return immediately (the bench guard in CI holds
    the enabled-vs-disabled round-trip delta under 5%).
    """

    enabled: bool = True
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    started_wall: float = field(default_factory=time.time)

    def __post_init__(self) -> None:
        self.tracer = ServiceTracer(enabled=self.enabled)
        self._lock = threading.Lock()
        # each label tuple's (counter, histogram), resolved on first use:
        # a request or a finished job costs one bump and one observe
        self._http: dict[tuple[str, str, int], tuple[Counter, Histogram]] = {}
        self._jobs: dict[tuple[str, str], tuple[Counter, Histogram]] = {}
        if self.enabled:
            # Pre-create the stable instrument set so the first scrape
            # already carries every family (zero-valued, not absent).
            self.registry.gauge("service.telemetry.enabled").set(1)
            for disposition in DISPOSITIONS:
                self.registry.counter(
                    labelled("service.submissions", disposition=disposition)
                )
            self.registry.counter("service.jobs.retries")
            self.registry.gauge("service.queue.depth")
            self.registry.gauge("service.jobs.running")

    # ------------------------------------------------------------- mutators
    def next_id(self) -> int:
        return self.tracer.next_id()

    def submission(self, disposition: str) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.registry.counter(
                labelled("service.submissions", disposition=disposition)
            ).inc()

    def retry(self, n: int = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            self.registry.counter("service.jobs.retries").inc(n)

    def set_queue_gauges(self, counts: dict[str, int]) -> None:
        """Mirror the ledger's (incrementally maintained) per-state counts
        onto the queue-depth and running gauges."""
        if not self.enabled:
            return
        with self._lock:
            self.registry.gauge("service.queue.depth").set(counts["queued"])
            self.registry.gauge("service.jobs.running").set(counts["running"])

    def job_finished(self, kind: str, outcome: str, dur_s: float) -> None:
        if not self.enabled:
            return
        with self._lock:
            instruments = self._jobs.get((kind, outcome))
            if instruments is None:
                instruments = self._jobs[kind, outcome] = (
                    self.registry.counter(labelled(
                        "service.jobs.completed", kind=kind, outcome=outcome)),
                    self.registry.histogram(
                        labelled("service.job.latency_ms", kind=kind),
                        JOB_LATENCY_BUCKETS_MS,
                    ),
                )
            count, latency = instruments
            count.inc()
            latency.observe(max(int(dur_s * 1e3), 0))

    def http_request(
        self, method: str, route: str, status: int, dur_s: float
    ) -> None:
        if not self.enabled:
            return
        with self._lock:
            instruments = self._http.get((method, route, status))
            if instruments is None:
                instruments = self._http[method, route, status] = (
                    self.registry.counter(labelled(
                        "service.http.requests", method=method, route=route,
                        status=str(status))),
                    self.registry.histogram(
                        labelled("service.http.latency_us", route=route),
                        HTTP_LATENCY_BUCKETS_US,
                    ),
                )
            count, latency = instruments
            count.inc()
            latency.observe(max(int(dur_s * 1e6), 0))

    # ---------------------------------------------------------------- views
    def snapshot(self) -> dict:
        """The ``/api/metrics`` payload: JSON twin of the Prometheus page."""
        return {
            "enabled": self.enabled,
            "uptime_s": round(time.time() - self.started_wall, 3),
            "metrics": self.registry.snapshot() if self.enabled else {},
        }

    def prometheus(self) -> str:
        """The ``GET /metrics`` body.  A disabled daemon still exposes the
        ``repro_service_telemetry_enabled 0`` gauge so scrapers can tell
        "off" from "dead"."""
        if not self.enabled:
            return (
                "# HELP repro_service_telemetry_enabled "
                f"{_PROM_HELP['service.telemetry.enabled']}\n"
                "# TYPE repro_service_telemetry_enabled gauge\n"
                "repro_service_telemetry_enabled 0\n"
            )
        return prometheus_text(self.registry)


__all__ = [
    "DISPOSITIONS",
    "HTTP_LATENCY_BUCKETS_US",
    "HTTP_PID",
    "JOBS_PID",
    "JOB_LATENCY_BUCKETS_MS",
    "TRACE_EVENTS",
    "ServiceTelemetry",
    "ServiceTracer",
    "escape_label",
    "family_counts",
    "job_phase",
    "labelled",
    "latency_rows",
    "prometheus_text",
    "snapshot_quantile",
    "split_labelled",
]
