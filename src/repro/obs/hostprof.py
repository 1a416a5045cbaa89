"""Host-performance profiling: where the *simulator's own* wall-clock goes.

Every other layer of ``repro.obs`` measures simulated cycles; this one
measures the host.  It is the enabler for the ROADMAP's "10×+ simulator
core speedup" item: before vectorising the interpreter hot paths we need
to know which subsystem actually burns the time, and afterwards we need
proof the win stuck (:mod:`repro.obs.history` keeps that proof).

Two coordinated modes, both owned by one :class:`HostProfiler`:

**Phase accounting** (deterministic, exactly conserved).  Hot layers carry
lightweight instrumentation points — the machine step loop, the protocol
slow path, the network send path, cache flushes, the event-bus publish
path and the invariant checker — that push/pop named *phases* on the
active profiler.  Accounting is exclusive self-time over a region stack:
every interval between two consecutive ``perf_counter_ns`` readings is
credited to exactly one (phase, epoch) cell, so the subsystem × epoch
breakdown sums to total wall time *exactly* (integer nanoseconds, no
tolerance needed — a property the tests pin).

**Sampling** (statistical).  A daemon thread samples the profiled thread's
Python stack at a fixed interval, aggregating flamegraph-style folded
stacks and a host-time Chrome-trace track (:data:`HOST_PID`) that
:func:`host_trace_events` merges alongside the simulated-time tracks.

Zero-cost disabled mode
-----------------------
Instrumentation points read the module global :data:`ACTIVE`; when no
profiler is active that is one attribute load plus an ``is None`` test and
nothing else — no timestamps, no allocation.  Publishers use the pattern::

    prof = hostprof.ACTIVE
    if prof is not None:
        prof.push("protocol")
    try:
        ...slow path...
    finally:
        if prof is not None:
            prof.pop()

or, on low-frequency paths, ``with hostprof.perf_region("cache"): ...``
(which returns a shared no-op context manager while disabled).

Thread affinity
---------------
:data:`ACTIVE` is process-global, but a profiler accounts for one thread:
the one that started it.  Calls from any other thread — a second
simulation running beside the profiled one, as under ``repro-serve
--workers 2`` — are ignored, so they can neither unbalance its region
stack nor move its epoch.
"""

from __future__ import annotations

import threading
from threading import get_ident
from time import perf_counter_ns

from repro.errors import ObsError

HOSTPROF_VERSION = 1

#: canonical phase names, in display order ("other" is the implicit bottom
#: of the region stack: setup, finalize, exporters — anything outside the
#: instrumented layers)
PHASES = (
    "machine", "protocol", "network", "cache", "obs", "verify", "other",
)

#: pid of the host-time track in exported Chrome traces (sorts after every
#: simulated node track and the network track, see obs/export.py)
HOST_PID = 1 << 21

#: the profiler instrumentation points consult (None = disabled)
ACTIVE: "HostProfiler | None" = None


class _NullRegion:
    """Shared no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_REGION = _NullRegion()


class _Region:
    """Context manager pushing one phase on one profiler."""

    __slots__ = ("_prof", "_phase")

    def __init__(self, prof: "HostProfiler", phase: str):
        self._prof = prof
        self._phase = phase

    def __enter__(self):
        self._prof.push(self._phase)
        return self

    def __exit__(self, *exc):
        self._prof.pop()
        return False


def perf_region(phase: str):
    """A context manager crediting the enclosed host time to ``phase`` on
    the active profiler — or a shared no-op when profiling is off."""
    prof = ACTIVE
    if prof is None:
        return _NULL_REGION
    return _Region(prof, phase)


def activate(prof: "HostProfiler") -> None:
    """Make ``prof`` the profiler the instrumentation points feed."""
    global ACTIVE
    ACTIVE = prof


def deactivate(prof: "HostProfiler | None" = None) -> None:
    """Clear :data:`ACTIVE` (only if it still is ``prof``, when given —
    an old profiler leaked past an exception must not tear down a newer
    run's accounting)."""
    global ACTIVE
    if prof is None or ACTIVE is prof:
        ACTIVE = None


class HostProfiler:
    """Exactly-conserved phase accounting plus an optional sampler.

    Use as a context manager around the code under measurement (the
    harness wraps ``machine.run``)::

        prof = HostProfiler(sampling_interval_s=0.005)
        with prof.running():
            machine.run(...)
        report = prof.report()

    ``running()`` activates the profiler for the instrumentation points,
    starts/stops the sampler, and guarantees deactivation on exceptions.
    """

    __slots__ = ("epoch", "sampler", "_epochs", "_cells", "_top", "_stack",
                 "_last", "_started", "_t0", "_total_ns", "_owner")

    def __init__(self, sampling_interval_s: float = 0.0):
        if sampling_interval_s < 0:
            raise ObsError(
                f"sampling interval must be >= 0, got {sampling_interval_s}"
            )
        self.epoch = 0
        self.sampler = (
            SamplingProfiler(sampling_interval_s)
            if sampling_interval_s else None
        )
        #: epoch -> phase -> exclusive self-time in integer ns
        self._epochs: dict[int, dict[str, int]] = {}
        self._cells = self._epochs.setdefault(0, {})  # the current epoch's
        self._top = "other"  # the open region
        self._stack: list[str] = []  # the regions it is nested in
        self._last = 0  # ns timestamp of the most recent credit
        self._started = False
        self._total_ns = 0
        self._owner: int | None = None  # thread ident that started it

    # --------------------------------------------------------- accounting
    # push, pop, set_epoch and dispatch each credit the open region inline
    # (one timestamp, one dict update keyed by the phase name): they run
    # once or twice per simulated access, so their cost is what profiling
    # adds to the run it measures.
    def start(self) -> None:
        """Open the accounting window (idempotent) for the calling thread:
        from here on, push/pop/set_epoch from other threads are ignored."""
        if self._started:
            return
        self._started = True
        self._owner = get_ident()
        self._top, self._stack = "other", []
        self._last = perf_counter_ns()
        self._t0 = self._last
        if self.sampler is not None:
            self.sampler.start()

    def stop(self) -> None:
        """Close the window: credit the open region and freeze the total
        (idempotent; safe after exceptions mid-region)."""
        if not self._started:
            return
        now = perf_counter_ns()
        # Unwind whatever an exception left open: the open region gets the
        # time since the last credit, every region below it a zero entry.
        cells = self._cells
        for phase in [self._top, *reversed(self._stack)]:
            cells[phase] = cells.get(phase, 0) + now - self._last
            self._last = now
        self._top, self._stack = "other", []
        self._total_ns += now - self._t0
        self._started = False
        if self.sampler is not None:
            self.sampler.stop()

    def push(self, phase: str) -> None:
        if get_ident() != self._owner:
            return
        now = perf_counter_ns()
        cells, top = self._cells, self._top
        cells[top] = cells.get(top, 0) + now - self._last
        self._last = now
        self._stack.append(top)
        self._top = phase

    def pop(self) -> None:
        if get_ident() != self._owner:
            return
        now = perf_counter_ns()
        cells, top = self._cells, self._top
        cells[top] = cells.get(top, 0) + now - self._last
        self._last = now
        self._top = self._stack.pop()

    def dispatch(self, phase: str, handlers, event) -> None:
        """Call each of ``handlers`` with ``event`` inside a ``phase``
        region: the same accounting as push, the calls, then pop, in one
        profiler call (the event bus runs this once per event)."""
        if get_ident() != self._owner:
            for handler in handlers:
                handler(event)
            return
        now = perf_counter_ns()
        cells, outer = self._cells, self._top
        cells[outer] = cells.get(outer, 0) + now - self._last
        self._last = now
        self._top = phase
        try:
            for handler in handlers:
                handler(event)
        finally:
            now = perf_counter_ns()
            cells, top = self._cells, self._top
            cells[top] = cells.get(top, 0) + now - self._last
            self._last = now
            self._top = outer

    def set_epoch(self, epoch: int) -> None:
        """Epoch boundary: split the open region at this instant so the
        per-epoch columns conserve exactly too."""
        if get_ident() != self._owner:
            return
        now = perf_counter_ns()
        cells, top = self._cells, self._top
        cells[top] = cells.get(top, 0) + now - self._last
        self._last = now
        self.epoch = epoch
        self._cells = self._epochs.setdefault(epoch, {})

    def running(self):
        """start() + activate() on entry; stop() + deactivate() on exit."""
        return _Running(self)

    # ------------------------------------------------------------ reports
    @property
    def total_ns(self) -> int:
        return self._total_ns

    def phase_totals(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for cells in self._epochs.values():
            for phase, ns in cells.items():
                totals[phase] = totals.get(phase, 0) + ns
        return totals

    def report(self) -> dict:
        """The JSON-able host-profile report.

        ``conserved`` is computed, not asserted: the sum of every cell must
        equal ``total_ns`` to the nanosecond.
        """
        phases = self.phase_totals()
        report = {
            "version": HOSTPROF_VERSION,
            "total_ns": self._total_ns,
            "phases": {k: phases[k] for k in sorted(phases)},
            "epochs": [
                {
                    "epoch": epoch,
                    "ns": sum(cells.values()),
                    "phases": {k: cells[k] for k in sorted(cells)},
                }
                for epoch, cells in sorted(self._epochs.items()) if cells
            ],
            "conserved": sum(phases.values()) == self._total_ns,
            "samples": None,
        }
        if self.sampler is not None:
            report["samples"] = self.sampler.report()
        return report


class _Running:
    __slots__ = ("_prof",)

    def __init__(self, prof: HostProfiler):
        self._prof = prof

    def __enter__(self):
        self._prof.start()
        activate(self._prof)
        return self._prof

    def __exit__(self, *exc):
        deactivate(self._prof)
        self._prof.stop()
        return False


# ------------------------------------------------------------- sampling
class SamplingProfiler:
    """Thread-based statistical profiler of one target thread.

    A daemon thread wakes every ``interval_s`` and reads the target
    thread's current Python stack via ``sys._current_frames``, folding it
    into flamegraph ``a;b;c count`` stacks plus a timestamped sample list
    for the Chrome host-time track.  ``start``/``stop`` are idempotent and
    exception-safe: a double start is a no-op, a stop without a start is a
    no-op, and the worker can never outlive ``stop()`` by more than one
    interval.
    """

    def __init__(self, interval_s: float = 0.005, max_depth: int = 64):
        if interval_s <= 0:
            raise ObsError(
                f"sampling interval must be > 0, got {interval_s}"
            )
        self.interval_s = interval_s
        self.max_depth = max_depth
        self.folded: dict[str, int] = {}
        #: (host-ns since start, innermost frame label) per sample
        self.samples: list[tuple[int, str]] = []
        self._target_tid: int | None = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        self._t0 = 0

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self, target_tid: int | None = None) -> None:
        if self.running:
            return
        self._target_tid = (
            target_tid if target_tid is not None else threading.get_ident()
        )
        self._stop.clear()
        self._t0 = perf_counter_ns()
        self._thread = threading.Thread(
            target=self._run, name="repro-hostprof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=max(1.0, 10 * self.interval_s))
        self._thread = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    # -------------------------------------------------------- the worker
    def _run(self) -> None:
        import sys

        wait = self._stop.wait
        while not wait(self.interval_s):
            frame = sys._current_frames().get(self._target_tid)
            if frame is None:  # target thread exited
                continue
            stack = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                stack.append(f"{_module_label(code.co_filename)}:"
                             f"{code.co_name}")
                frame = frame.f_back
                depth += 1
            stack.reverse()
            key = ";".join(stack)
            self.folded[key] = self.folded.get(key, 0) + 1
            self.samples.append(
                (perf_counter_ns() - self._t0, stack[-1] if stack else "?")
            )

    # ------------------------------------------------------------ report
    def report(self) -> dict:
        return {
            "interval_s": self.interval_s,
            "count": len(self.samples),
            "folded": {k: self.folded[k] for k in sorted(self.folded)},
            "digest": folded_digest(self.folded),
        }


def _module_label(filename: str) -> str:
    """``/…/src/repro/coherence/protocol.py`` -> ``repro/coherence/protocol``
    (non-repro frames keep their bare file name)."""
    norm = filename.replace("\\", "/")
    marker = "/repro/"
    idx = norm.rfind(marker)
    if idx >= 0:
        trimmed = "repro/" + norm[idx + len(marker):]
    else:
        trimmed = norm.rsplit("/", 1)[-1]
    return trimmed[:-3] if trimmed.endswith(".py") else trimmed


def folded_digest(folded: dict[str, int]) -> str:
    """Stable sha-256 digest of a folded-stack aggregate (the history
    ledger stores this so "same code, same hot stacks" is checkable)."""
    import hashlib
    import json

    payload = json.dumps(
        {k: folded[k] for k in sorted(folded)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def folded_stacks(report: dict) -> str:
    """Render a hostprof report's samples as flamegraph folded lines."""
    samples = report.get("samples") or {}
    folded = samples.get("folded") or {}
    return "\n".join(f"{stack} {count}" for stack, count in folded.items())


# ---------------------------------------------------------- chrome track
def host_trace_events(report: dict, run_name: str = "run") -> list[dict]:
    """The host-time Chrome-trace track for one hostprof report.

    One process (:data:`HOST_PID`) with two threads: per-epoch phase spans
    from the deterministic accounting (thread 0) and the sampler's
    innermost-frame spans (thread 1).  Timestamps are host *microseconds*
    from profiler start — a different clock than the simulated-cycle
    tracks, which is fine: the track rides alongside them so relative host
    cost per phase/epoch is visible next to the simulated activity.
    """
    events: list[dict] = [
        {
            "name": "process_name", "ph": "M", "pid": HOST_PID, "tid": 0,
            "args": {"name": f"{run_name}: host time (us)"},
        },
        {
            "name": "process_sort_index", "ph": "M", "pid": HOST_PID,
            "tid": 0, "args": {"sort_index": HOST_PID},
        },
        {
            "name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": 0,
            "args": {"name": "phase accounting"},
        },
        {
            "name": "thread_name", "ph": "M", "pid": HOST_PID, "tid": 1,
            "args": {"name": "samples"},
        },
    ]
    # Phase accounting: per epoch, one span per phase, laid end to end in
    # display order — the epoch's host cost decomposed on one timeline.
    ts_us = 0.0
    order = {phase: i for i, phase in enumerate(PHASES)}
    for epoch in report.get("epochs", ()):
        phases = epoch.get("phases", {})
        for phase in sorted(phases, key=lambda p: order.get(p, len(order))):
            dur_us = phases[phase] / 1000.0
            events.append({
                "name": phase, "cat": "host", "ph": "X",
                "ts": round(ts_us, 3), "dur": round(dur_us, 3),
                "pid": HOST_PID, "tid": 0,
                "args": {"epoch": epoch["epoch"], "ns": phases[phase]},
            })
            ts_us += dur_us
    samples = report.get("samples") or {}
    interval_us = (samples.get("interval_s") or 0) * 1e6
    # The samples list is not in the stored report (only its aggregate);
    # live callers pass the profiler's samples via report["_samples"].
    for t_ns, label in report.get("_samples", ()):
        events.append({
            "name": label, "cat": "host-sample", "ph": "X",
            "ts": round(t_ns / 1000.0, 3), "dur": round(interval_us, 3),
            "pid": HOST_PID, "tid": 1,
        })
    return events


# ------------------------------------------------------------- rendering
def render_hostprof(report: dict, workload: str = "") -> str:
    """Terminal table: phase totals plus the per-epoch decomposition."""
    from repro.harness.reporting import render_table

    total = report["total_ns"] or 1
    phases = report["phases"]
    order = {phase: i for i, phase in enumerate(PHASES)}
    names = sorted(phases, key=lambda p: order.get(p, len(order)))
    rows = [
        [name, round(phases[name] / 1e6, 3),
         f"{phases[name] / total:.1%}"]
        for name in names
    ]
    rows.append(["total", round(report["total_ns"] / 1e6, 3), "100.0%"])
    title = "host time by subsystem"
    if workload:
        title += f" ({workload})"
    parts = [render_table(["phase", "host_ms", "share"], rows, title=title)]
    epochs = report.get("epochs", ())
    if epochs:
        erows = [
            [e["epoch"], round(e["ns"] / 1e6, 3)]
            + [round(e["phases"].get(name, 0) / 1e6, 3) for name in names]
            for e in epochs
        ]
        parts.append(render_table(
            ["epoch", "host_ms"] + [f"{n}_ms" for n in names], erows,
            title="host time by epoch (exactly conserved)",
        ))
    conserved = "yes" if report.get("conserved") else "NO"
    parts.append(f"conservation: sum(phases) == total_ns: {conserved}")
    samples = report.get("samples")
    if samples:
        parts.append(
            f"sampler: {samples['count']} samples @ "
            f"{samples['interval_s'] * 1000:.1f} ms, "
            f"digest {samples['digest'][:12]}"
        )
    return "\n".join(parts)


__all__ = [
    "ACTIVE",
    "HOSTPROF_VERSION",
    "HOST_PID",
    "PHASES",
    "HostProfiler",
    "SamplingProfiler",
    "activate",
    "deactivate",
    "folded_digest",
    "folded_stacks",
    "host_trace_events",
    "perf_region",
    "render_hostprof",
]
