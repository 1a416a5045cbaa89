"""Benchmark-side span tracer: per-layer self time measured from outside.

Nothing here edits ``src/``.  :class:`SpanTracer` replaces each layer's
public entry points (module functions, class methods, the interpreter's
kernel generator and every event-bus handler) with thin wrappers while it
is installed, and puts the originals back on exit.  Each wrapper pushes a
frame, calls through, and on return charges

    self time = its duration - the durations of the spans it directly caused

to its layer.  Every duration is a difference of two ``perf_counter_ns``
readings and every child's duration is added to exactly one parent, so
within one op the per-layer self times sum to the op span's duration
exactly, in integer nanoseconds.

Hot spans (interpreter steps, protocol, cache and network calls, bus
dispatch) are only aggregated.  Coarse spans (harness entry points,
``Machine.run``, Cachier stages, ``read_trace``, ``unparse_program``,
``Observer.finalize``) and the op spans are also kept in memory as Chrome
trace events, each stamped with its op id, and written once when the run
ends (:meth:`SpanTracer.chrome_trace`).
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager

_clock = time.perf_counter_ns

#: Layers whose self time the tracer charges.  ``bench`` is the op's own
#: code (the benchmark's own loop plus library code no wrapper claims).
LAYERS = (
    "bench", "harness", "interp", "machine", "coherence", "cache", "network",
    "obs", "obs.finalize", "verify", "trace.collect", "trace.read",
    "cachier.epochs", "cachier.drfs", "cachier.report", "cachier.equations",
    "cachier.placement", "cachier.presentation", "lang.unparse",
)

# Coarse spans, each also kept as a Chrome event: (module, attribute
# path, span name, layer).  A function is patched where its caller looks it
# up, so a name imported into several modules is listed once per module;
# they share one wrapper.
_COARSE = (
    ("repro.harness.variants", "build_variants", "harness.build_variants",
     "harness"),
    ("repro.harness.runner", "trace_program", "harness.trace_program",
     "harness"),
    ("repro.harness.variants", "trace_program", "harness.trace_program",
     "harness"),
    ("repro.harness.runner", "run_program", "harness.run_program", "harness"),
    ("repro.harness.variants", "run_program", "harness.run_program",
     "harness"),
    ("repro.machine.machine", "Machine.run", "machine.run", "machine"),
    ("repro.obs.session", "Observer.finalize", "obs.finalize",
     "obs.finalize"),
    ("repro.verify", "InvariantChecker.finalize", "verify.finalize",
     "verify"),
    ("repro.trace.file_io", "read_trace", "trace.read", "trace.read"),
    ("repro.cachier.annotator", "EpochTable", "cachier.epochs",
     "cachier.epochs"),
    ("repro.cachier.annotator", "detect_all", "cachier.drfs", "cachier.drfs"),
    ("repro.cachier.reports", "SharingReport.build", "cachier.report",
     "cachier.report"),
    ("repro.cachier.reports", "SharingReport.render", "cachier.report",
     "cachier.report"),
    ("repro.cachier.annotator", "merge_static_epochs", "cachier.equations",
     "cachier.equations"),
    ("repro.cachier.placement", "Planner.plan", "cachier.placement",
     "cachier.placement"),
    ("repro.cachier.annotator", "clone_program", "cachier.presentation",
     "cachier.presentation"),
    ("repro.cachier.presentation", "Presenter.apply", "cachier.presentation",
     "cachier.presentation"),
    ("repro.lang.simplify", "simplify_annotations", "cachier.presentation",
     "cachier.presentation"),
    ("repro.lang.unparse", "unparse_program", "lang.unparse", "lang.unparse"),
)

# Hot spans, only aggregated: (module, class, methods, layer).
_HOT = (
    ("repro.coherence.protocol", "Dir1SWProtocol",
     ("read", "write", "check_out", "check_in", "prefetch", "flush_node"),
     "coherence"),
    ("repro.cache.sa_cache", "SetAssociativeCache",
     ("lookup", "touch", "insert", "invalidate", "downgrade", "flush_all",
      "lines"),
     "cache"),
    ("repro.network.model", "Network", ("begin", "send"), "network"),
    ("repro.obs.events", "EventBus", ("publish",), "obs"),
)


def handler_layer(handler) -> str:
    """The layer an event-bus handler belongs to, named by its owner's
    module: the trace collector, the invariant checker, or obs."""
    module = getattr(handler, "__module__", "") or ""
    if module.startswith("repro.verify"):
        return "verify"
    if module.startswith("repro.trace"):
        return "trace.collect"
    return "obs"


class SpanTracer:
    """Per-layer self-time accounting over wrapped entry points.

    Use as ``with tracer.installed(): ... with tracer.op(key): ...``.
    ``self_ns`` (per layer), ``incl_ns`` and ``calls`` (per span name)
    accumulate over every op; :meth:`op` also records each op's own
    per-layer breakdown in its Chrome event.
    """

    def __init__(self, pid: int = 1, process_name: str = "benchmark"):
        self.pid = pid
        self.process_name = process_name
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.incl_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        #: kernel events the interpreter yielded to the machine
        self.events = 0
        #: totals read off every ``Machine.run`` result
        self.run_stats = {"accesses": 0, "hits": 0, "messages": 0}
        self.chrome_events: list[dict] = []
        self.op_id = 0
        # the bottom frame absorbs spans that close outside any op
        self._stack: list[list[int]] = [[0, 0]]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrappers
    def _finish(self, frame, name: str, layer: str, record: bool) -> int:
        end = _clock()
        stack = self._stack
        stack.pop()
        dur = end - frame[0]
        self.self_ns[layer] += dur - frame[1]
        stack[-1][1] += dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if record:
            self.incl_ns[name] = self.incl_ns.get(name, 0) + dur
            self.chrome_events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": frame[0] / 1e3, "dur": dur / 1e3,
                "pid": self.pid, "tid": 0, "args": {"op": self.op_id},
            })
        return dur

    def wrap(self, fn, name: str, layer: str, record: bool = False):
        """``fn`` with a span around every call."""
        stack = self._stack
        finish = self._finish

        def traced(*args, **kwargs):
            frame = [_clock(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(frame, name, layer, record)

        return traced

    def _wrap_kernel(self, kernel):
        """Interpreter.kernel: one span per ``next()`` of the generator."""
        stack = self._stack
        finish = self._finish
        tracer = self

        def traced_kernel(interp, node, *args, **kwargs):
            step = kernel(interp, node, *args, **kwargs).__next__
            while True:
                frame = [_clock(), 0]
                stack.append(frame)
                try:
                    event = step()
                except StopIteration:
                    return
                finally:
                    finish(frame, "interp.next", "interp", False)
                tracer.events += 1
                yield event

        return traced_kernel

    def _wrap_machine_run(self, run):
        traced = self.wrap(run, "machine.run", "machine", record=True)
        stats = self.run_stats

        def machine_run(*args, **kwargs):
            result = traced(*args, **kwargs)
            stats["accesses"] += result.stats.accesses
            stats["hits"] += result.stats.hits
            stats["messages"] += result.total_messages
            return result

        return machine_run

    def _wrap_subscribe(self, subscribe):
        wrap = self.wrap

        def traced_subscribe(bus, kinds, handler):
            layer = handler_layer(handler)
            return subscribe(bus, kinds, wrap(handler, layer + ".handler", layer))

        return traced_subscribe

    # ------------------------------------------------------------ patching
    def _patch(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        from repro.lang.interp import Interpreter
        from repro.obs.events import EventBus

        shared: dict[int, object] = {}
        try:
            for module_name, path, name, layer in _COARSE:
                owner = importlib.import_module(module_name)
                attr = path
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(owner, cls_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, layer, True))
                elif path == "Machine.run":
                    new = self._wrap_machine_run(raw)
                else:
                    # one wrapper per original, however many names it has
                    new = shared.get(id(raw))
                    if new is None:
                        new = shared[id(raw)] = self.wrap(raw, name, layer, True)
                self._patch(owner, attr, new)
            for module_name, cls_name, methods, layer in _HOT:
                cls = getattr(importlib.import_module(module_name), cls_name)
                for method in methods:
                    self._patch(cls, method, self.wrap(
                        cls.__dict__[method], f"{layer}.{method}", layer))
            self._patch(Interpreter, "kernel",
                        self._wrap_kernel(Interpreter.__dict__["kernel"]))
            self._patch(EventBus, "subscribe",
                        self._wrap_subscribe(EventBus.__dict__["subscribe"]))
            yield self
        finally:
            while self._undo:
                owner, attr, original = self._undo.pop()
                setattr(owner, attr, original)

    # ----------------------------------------------------------------- ops
    @contextmanager
    def op(self, key: str):
        """One benchmark op: the root span every layer span nests under.

        The op's Chrome event carries its per-layer self times
        (``self_ns``), which sum exactly to its ``dur_ns``."""
        self.op_id += 1
        before = dict(self.self_ns)
        frame = [_clock(), 0]
        self._stack.append(frame)
        event = {"name": key, "cat": "op", "ph": "X", "pid": self.pid,
                 "tid": 0, "args": {"op": self.op_id}}
        try:
            yield event
        finally:
            dur = self._finish(frame, "op", "bench", False)
            event["ts"] = frame[0] / 1e3
            event["dur"] = dur / 1e3
            event["args"]["dur_ns"] = dur
            event["args"]["self_ns"] = {
                layer: self.self_ns[layer] - before[layer]
                for layer in LAYERS if self.self_ns[layer] != before[layer]
            }
            self.chrome_events.append(event)

    def chrome_trace(self) -> list[dict]:
        """Trace events for this process: a name record, then every kept
        span in start order (Chrome trace-event format, microseconds)."""
        meta = [
            {"name": "process_name", "ph": "M", "pid": self.pid, "tid": 0,
             "args": {"name": self.process_name}},
            {"name": "process_sort_index", "ph": "M", "pid": self.pid,
             "tid": 0, "args": {"sort_index": self.pid}},
        ]
        return meta + sorted(self.chrome_events, key=lambda e: e["ts"])
