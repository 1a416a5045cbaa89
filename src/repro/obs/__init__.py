"""``repro.obs`` — observability for the simulated machine.

The simulator's publishers (machine, protocol, network) emit structured
events onto an :class:`~repro.obs.events.EventBus`; this package turns
those events into metrics, per-epoch timelines, Chrome traces and JSONL
manifests.  See ``docs/observability.md`` for a walkthrough.
"""

from repro.obs.events import (
    AccessEvent,
    BarrierEvent,
    DirectiveEvent,
    EventBus,
    EventKind,
    LockEvent,
    MessageEvent,
    NodeDoneEvent,
    RecallEvent,
    TrapEvent,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsError, MetricsRegistry
from repro.obs.timeline import EpochSample, EpochTimeline

# session/export pull in repro.coherence (which itself publishes onto the
# bus), so they are imported lazily to keep repro.obs.events importable
# from anywhere in the simulator without cycles.
_LAZY = {
    "Observation": "repro.obs.session",
    "Observer": "repro.obs.session",
    "chrome_trace": "repro.obs.export",
    "manifest_records": "repro.obs.export",
    "read_manifest": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "write_manifest": "repro.obs.export",
    "SourceMap": "repro.obs.attrib",
    "StallLedger": "repro.obs.attrib",
    "attribution_report": "repro.obs.attrib",
    "folded_stacks": "repro.obs.attrib",
    "profile_trace": "repro.obs.attrib",
    "render_profile": "repro.obs.attrib",
    "bench_workload": "repro.obs.baseline",
    "diff_benches": "repro.obs.baseline",
    "read_bench": "repro.obs.baseline",
    "write_bench": "repro.obs.baseline",
    "JsonLinesFormatter": "repro.obs.logs",
    "StructLog": "repro.obs.logs",
    "bind": "repro.obs.logs",
    "configure_logging": "repro.obs.logs",
    "get_logger": "repro.obs.logs",
    "ServiceTelemetry": "repro.obs.telemetry",
    "ServiceTracer": "repro.obs.telemetry",
    "job_phase": "repro.obs.telemetry",
    "labelled": "repro.obs.telemetry",
    "prometheus_text": "repro.obs.telemetry",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


__all__ = [
    "AccessEvent",
    "BarrierEvent",
    "Counter",
    "DirectiveEvent",
    "EpochSample",
    "EpochTimeline",
    "EventBus",
    "EventKind",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "LockEvent",
    "MessageEvent",
    "MetricsError",
    "MetricsRegistry",
    "NodeDoneEvent",
    "Observation",
    "Observer",
    "RecallEvent",
    "ServiceTelemetry",
    "ServiceTracer",
    "SourceMap",
    "StallLedger",
    "StructLog",
    "TrapEvent",
    "attribution_report",
    "bench_workload",
    "bind",
    "chrome_trace",
    "configure_logging",
    "diff_benches",
    "folded_stacks",
    "get_logger",
    "job_phase",
    "labelled",
    "manifest_records",
    "profile_trace",
    "prometheus_text",
    "read_bench",
    "read_manifest",
    "render_profile",
    "write_bench",
    "write_chrome_trace",
    "write_manifest",
]
