"""Runs that share one bus and one registry leave nothing subscribed.

``Observer`` invites a caller to share an :class:`EventBus` and a
:class:`MetricsRegistry` across runs.  Each run must then unsubscribe
everything it put on the bus — the invariant checker, the trace
collector and the finalized observer — so a second run is neither
counted twice nor checked by the first run's checker.
"""

from __future__ import annotations

from repro.harness.runner import run_program, trace_program
from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import Observer
from repro.workloads.base import get_workload

MP3D = dict(nparticles=32, ncells=16, steps=2, num_nodes=4)


def test_two_verified_runs_on_one_bus_and_registry():
    spec = get_workload("mp3d", **MP3D)
    bus, registry = EventBus(), MetricsRegistry()
    results = []
    for _ in range(2):
        observer = Observer(bus=bus, registry=registry)
        result, _ = run_program(spec.program, spec.config, spec.params_fn,
                                observer=observer, verify=True)
        assert result.extra["verify_report"].ok
        assert not bus.active  # the checker and the observer detached
        results.append(result)
    first, second = results
    assert first.cycles == second.cycles and first.sw_traps > 0
    metrics = second.obs.metrics
    assert metrics["messages"] == 2 * first.total_messages
    assert metrics["traps"] == 2 * first.sw_traps
    assert metrics["accesses.hit"] == 2 * first.obs.metrics["accesses.hit"]


def test_trace_run_leaves_the_bus_empty():
    spec = get_workload("mp3d", **MP3D)
    bus = EventBus()
    trace_program(spec.program, spec.config, spec.params_fn,
                  observer=Observer(bus=bus), verify=True)
    assert not bus.active
