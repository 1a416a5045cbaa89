"""The MISS topic: a copy of every ACCESS event whose outcome is not a hit.

Consumers that read only misses (the trace collector, and the stall
ledger when only the critical path is asked for) subscribe to MISS and are
never called for a hit.  These tests pin the contract on an observed,
verified run of a prefetching variant, whose accesses include every
outcome: plain and prefetched hits, read and write misses, and write
faults.
"""

from __future__ import annotations

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.coherence.protocol import AccessKind
from repro.harness.runner import run_program, trace_program
from repro.machine.config import MachineConfig
from repro.machine.events import EV_REF
from repro.machine.machine import Machine
from repro.obs.events import AccessEvent, EventBus, EventKind, MissEvent
from repro.obs.session import Observer
from repro.workloads.base import get_workload


class RecordingBus(EventBus):
    """An event bus that also keeps every event it is asked to publish,
    subscribed or not."""

    __slots__ = ("published",)

    def __init__(self) -> None:
        super().__init__()
        self.published: list = []

    def publish(self, event) -> None:
        self.published.append(event)
        super().publish(event)


@pytest.fixture(scope="module")
def prefetching():
    """mp3d at test size, annotated by Cachier with prefetches."""
    spec = get_workload("mp3d", nparticles=32, ncells=16, steps=2,
                        num_nodes=4)
    trace = trace_program(spec.program, spec.config, spec.params_fn)
    annotated = Cachier(
        spec.program, trace, params_fn=spec.params_fn,
        cache_size=spec.cachier_cache_size,
    ).annotate(Policy.PERFORMANCE, prefetch=True)
    return annotated.program, spec


def _observed_verified_run(prefetching, **observer_flags) -> list:
    program, spec = prefetching
    bus = RecordingBus()
    run_program(program, spec.config, spec.params_fn,
                observer=Observer(bus=bus, **observer_flags), verify=True)
    return bus.published


def test_miss_carries_every_non_hit_access_in_order(prefetching):
    published = _observed_verified_run(prefetching, critpath=True)
    accesses = [ev for ev in published if ev.kind is EventKind.ACCESS]
    misses = [ev for ev in published if ev.kind is EventKind.MISS]
    details = {(ev.result.kind, ev.result.detail) for ev in accesses}
    # the run exercises every outcome, prefetched hits included
    assert (AccessKind.HIT, "") in details
    assert (AccessKind.HIT, "prefetched") in details
    assert {kind for kind, _detail in details} == set(AccessKind)

    assert all(type(ev) is AccessEvent for ev in accesses)
    assert all(type(ev) is MissEvent for ev in misses)
    want = [ev for ev in accesses if ev.result.kind is not AccessKind.HIT]
    assert len(misses) == len(want) > 0
    # same order, same field values (the result object itself is shared)
    assert [tuple(ev) for ev in misses] == [tuple(ev) for ev in want]
    # each MISS follows its reference's ACCESS directly
    for i, ev in enumerate(published):
        if ev.kind is EventKind.MISS:
            before = published[i - 1]
            assert before.kind is EventKind.ACCESS
            assert tuple(before) == tuple(ev)


def test_no_miss_subscriber_publishes_no_miss(prefetching):
    # the Observer's metrics, the stall ledger of a profiling observer and
    # the invariant checker all read ACCESS; none of them subscribes to MISS
    published = _observed_verified_run(prefetching, profile=True)
    kinds = {ev.kind for ev in published}
    assert EventKind.ACCESS in kinds
    assert EventKind.MISS not in kinds
    assert not any(isinstance(ev, MissEvent) for ev in published)


def test_miss_alone_publishes_no_access():
    """A bus with only a MISS subscriber gets the misses and the machine
    builds no ACCESS event at all."""
    base = 0x1000_0000

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 0, base, False, 1)  # read miss
            yield (EV_REF, 0, base, False, 2)  # hit
            yield (EV_REF, 0, base, True, 3)  # write fault

    bus = RecordingBus()
    misses: list = []
    bus.subscribe((EventKind.MISS,), misses.append)
    config = MachineConfig(num_nodes=2, cache_size=4096, block_size=32,
                           assoc=2)
    Machine(config, bus=bus).run(kernel)
    assert [(ev.pc, ev.result.kind) for ev in misses] == [
        (1, AccessKind.READ_MISS), (3, AccessKind.WRITE_FAULT),
    ]
    assert bus.published == misses
