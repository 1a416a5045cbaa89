"""The MISS topic: a copy of every ACCESS event whose outcome is not a hit.

Consumers that read only misses (the trace collector, the Observer's
metrics and the stall ledger) subscribe to MISS and are never called for
a hit.  These tests pin the contract on runs of a prefetching variant,
whose accesses include every outcome: plain and prefetched hits, read and
write misses, and write faults.  They also pin who still reads ACCESS:
the verifier, an Observer with ``include_hits``, and a profiling ledger
only while one of its check-outs is still unreferenced.
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


def _observed_run(program, spec, bus=None, verify=True,
                  **observer_flags) -> list:
    bus = bus if bus is not None else RecordingBus()
    run_program(program, spec.config, spec.params_fn,
                observer=Observer(bus=bus, **observer_flags), verify=verify)
    return bus.published


def _observed_verified_run(prefetching, **observer_flags) -> list:
    return _observed_run(*prefetching, **observer_flags)


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


@pytest.mark.parametrize("flags", [{}, {"critpath": True}],
                         ids=["metrics", "critpath"])
def test_observer_publishes_no_access_event(prefetching, flags):
    """Neither the Observer's metrics nor a critical-path ledger reads
    hits, so the machine builds no AccessEvent for them."""
    published = _observed_run(*prefetching, verify=False, **flags)
    assert any(ev.kind is EventKind.MISS for ev in published)
    assert not any(ev.kind is EventKind.ACCESS for ev in published)


def test_profile_only_plain_run_publishes_no_access_event(prefetching):
    """Without a check-out the profiling ledger never waits on a hit."""
    _program, spec = prefetching
    published = _observed_run(spec.program, spec, verify=False,
                              profile=True)
    assert any(ev.kind is EventKind.MISS for ev in published)
    assert not any(ev.kind is EventKind.ACCESS for ev in published)


class _AuditedBus(RecordingBus):
    """Checks at every publish that ACCESS is subscribed exactly while the
    observer's ledger holds a checked-out pair not referenced yet."""

    __slots__ = ("observer", "windows")

    def __init__(self) -> None:
        super().__init__()
        self.observer = None
        self.windows = 0  # times ACCESS got a subscriber

    def publish(self, event) -> None:
        ledger = self.observer.ledger
        unreferenced = [pair for pair, used in
                        ledger._audit.outstanding.items() if not used]
        assert (EventKind.ACCESS in self.subscribed) == bool(unreferenced)
        reading = EventKind.ACCESS in self.subscribed
        super().publish(event)
        self.windows += EventKind.ACCESS in self.subscribed and not reading


def test_ledger_reads_access_only_while_a_checkout_is_unreferenced(
        prefetching):
    program, spec = prefetching
    bus = _AuditedBus()
    observer = bus.observer = Observer(bus=bus, profile=True)
    run_program(program, spec.config, spec.params_fn, observer=observer)
    accesses = [ev for ev in bus.published if ev.kind is EventKind.ACCESS]
    misses = [ev for ev in bus.published if ev.kind is EventKind.MISS]
    assert bus.windows > 1
    # the windows hold some of the run's hits, not all of them
    hits = observer.observation.metric("accesses.hit")
    assert 0 < sum(ev.result.kind is AccessKind.HIT for ev in accesses) < hits
    assert 0 < len(misses)
    # every epoch closes its window: nothing reads ACCESS after the run
    assert EventKind.ACCESS not in bus.subscribed
    observer.detach()
    assert not bus.active


def test_detach_drops_the_ledgers_access_subscription(prefetching):
    """Detached while its ledger reads ACCESS, an observer leaves the bus
    with no subscription of its own."""
    program, spec = prefetching
    bus = EventBus()
    observer = Observer(bus=bus, profile=True)
    left: list[set] = []

    def detach_while_reading(_ev) -> None:
        if not left and EventKind.ACCESS in bus.subscribed:
            observer.detach()
            left.append(set(bus.subscribed))

    bus.subscribe((EventKind.MESSAGE,), detach_while_reading)
    run_program(program, spec.config, spec.params_fn, observer=observer)
    assert left == [{EventKind.MESSAGE}]


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
