"""The access topics: each shared reference is published once, on the
topic its outcome names.

READ_HIT and WRITE_HIT carry plain hits, PREFETCH_HIT hits on a line whose
prefetch was in flight, and MISS read misses, write misses and write
faults.  Consumers that read only misses (the trace collector, the
Observer's metrics and the stall ledger) subscribe to MISS and are never
called for a hit.  These tests pin the partition on runs of a prefetching
variant, whose accesses include every outcome.  They also pin who reads
the hit topics: an Observer with ``include_hits``, the verifier (write
and prefetched hits only), and a profiling ledger only while one of its
check-outs is still unreferenced (through ACCESS, the subscription to
all four topics).
"""

from __future__ import annotations

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.coherence.protocol import AccessKind
from repro.harness.runner import run_program, trace_program
from repro.machine.config import MachineConfig
from repro.machine.events import EV_REF
from repro.machine.machine import Machine
from repro.obs.events import (
    ACCESS_TOPICS,
    AccessEvent,
    EventBus,
    EventKind,
    access_topic,
)
from repro.obs.session import Observer
from repro.workloads.base import get_workload

HIT_TOPICS = (EventKind.READ_HIT, EventKind.WRITE_HIT, EventKind.PREFETCH_HIT)


class RecordingBus(EventBus):
    """An event bus that also keeps every event it is asked to publish,
    subscribed or not, with the topic it was published on."""

    __slots__ = ("published",)

    def __init__(self) -> None:
        super().__init__()
        self.published: list = []

    def publish(self, event, kind=None) -> None:
        topic = kind
        if topic is None:
            topic = event.kind
            if topic is EventKind.ACCESS:
                topic = access_topic(event)
        self.published.append((topic, event))
        super().publish(event, kind)


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


def _topics(published) -> set:
    return {topic for topic, _ev in published}


def test_miss_carries_every_non_hit_access_in_order(prefetching):
    """Every access once, on its outcome's topic: a tap on ACCESS sees
    them all in publication order, and MISS exactly the ones that are
    not hits, in the same order."""
    program, spec = prefetching
    bus = RecordingBus()
    every: list = []
    misses: list = []
    bus.subscribe((EventKind.ACCESS,), every.append)
    bus.subscribe((EventKind.MISS,), misses.append)
    run_program(program, spec.config, spec.params_fn,
                observer=Observer(bus=bus, critpath=True), verify=True)
    accesses = [(topic, ev) for topic, ev in bus.published
                if topic in ACCESS_TOPICS]
    assert all(type(ev) is AccessEvent and ev.kind is EventKind.ACCESS
               for _topic, ev in accesses)
    # the run exercises every outcome, prefetched hits included
    details = {(ev.result.kind, ev.result.detail) for _t, ev in accesses}
    assert (AccessKind.HIT, "") in details
    assert (AccessKind.HIT, "prefetched") in details
    assert {kind for kind, _detail in details} == set(AccessKind)
    # each access is published once, on the topic its outcome names
    assert every == [ev for _topic, ev in accesses]
    for topic, ev in accesses:
        assert topic is access_topic(ev)
        if topic in (EventKind.READ_HIT, EventKind.WRITE_HIT):
            assert ev.result.detail == "" and ev.write == (
                topic is EventKind.WRITE_HIT)
    want = [ev for ev in every if ev.result.kind is not AccessKind.HIT]
    assert misses == want and len(misses) > 0


@pytest.mark.parametrize("flags", [{}, {"critpath": True}],
                         ids=["metrics", "critpath"])
def test_observer_publishes_no_access_event(prefetching, flags):
    """Neither the Observer's metrics nor a critical-path ledger reads
    hits, so the machine builds no event for a hit, only for the misses;
    and the ledger's message books come from the network, so nothing
    builds a MessageEvent either."""
    published = _observed_run(*prefetching, verify=False, **flags)
    assert EventKind.MISS in _topics(published)
    assert not _topics(published) & {*HIT_TOPICS, EventKind.MESSAGE}


def test_profile_only_plain_run_publishes_no_access_event(prefetching):
    """Without a check-out the profiling ledger never waits on a hit."""
    _program, spec = prefetching
    published = _observed_run(spec.program, spec, verify=False,
                              profile=True)
    assert EventKind.MISS in _topics(published)
    assert not _topics(published) & set(HIT_TOPICS)


def test_verifier_reads_no_plain_read_hit(prefetching):
    """The verifier reads write hits, prefetched hits and misses; a plain
    read hit changes no coherence state, so it builds no event."""
    published = _observed_run(*prefetching, critpath=True)
    topics = _topics(published)
    assert {EventKind.WRITE_HIT, EventKind.PREFETCH_HIT,
            EventKind.MISS} <= topics
    assert EventKind.READ_HIT not in topics


def test_include_hits_reads_every_access_topic(prefetching):
    """Hit spans read the three hit topics, miss spans MISS: one span per
    access, as many as the run's hits and misses."""
    program, spec = prefetching
    bus = RecordingBus()
    observer = Observer(bus=bus, chrome=True, include_hits=True)
    run_program(program, spec.config, spec.params_fn, observer=observer)
    assert _topics(bus.published) >= set(ACCESS_TOPICS)
    spans = [ev for ev in observer.observation.trace_events
             if ev.get("cat") == "mem"]
    accesses = [ev for topic, ev in bus.published if topic in ACCESS_TOPICS]
    assert [span["ts"] for span in spans] == [ev.t for ev in accesses]


class _AuditedBus(RecordingBus):
    """Checks at every publish that ACCESS is subscribed exactly while the
    observer's ledger holds a checked-out pair not referenced yet."""

    __slots__ = ("observer", "windows")

    def __init__(self) -> None:
        super().__init__()
        self.observer = None
        self.windows = 0  # times ACCESS got a subscriber

    def publish(self, event, kind=None) -> None:
        ledger = self.observer.ledger
        unreferenced = [pair for pair, used in
                        ledger._audit.outstanding.items() if not used]
        assert (EventKind.ACCESS in self.subscribed) == bool(unreferenced)
        reading = EventKind.ACCESS in self.subscribed
        super().publish(event, kind)
        self.windows += EventKind.ACCESS in self.subscribed and not reading


def test_ledger_reads_access_only_while_a_checkout_is_unreferenced(
        prefetching):
    program, spec = prefetching
    bus = _AuditedBus()
    observer = bus.observer = Observer(bus=bus, profile=True)
    run_program(program, spec.config, spec.params_fn, observer=observer)
    hits_read = [ev for topic, ev in bus.published if topic in HIT_TOPICS]
    misses = [ev for topic, ev in bus.published if topic is EventKind.MISS]
    assert bus.windows > 1
    # the windows hold some of the run's hits, not all of them
    hits = observer.observation.metric("accesses.hit")
    assert 0 < len(hits_read) < hits
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
    builds no event for the hit."""
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
    assert bus.published == [(EventKind.MISS, ev) for ev in misses]
