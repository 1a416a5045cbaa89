"""Event bus unit tests: subscribe, unsubscribe, the subscribed view,
dispatch order."""

from __future__ import annotations

from repro.obs.events import (
    BarrierEvent,
    EventBus,
    EventKind,
    LockEvent,
    MessageEvent,
    TrapEvent,
)


def barrier(epoch=0, vt=100):
    return BarrierEvent(epoch=epoch, vt=vt, node_pcs={0: 1}, resume=vt + 100)


class TestSubscription:
    def test_fresh_bus_is_inactive(self):
        bus = EventBus()
        assert not bus.active
        assert EventKind.ACCESS not in bus.subscribed

    def test_subscribe_activates_only_requested_kinds(self):
        bus = EventBus()
        bus.subscribe((EventKind.BARRIER,), lambda e: None)
        assert bus.active
        assert EventKind.BARRIER in bus.subscribed
        assert EventKind.ACCESS not in bus.subscribed

    def test_subscribe_all_kinds_with_none(self):
        bus = EventBus()
        bus.subscribe(None, lambda e: None)
        for kind in EventKind:
            assert kind in bus.subscribed

    def test_unsubscribe_deactivates(self):
        bus = EventBus()
        token = bus.subscribe((EventKind.BARRIER, EventKind.TRAP), lambda e: None)
        bus.unsubscribe(token)
        assert not bus.active
        assert EventKind.BARRIER not in bus.subscribed
        assert EventKind.TRAP not in bus.subscribed

    def test_unsubscribe_leaves_other_subscribers(self):
        bus = EventBus()
        seen = []
        keep = bus.subscribe((EventKind.BARRIER,), seen.append)
        drop = bus.subscribe((EventKind.BARRIER,), lambda e: seen.append("dropped"))
        bus.unsubscribe(drop)
        bus.publish(barrier())
        assert seen == [barrier()]
        assert bus.subscribers(EventKind.BARRIER) == 1
        bus.unsubscribe(keep)

    def test_unsubscribe_unknown_token_is_noop(self):
        bus = EventBus()
        bus.subscribe((EventKind.TRAP,), lambda e: None)
        bus.unsubscribe(999)
        assert EventKind.TRAP in bus.subscribed


class TestDispatch:
    def test_publish_reaches_only_matching_kind(self):
        bus = EventBus()
        traps, messages = [], []
        bus.subscribe((EventKind.TRAP,), traps.append)
        bus.subscribe((EventKind.MESSAGE,), messages.append)
        ev = TrapEvent(node=1, block=7, copies=3, upgrade=False)
        bus.publish(ev)
        assert traps == [ev]
        assert messages == []

    def test_dispatch_in_subscription_order(self):
        bus = EventBus()
        order = []
        bus.subscribe((EventKind.BARRIER,), lambda e: order.append("first"))
        bus.subscribe((EventKind.BARRIER,), lambda e: order.append("second"))
        bus.publish(barrier())
        assert order == ["first", "second"]

    def test_publish_without_subscribers_is_silent(self):
        EventBus().publish(MessageEvent(msg=None, count=1))  # no error

    def test_unsubscribe_during_dispatch_is_safe(self):
        bus = EventBus()
        seen = []
        tokens = {}

        def self_removing(event):
            seen.append(event)
            bus.unsubscribe(tokens["self"])

        tokens["self"] = bus.subscribe((EventKind.BARRIER,), self_removing)
        bus.subscribe((EventKind.BARRIER,), lambda e: seen.append("other"))
        bus.publish(barrier())
        bus.publish(barrier(epoch=1))
        # the self-removing handler saw only the first event
        assert seen == [barrier(), "other", "other"]

    def test_lock_event_kind_is_an_instance_field(self):
        acquire = LockEvent(kind=EventKind.LOCK_ACQUIRE, node=0, addr=4,
                            pc=1, t=0)
        release = LockEvent(kind=EventKind.LOCK_RELEASE, node=0, addr=4,
                            pc=2, t=9)
        bus = EventBus()
        seen = []
        bus.subscribe((EventKind.LOCK_ACQUIRE,), seen.append)
        bus.publish(acquire)
        bus.publish(release)  # nobody listens for releases
        assert seen == [acquire]
