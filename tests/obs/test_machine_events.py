"""Integration: the machine/protocol/network publish the right events."""

from __future__ import annotations

from repro.coherence.costs import CostModel
from repro.coherence.protocol import AccessKind
from repro.machine.config import MachineConfig
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_X,
    EV_BARRIER,
    EV_DIRECTIVE,
    EV_LOCK,
    EV_REF,
    EV_UNLOCK,
)
from repro.machine.machine import Machine
from repro.obs.events import EventBus, EventKind

BASE = 0x1000_0000
COST = CostModel()


def config(nodes=2, **kw):
    return MachineConfig(num_nodes=nodes, cache_size=4096, block_size=32,
                         assoc=2, **kw)


def collect(kinds, kernel, nodes=2):
    bus = EventBus()
    events = []
    bus.subscribe(kinds, events.append)
    result = Machine(config(nodes), bus=bus).run(kernel)
    return events, result


class TestAccessEvents:
    def test_hits_and_misses_published_with_pc(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 7)
                yield (EV_REF, 0, BASE, False, 8)

        events, _ = collect((EventKind.ACCESS,), kernel)
        assert [e.result.kind for e in events] == [AccessKind.READ_MISS,
                                                   AccessKind.HIT]
        assert [e.pc for e in events] == [7, 8]
        assert events[0].t == 0
        assert events[0].result.cycles == COST.miss_from_memory()

    def test_sentinel_refs_publish_nothing(self):
        def kernel(nid):
            yield (EV_REF, 5, -1, False, -1)

        events, _ = collect((EventKind.ACCESS,), kernel)
        assert events == []

    def test_subscribing_mid_run_takes_effect_at_the_next_event(self):
        def kernel(nid):
            for epoch in range(3):
                yield (EV_REF, 1, BASE + 64 * nid, epoch == 1, epoch)
                yield (EV_BARRIER, 0, 10 + epoch)

        bus = EventBus()
        seen = []
        tokens = {}

        def on_barrier(ev):
            if ev.epoch == 0:  # start listening once epoch 0 is over
                tokens["access"] = bus.subscribe((EventKind.ACCESS,), on_access)

        def on_access(ev):
            seen.append((ev.epoch, ev.node))
            if len(seen) == 2:  # both epoch-1 accesses seen: stop
                bus.unsubscribe(tokens["access"])

        bus.subscribe((EventKind.BARRIER,), on_barrier)
        Machine(config(), bus=bus).run(kernel)
        assert sorted(seen) == [(1, 0), (1, 1)]


class TestLockEvents:
    def test_uncontended_lock_records_pc(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_LOCK, 0, 0x40, 11)
                yield (EV_UNLOCK, 0, 0x40, 12)

        events, _ = collect(
            (EventKind.LOCK_ACQUIRE, EventKind.LOCK_CONTEND,
             EventKind.LOCK_RELEASE), kernel)
        assert [(e.kind, e.pc, e.wait) for e in events] == [
            (EventKind.LOCK_ACQUIRE, 11, 0),
            (EventKind.LOCK_RELEASE, 12, 0),
        ]

    def test_contended_lock_measures_wait_and_preserves_pc(self):
        # Node 0 grabs the lock at t=0 and holds it while computing; node 1
        # arrives at t=10 and must wait for the hand-off.
        def kernel(nid):
            if nid == 0:
                yield (EV_LOCK, 0, 0x40, 1)
                yield (EV_REF, 500, -1, False, -1)
                yield (EV_UNLOCK, 0, 0x40, 2)
            else:
                yield (EV_REF, 10, -1, False, -1)
                yield (EV_LOCK, 0, 0x40, 3)
                yield (EV_UNLOCK, 0, 0x40, 4)

        events, _ = collect(
            (EventKind.LOCK_ACQUIRE, EventKind.LOCK_CONTEND), kernel)
        contend = [e for e in events if e.kind is EventKind.LOCK_CONTEND]
        assert [(e.node, e.pc) for e in contend] == [(1, 3)]
        handoff = [e for e in events
                   if e.kind is EventKind.LOCK_ACQUIRE and e.node == 1]
        assert len(handoff) == 1
        # Holder released at lock_cycles + 500 compute; waiter enqueued at 10.
        release_t = COST.compute_cycles * 500 + 40
        assert handoff[0].wait == release_t - 10
        assert handoff[0].t == release_t
        assert handoff[0].pc == 3

    def test_fifo_handoff_order(self):
        """Three waiters are granted in arrival order (deque semantics)."""
        def kernel(nid):
            yield (EV_REF, nid * 3, -1, False, -1)  # stagger arrivals
            yield (EV_LOCK, 0, 0x40, nid)
            yield (EV_REF, 100, -1, False, -1)
            yield (EV_UNLOCK, 0, 0x40, nid)

        events, _ = collect((EventKind.LOCK_ACQUIRE,), kernel, nodes=4)
        assert [e.node for e in events] == [0, 1, 2, 3]


class TestDirectiveAndBarrierEvents:
    def test_directive_event_counts_distinct_blocks(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_DIRECTIVE, 0, DIR_CHECK_OUT_X,
                       [BASE, BASE + 4, BASE + 32], 5)
                yield (EV_DIRECTIVE, 0, DIR_CHECK_IN, [BASE], 6)

        events, _ = collect((EventKind.DIRECTIVE,), kernel)
        assert [(e.dkind, e.blocks, e.pc) for e in events] == [
            (DIR_CHECK_OUT_X, 2, 5), (DIR_CHECK_IN, 1, 6)]
        assert events[0].cycles > 0

    def test_barrier_event_matches_result(self):
        def kernel(nid):
            yield (EV_REF, 10 + nid, -1, False, -1)
            yield (EV_BARRIER, 0, 42)

        events, result = collect((EventKind.BARRIER,), kernel)
        assert len(events) == 1
        ev = events[0]
        assert (ev.epoch, ev.vt) == (0, 11)
        assert ev.node_pcs == {0: 42, 1: 42}
        assert ev.resume == 11 + COST.barrier_cycles
        assert result.extra["barrier_vts"] == [11]

    def test_node_done_published_per_node(self):
        def kernel(nid):
            yield (EV_REF, nid + 1, -1, False, -1)

        events, _ = collect((EventKind.NODE_DONE,), kernel)
        assert sorted(e.node for e in events) == [0, 1]


class TestProtocolEvents:
    def test_recall_event_on_dirty_read_miss(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 1)  # own it dirty
                yield (EV_BARRIER, 0, 2)
            else:
                yield (EV_BARRIER, 0, 2)
                yield (EV_REF, 0, BASE, False, 3)  # forces a recall

        events, result = collect((EventKind.RECALL,), kernel)
        assert result.recalls == 1
        assert len(events) == 1
        assert (events[0].node, events[0].owner) == (1, 0)
        assert events[0].dirty and not events[0].exclusive

    def test_trap_event_when_many_sharers_invalidated(self):
        def kernel(nid):
            yield (EV_REF, 0, BASE, False, 1)  # everyone shares the block
            yield (EV_BARRIER, 0, 2)
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 3)  # write fault -> trap

        events, result = collect((EventKind.TRAP,), kernel, nodes=3)
        assert result.sw_traps == 1
        assert len(events) == 1
        assert events[0].node == 0
        assert events[0].copies == 2  # the two other sharers
        assert events[0].upgrade

    def test_message_events_sum_to_traffic(self):
        def kernel(nid):
            yield (EV_REF, 0, BASE + 64 * nid, True, 1)

        events, result = collect((EventKind.MESSAGE,), kernel)
        assert sum(e.count for e in events) == result.total_messages
        by_kind = {}
        for e in events:
            by_kind[e.msg] = by_kind.get(e.msg, 0) + e.count
        assert by_kind == result.traffic

    def test_message_events_carry_requester_epoch_and_clock(self):
        def kernel(nid):
            yield (EV_REF, 0, BASE + 64 * nid, True, 1)
            yield (EV_BARRIER, 0, 2)
            yield (EV_REF, 0, BASE + 64 * (1 - nid), False, 3)

        events, _ = collect((EventKind.MESSAGE,), kernel)
        # Demand traffic is stamped with the requesting node and a valid
        # clock; epoch advances across the barrier.
        assert {e.node for e in events} == {0, 1}
        assert all(e.t >= 0 for e in events)
        assert {e.epoch for e in events} == {0, 1}
        epoch1 = [e for e in events if e.epoch == 1]
        assert epoch1, "post-barrier misses must be tagged with epoch 1"
        # Per-node totals reconcile with the run total.
        per_node = {}
        for e in events:
            per_node[e.node] = per_node.get(e.node, 0) + e.count
        _, result = collect((EventKind.MESSAGE,), kernel)
        assert sum(per_node.values()) == result.total_messages


class TestTransactionIds:
    def test_miss_trap_recall_messages_share_txn(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 1)  # own the block dirty
                yield (EV_BARRIER, 0, 2)
            else:
                yield (EV_BARRIER, 0, 2)
                yield (EV_REF, 0, BASE, False, 3)  # recall from node 0

        events, _ = collect(
            (EventKind.ACCESS, EventKind.RECALL, EventKind.MESSAGE), kernel
        )
        accesses = [e for e in events if e.kind is EventKind.ACCESS]
        misses = [e for e in accesses if e.result.kind is not AccessKind.HIT]
        assert all(e.result.txn >= 0 for e in misses)
        txns = [e.result.txn for e in misses]
        assert len(set(txns)) == len(txns), "txn ids are unique per miss"
        recall = next(e for e in events if e.kind is EventKind.RECALL)
        recalled_access = next(
            e for e in accesses
            if e.node == 1 and e.result.kind is AccessKind.READ_MISS
        )
        assert recall.txn == recalled_access.result.txn
        assert recall.t == recalled_access.t
        # Every message of that transaction carries the same id.
        chain_msgs = [
            e for e in events
            if e.kind is EventKind.MESSAGE and e.txn == recall.txn
        ]
        assert chain_msgs and all(e.node == 1 for e in chain_msgs)

    def test_trap_event_names_invalidated_holders(self):
        def kernel(nid):
            yield (EV_REF, 0, BASE, False, 1)  # everyone shares
            yield (EV_BARRIER, 0, 2)
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 3)  # write fault -> trap

        events, _ = collect((EventKind.ACCESS, EventKind.TRAP), kernel,
                            nodes=3)
        trap = next(e for e in events if e.kind is EventKind.TRAP)
        assert trap.holders == (1, 2)  # requester excluded, sorted
        assert trap.txn >= 0
        fault = next(
            e for e in events
            if e.kind is EventKind.ACCESS
            and e.result.kind is AccessKind.WRITE_FAULT
        )
        assert fault.result.txn == trap.txn

    def test_flush_messages_have_no_txn(self):
        # Trace-mode barrier flushes happen outside any transaction: their
        # traffic is stamped with the flushing node but txn == -1.
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 1)
            yield (EV_BARRIER, 0, 2)  # flushes node 0's dirty block

        bus = EventBus()
        events = []
        bus.subscribe((EventKind.MESSAGE,), events.append)
        Machine(config(), bus=bus, flush_at_barrier=True).run(kernel)
        flushes = [e for e in events if e.txn == -1]
        assert flushes and all(e.node == 0 for e in flushes)
        assert all(e.t >= 0 for e in flushes)


class TestBarrierNodeClocks:
    def test_node_clocks_expose_arrivals_and_slack(self):
        def kernel(nid):
            yield (EV_REF, 10 + 5 * nid, -1, False, -1)  # stagger arrivals
            yield (EV_BARRIER, 0, 1)

        events, _ = collect((EventKind.BARRIER,), kernel)
        ev = events[0]
        arrivals = ev.node_clocks
        assert set(arrivals) == {0, 1}
        assert ev.vt == max(arrivals.values())
        compute = COST.compute_cycles
        assert arrivals[1] - arrivals[0] == 5 * compute  # node 0's slack


class TestEpochTimes:
    def test_trailing_partial_epoch_reported(self):
        def kernel(nid):
            yield (EV_REF, 10, -1, False, -1)
            yield (EV_BARRIER, 0, 1)
            yield (EV_REF, 7, -1, False, -1)  # work after the last barrier

        _, result = collect((), kernel)
        times = result.epoch_times()
        assert len(times) == 2
        assert sum(times) == result.cycles
        assert times[1] == result.cycles - result.extra["barrier_vts"][-1]

    def test_run_ending_on_barrier_trails_only_the_resume_cost(self):
        def kernel(nid):
            yield (EV_REF, 10, -1, False, -1)
            yield (EV_BARRIER, 0, 1)

        _, result = collect((), kernel)
        times = result.epoch_times()
        # The released nodes still pay the barrier resume cost, so the
        # trailing partial epoch is exactly that overhead and nothing else.
        assert times == [result.extra["barrier_vts"][0], COST.barrier_cycles]
        assert sum(times) == result.cycles

    def test_epoch_times_without_barriers_is_whole_run(self):
        def kernel(nid):
            yield (EV_REF, 10 + nid, -1, False, -1)

        _, result = collect((), kernel)
        assert result.epoch_times() == [result.cycles]
