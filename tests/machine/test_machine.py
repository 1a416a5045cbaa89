"""Tests for the clock-interleaved multiprocessor machine."""

from __future__ import annotations

import pytest

from repro.coherence.costs import CostModel
from repro.errors import BarrierError, MachineError
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
from repro.obs.events import EventKind
from repro.trace.collector import TraceCollector
from repro.trace.records import MissKind, MissRecord

BASE = 0x1000_0000
COST = CostModel()


def config(nodes=2, **kw):
    return MachineConfig(num_nodes=nodes, cache_size=4096, block_size=32, assoc=2, **kw)


class TestBasicExecution:
    def test_empty_kernels(self):
        m = Machine(config())
        result = m.run(lambda nid: iter(()))
        assert result.cycles == 0
        assert result.epochs == 0

    def test_single_read_costs_miss(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 1)

        result = Machine(config()).run(kernel)
        assert result.stats.read_misses == 1
        assert result.cycles == COST.miss_from_memory()

    def test_compute_cycles_charged(self):
        def kernel(nid):
            yield (EV_REF, 7, -1, False, -1)  # pure compute sentinel

        result = Machine(config(nodes=1)).run(kernel)
        assert result.cycles == 7 * COST.compute_cycles

    def test_sentinel_ref_generates_no_access(self):
        def kernel(nid):
            yield (EV_REF, 3, -1, False, -1)

        result = Machine(config()).run(kernel)
        assert result.stats.accesses == 0

    def test_cycles_is_max_over_nodes(self):
        def kernel(nid):
            yield (EV_REF, 10 if nid == 0 else 25, -1, False, -1)

        result = Machine(config()).run(kernel)
        assert result.cycles == 25


class TestInterleaving:
    def test_min_clock_node_goes_first(self):
        """Node 1 computes less before its write, so it wins the race."""
        order = []

        def kernel(nid):
            compute = 5 if nid == 1 else 50
            yield (EV_REF, compute, BASE, True, 1)

        machine = Machine(config())
        machine.bus.subscribe(
            (EventKind.ACCESS,), lambda ev: order.append(ev.node)
        )
        machine.run(kernel)
        assert order == [1, 0]


class TestBarriers:
    def test_epoch_counting(self):
        def kernel(nid):
            yield (EV_BARRIER, 0, 10)
            yield (EV_BARRIER, 0, 11)

        result = Machine(config()).run(kernel)
        assert result.epochs == 2

    def test_barrier_synchronises_clocks(self):
        seen = {}

        def kernel(nid):
            yield (EV_REF, 100 if nid == 0 else 1, -1, False, -1)
            yield (EV_BARRIER, 0, 10)
            yield (EV_REF, 0, -1, False, -1)
            seen[nid] = True

        result = Machine(config()).run(kernel)
        # Both nodes resumed from vt=100 plus barrier cost.
        assert result.cycles == 100 + COST.barrier_cycles
        assert seen == {0: True, 1: True}

    def test_listener_sees_barrier_vt_and_pcs(self):
        events = []

        def kernel(nid):
            yield (EV_REF, 10 + nid, -1, False, -1)
            yield (EV_BARRIER, 0, 42)

        machine = Machine(config())
        machine.bus.subscribe(
            (EventKind.BARRIER,),
            lambda ev: events.append((ev.epoch, ev.vt, dict(ev.node_pcs))),
        )
        machine.run(kernel)
        assert events == [(0, 11, {0: 42, 1: 42})]

    def test_unbalanced_barrier_deadlocks(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_BARRIER, 0, 1)

        with pytest.raises(BarrierError):
            Machine(config()).run(kernel)

    def test_flush_at_barrier(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 1)
            yield (EV_BARRIER, 0, 1)
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 2)

        m = Machine(config(), flush_at_barrier=True)
        result = m.run(kernel)
        assert result.stats.read_misses == 2  # re-missed after flush

        m2 = Machine(config(), flush_at_barrier=False)
        result2 = m2.run(kernel)
        assert result2.stats.read_misses == 1


class TestDirectives:
    def test_checkout_collapses_to_blocks(self):
        # 8 consecutive doubles = 2 blocks of 32 bytes.
        addrs = [BASE + 8 * i for i in range(8)]

        def kernel(nid):
            if nid == 0:
                yield (EV_DIRECTIVE, 0, DIR_CHECK_OUT_X, addrs, 1)

        result = Machine(config()).run(kernel)
        assert result.stats.checkouts == 2

    def test_checkin_then_write_avoids_trap(self):
        def kernel(nid):
            yield (EV_REF, 0, BASE, False, 1)  # both nodes share the block
            yield (EV_BARRIER, 0, 2)
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 3)

        plain = Machine(config()).run(kernel)
        assert plain.sw_traps == 1

        def kernel_cico(nid):
            yield (EV_REF, 0, BASE, False, 1)
            yield (EV_DIRECTIVE, 0, DIR_CHECK_IN, [BASE], 2)
            yield (EV_BARRIER, 0, 3)
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 4)

        cico = Machine(config()).run(kernel_cico)
        assert cico.sw_traps == 0


class TestLocks:
    def test_uncontended_lock(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_LOCK, 0, BASE, 1)
                yield (EV_UNLOCK, 0, BASE, 2)

        result = Machine(config()).run(kernel)
        assert result.cycles == config().lock_cycles

    def test_contended_lock_serialises(self):
        log = []

        def kernel(nid):
            yield (EV_LOCK, nid, BASE, 1)  # node 0 arrives first (compute=0)
            yield (EV_REF, 10, -1, False, -1)
            log.append(nid)
            yield (EV_UNLOCK, 0, BASE, 2)

        Machine(config()).run(kernel)
        assert log == [0, 1]

    def test_unlock_without_hold_raises(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_UNLOCK, 0, BASE, 1)

        with pytest.raises(MachineError):
            Machine(config()).run(kernel)

    def test_program_ending_with_held_lock_raises(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_LOCK, 0, BASE, 1)

        with pytest.raises(MachineError):
            Machine(config()).run(kernel)


class TestListenerMisses:
    def test_listener_sees_misses_not_hits(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 7)
                yield (EV_REF, 0, BASE, False, 8)  # hit: not reported
                yield (EV_REF, 0, BASE, True, 9)  # write fault

        machine = Machine(config())
        collector = TraceCollector(num_nodes=2)
        collector.subscribe(machine.bus)
        machine.run(kernel)
        assert collector.finish().misses == [
            MissRecord(MissKind.READ_MISS, BASE, 7, 0, 0),
            MissRecord(MissKind.WRITE_FAULT, BASE, 9, 0, 0),
        ]
