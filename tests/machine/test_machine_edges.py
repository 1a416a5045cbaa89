"""Machine edge cases: determinism, directive kinds, lock queues, defer."""

from __future__ import annotations

import pytest

from repro.coherence.costs import CostModel
from repro.errors import MachineError
from repro.machine.config import MachineConfig
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIR_PREFETCH_S,
    DIR_PREFETCH_X,
    EV_DIRECTIVE,
    EV_LOCK,
    EV_REF,
    EV_UNLOCK,
)
from repro.machine.machine import Machine
from repro.obs.events import EventKind

BASE = 0x1000_0000


def config(nodes=2, **kw):
    return MachineConfig(num_nodes=nodes, cache_size=4096, block_size=32,
                         assoc=2, **kw)


def run_recording_order(kernel, order: list) -> None:
    """Run ``kernel``, appending each access's node to ``order``."""
    machine = Machine(config())
    machine.bus.subscribe((EventKind.ACCESS,), lambda ev: order.append(ev.node))
    machine.run(kernel)


class TestDeterminism:
    def test_identical_runs_identical_cycles(self):
        def kernel(nid):
            for i in range(20):
                yield (EV_REF, 3 + nid, BASE + 32 * (i % 5), i % 2 == 0, i)

        a = Machine(config()).run(kernel)
        b = Machine(config()).run(kernel)
        assert a.cycles == b.cycles
        assert a.traffic == b.traffic
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_workload_runs_are_deterministic(self):
        from repro.harness.runner import run_program
        from repro.workloads.base import get_workload

        w = get_workload("mp3d", nparticles=64, ncells=32, steps=2,
                         num_nodes=4)
        r1, _ = run_program(w.program, w.config, w.params_fn)
        r2, _ = run_program(w.program, w.config, w.params_fn)
        assert r1.cycles == r2.cycles


class TestDirectiveKinds:
    @pytest.mark.parametrize(
        "kind,counter",
        [
            (DIR_CHECK_OUT_S, "checkouts"),
            (DIR_CHECK_OUT_X, "checkouts"),
            (DIR_CHECK_IN, "checkins"),
            (DIR_PREFETCH_S, "prefetches"),
            (DIR_PREFETCH_X, "prefetches"),
        ],
    )
    def test_each_kind_reaches_its_counter(self, kind, counter):
        def kernel(nid):
            if nid == 0:
                yield (EV_DIRECTIVE, 0, kind, [BASE], 1)

        result = Machine(config()).run(kernel)
        assert getattr(result.stats, counter) == 1

    def test_unknown_directive_kind_raises(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_DIRECTIVE, 0, 99, [BASE], 1)

        with pytest.raises(MachineError):
            Machine(config()).run(kernel)

    def test_unknown_event_code_raises(self):
        def kernel(nid):
            if nid == 0:
                yield (77, 0)

        with pytest.raises(MachineError):
            Machine(config()).run(kernel)

    def test_directive_skips_negative_addresses(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_DIRECTIVE, 0, DIR_CHECK_IN, [-1, BASE], 1)

        result = Machine(config()).run(kernel)
        assert result.stats.checkins == 1


class TestLockQueue:
    def test_three_way_contention_fifo(self):
        order = []

        def kernel(nid):
            yield (EV_REF, nid * 5, -1, False, -1)  # arrive staggered
            yield (EV_LOCK, 0, BASE, 1)
            order.append(nid)
            yield (EV_REF, 50, -1, False, -1)
            yield (EV_UNLOCK, 0, BASE, 2)

        Machine(config(nodes=3)).run(kernel)
        assert order == [0, 1, 2]

    def test_lock_holder_time_propagates_to_waiter(self):
        def kernel(nid):
            yield (EV_LOCK, nid, BASE, 1)
            yield (EV_REF, 100, -1, False, -1)
            yield (EV_UNLOCK, 0, BASE, 2)

        result = Machine(config()).run(kernel)
        cfg = config()
        # Node 1 waits for node 0's critical section plus both lock costs.
        assert result.cycles >= 100 * 2 + 2 * cfg.lock_cycles

    def test_reacquire_after_release(self):
        def kernel(nid):
            if nid == 0:
                for _ in range(3):
                    yield (EV_LOCK, 0, BASE, 1)
                    yield (EV_UNLOCK, 0, BASE, 2)

        result = Machine(config()).run(kernel)
        assert result.cycles == 3 * config().lock_cycles


class TestComputeDefer:
    def test_action_order_by_post_compute_clock(self):
        """A node with heavy compute before its reference must lose the
        race to a node with light compute, regardless of node ids."""
        order = []

        def kernel(nid):
            compute = [100, 7][nid]
            yield (EV_REF, compute, BASE, True, 1)

        run_recording_order(kernel, order)
        assert order == [1, 0]

    def test_interleaved_fairness(self):
        """Two equal-rate nodes alternate rather than one running ahead."""
        order = []

        def kernel(nid):
            for i in range(4):
                yield (EV_REF, 10, BASE + 32 * (nid * 4 + i), False, i)

        run_recording_order(kernel, order)
        # Neither node gets more than one access ahead.
        counts = {0: 0, 1: 0}
        for node in order:
            counts[node] += 1
            assert abs(counts[0] - counts[1]) <= 1


class TestEpochTimes:
    def test_epoch_times_partition_total(self):
        def kernel(nid):
            yield (EV_REF, 10, -1, False, -1)
            from repro.machine.events import EV_BARRIER
            yield (EV_BARRIER, 0, 1)
            yield (EV_REF, 20, -1, False, -1)

        result = Machine(config()).run(kernel)
        times = result.epoch_times()
        assert len(times) == 2
        assert sum(times) == result.cycles
        assert times[0] == 10  # barrier vt

    def test_epoch_times_without_barriers(self):
        def kernel(nid):
            yield (EV_REF, 15, -1, False, -1)

        result = Machine(config()).run(kernel)
        assert result.epoch_times() == [15]
