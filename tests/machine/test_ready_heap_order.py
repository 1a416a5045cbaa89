"""The ready heap's pop order, pinned access by access.

:meth:`Machine.run` steps the ready node with the smallest clock, lower
node id first on a tie, and defers a node's action only when its
post-compute clock is strictly past another ready node's.  These tests
record the exact ACCESS order of hand-written kernels, so any change to
how the heap is keyed (or to where nodes re-enter it: the step loop, a
barrier release, a lock hand-off) that moves one access shows here.
Node counts 3, 5 and 16 give 2, 3 and 4 bits of node id, the last with
every id bit set on node 15.
"""

from __future__ import annotations

from repro.machine.config import MachineConfig
from repro.machine.events import EV_BARRIER, EV_LOCK, EV_REF, EV_UNLOCK
from repro.machine.machine import Machine
from repro.obs.events import EventKind

BASE = 0x1000_0000
LOCK = 0x2000_0000
MISS = 230  # a read or write miss served by memory (2 hops + memory)
LOCK_CYCLES = 40
BARRIER_CYCLES = 100


def block(nid: int) -> int:
    """A block only node ``nid`` touches, so every access misses once."""
    return BASE + 32 * nid


def access_order(num_nodes: int, kernel) -> list[tuple[int, int, int]]:
    """Run ``kernel`` on ``num_nodes`` nodes; (node, pc, start clock) of
    every access in publication order."""
    machine = Machine(MachineConfig(num_nodes=num_nodes, cache_size=4096,
                                    block_size=32, assoc=2))
    order: list[tuple[int, int, int]] = []
    machine.bus.subscribe(
        (EventKind.ACCESS,), lambda ev: order.append((ev.node, ev.pc, ev.t))
    )
    machine.run(kernel)
    return order


def test_equal_clock_after_compute_does_not_defer():
    """Node 2 computes to clock 10, where node 0 already waits deferred.
    An equal clock is not past node 0's, so node 2 acts at once, ahead of
    the lower id."""
    compute = [10, 20, 10]

    def kernel(nid):
        yield (EV_REF, compute[nid], block(nid), False, 100 + nid)

    assert access_order(3, kernel) == [(2, 102, 10), (0, 100, 10),
                                       (1, 101, 20)]


def test_same_clock_lower_id_first():
    """Nodes 4, 3 and 1 all wait for clock 60, and node 4 queues first
    (at simulated time 0, the others after a step).  They still act in
    id order; node 0, alone at 30, goes first, and node 2 last."""
    def kernel(nid):
        if nid == 4:
            yield (EV_REF, 60, block(4), True, 14)
        elif nid in (1, 3):
            yield (EV_REF, 20, -1, False, -1)  # time only, no access
            yield (EV_REF, 40, block(nid), True, 10 + nid)
        elif nid == 0:
            yield (EV_REF, 30, block(0), True, 10)
        else:
            yield (EV_REF, 61, block(2), True, 12)

    assert access_order(5, kernel) == [
        (0, 10, 30), (1, 11, 60), (3, 13, 60), (4, 14, 60), (2, 12, 61),
    ]


def test_order_after_barrier_release():
    """16 nodes reach a barrier at staggered clocks and all resume at
    ``vt + barrier_cycles``.  Then they act by post-compute clock, ties
    by id: those with no compute in id order, the rest as they come due."""
    def kernel(nid):
        yield (EV_REF, 3 * (16 - nid), -1, False, -1)
        yield (EV_BARRIER, 0, 1)
        yield (EV_REF, (nid * 7) % 5, block(nid), False, 200 + nid)

    order = access_order(16, kernel)
    resume = 3 * 16 + BARRIER_CYCLES
    want = sorted(range(16), key=lambda nid: ((nid * 7) % 5, nid))
    assert order == [(nid, 200 + nid, resume + (nid * 7) % 5) for nid in want]
    # the pinned order itself, so a change to the helper cannot hide one
    assert [nid for nid, _pc, _t in order] == [
        0, 5, 10, 15, 3, 8, 13, 1, 6, 11, 4, 9, 14, 2, 7, 12,
    ]


def test_order_after_lock_hand_off():
    """Nodes 1, 2 and 3 queue on a lock node 0 holds; each is handed the
    lock at the previous holder's release.  Node 15, and node 9 with a
    lower id, wait for the same clock as the first hand-off: the lower id
    wins the tie, whichever node re-entered the heap first."""
    hold = LOCK_CYCLES + 100 + MISS  # node 0's release clock

    def kernel(nid):
        if nid == 0:
            yield (EV_LOCK, 0, LOCK, 1)
            yield (EV_REF, 100, block(0), True, 20)
            yield (EV_UNLOCK, 0, LOCK, 2)
        elif nid <= 3:
            yield (EV_LOCK, 5 * nid, LOCK, 1)
            yield (EV_REF, 0, block(nid), True, 20 + nid)
            yield (EV_UNLOCK, 0, LOCK, 2)
        elif nid in (9, 15):
            yield (EV_REF, hold + LOCK_CYCLES, block(nid), False, 30 + nid)
        else:
            yield (EV_REF, 7 * nid, block(nid), False, 30 + nid)

    order = access_order(16, kernel)
    first = hold + LOCK_CYCLES  # node 1 holds the lock from here
    second = first + MISS + LOCK_CYCLES
    third = second + MISS + LOCK_CYCLES
    assert [entry for entry in order if entry[0] in (0, 1, 2, 3, 9, 15)] == [
        (0, 20, LOCK_CYCLES + 100),
        (1, 21, first), (9, 39, first), (15, 45, first),
        (2, 22, second),
        (3, 23, third),
    ]
    assert [nid for nid, _pc, _t in order] == [
        4, 5, 6, 7, 8, 10, 11, 12, 13, 14, 0, 1, 9, 15, 2, 3,
    ]
