"""Seeded-mutation tests: the checker must catch deliberately injected
coherence violations and name the right node, epoch and block.

Each test drives a tiny two-node machine with a hand-written kernel whose
generator body corrupts the protocol state mid-run (a lost invalidation, a
tampered directory pointer) or violates CICO discipline on purpose, then
asserts the resulting :class:`VerifyError` carries the correct coordinates
and a non-empty event chain; one test pins a chain's rendered text.
"""

from __future__ import annotations

import pytest

from repro.cache.state import LineState
from repro.errors import VerifyError
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
from repro.verify import InvariantChecker

BLOCK_SIZE = 32


def _machine(strict: bool = False):
    config = MachineConfig(
        num_nodes=2, cache_size=1024, block_size=BLOCK_SIZE, assoc=2
    )
    machine = Machine(config)
    checker = InvariantChecker(
        machine.protocol, strict_cico=strict, label="mutation"
    )
    checker.subscribe(machine.bus)
    return machine, checker


def test_seeded_swmr_violation_lost_invalidation():
    """Node 1 secretly keeps a copy of a block node 0 writes: the per-write
    SWMR scan must flag it, naming the writer, the epoch and the block."""
    machine, _ = _machine()

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)  # write block 0, epoch 0
            yield (EV_BARRIER, 0, 12)
            # mutation: a "lost invalidation" leaves a stale copy in node
            # 1's cache while node 0 still owns the block exclusively
            machine.protocol.caches[1].insert(0, LineState.SHARED)
            yield (EV_REF, 1, 0, True, 13)  # write again, epoch 1
            yield (EV_BARRIER, 0, 14)
        else:
            yield (EV_BARRIER, 0, 21)
            yield (EV_BARRIER, 0, 22)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert exc.invariant == "swmr"
    assert exc.node == 0
    assert exc.epoch == 1
    assert exc.block == 0
    assert "node 1 still holds a copy" in str(exc)
    assert exc.chain  # the evidence trail is attached


def test_evidence_chain_text_is_pinned():
    """The chain renders every record kind a node's ring holds — lock,
    access (hit, miss, recall, trap), directive, recall, trap — then the
    failing transaction's messages, in this exact text."""
    lock = 0x4000
    config = MachineConfig(
        num_nodes=3, cache_size=1024, block_size=BLOCK_SIZE, assoc=2
    )
    machine = Machine(config)
    InvariantChecker(machine.protocol, label="chain").subscribe(machine.bus)

    def kernel(nid):
        if nid == 0:
            yield (EV_LOCK, 0, lock, 10)
            yield (EV_REF, 1, 0, True, 11)  # write miss, block 0
            yield (EV_UNLOCK, 0, lock, 12)
            yield (EV_DIRECTIVE, 0, DIR_CHECK_OUT_X, [32], 13)
            yield (EV_REF, 1, 32, True, 14)  # hit, block 1
            yield (EV_DIRECTIVE, 0, DIR_CHECK_IN, [32], 15)
            yield (EV_BARRIER, 0, 16)
            yield (EV_REF, 1, 96, False, 17)  # recalls block 3 from node 1
            yield (EV_REF, 1, 128, True, 18)  # traps: nodes 1, 2 share block 4
            yield (EV_BARRIER, 0, 19)
            # mutation: node 2 grows a copy the directory knows nothing of
            machine.protocol.caches[2].insert(5, LineState.SHARED)
            yield (EV_REF, 1, 160, True, 20)  # write miss, block 5
            yield (EV_BARRIER, 0, 21)
        else:
            yield (EV_LOCK, 0, lock, 30 + nid)
            yield (EV_UNLOCK, 0, lock, 40 + nid)
            if nid == 1:
                yield (EV_REF, 1, 96, True, 50)  # own block 3 dirty
            yield (EV_REF, 1, 128, False, 51)  # share block 4
            yield (EV_BARRIER, 0, 52)
            yield (EV_BARRIER, 0, 53)
            yield (EV_BARRIER, 0, 54)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert (exc.invariant, exc.node, exc.epoch, exc.block) == ("swmr", 0, 2, 5)
    assert list(exc.chain) == [
        "t=0 node=0 LOCK_ACQUIRE addr=0x4000",
        "t=41 node=0 WRITE addr=0x0 block=0 pc=11 -> write_miss/memory txn=0",
        "t=271 node=0 LOCK_RELEASE addr=0x4000",
        "t=271 node=0 DIRECTIVE check_out_X blocks=[1] pc=13",
        "t=507 node=0 WRITE addr=0x20 block=1 pc=14 -> hit",
        "t=508 node=0 DIRECTIVE check_in blocks=[1] pc=15",
        "t=874 node=0 RECALL block=3 owner=1 txn=6",
        "t=874 node=0 READ addr=0x60 block=3 pc=17 -> read_miss/recall txn=6",
        "t=1305 node=0 TRAP block=4 copies=2 txn=7",
        "t=1305 node=0 WRITE addr=0x80 block=4 pc=18 -> write_miss/trap txn=7",
        "t=1966 node=0 WRITE addr=0xa0 block=5 pc=20 -> write_miss/memory "
        "txn=8",
        "t=1966 node=0 MSG get_x x1 txn=8",
        "t=1966 node=0 MSG data x1 txn=8",
    ]


def test_seeded_swmr_violation_tampered_directory():
    """The directory forgets who the exclusive owner is: the write-side
    directory check fires."""
    machine, _ = _machine()

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            entry = machine.protocol.directory.peek(0)
            entry.ptr = 1  # mutation: wrong owner recorded
            yield (EV_REF, 1, 0, True, 12)
            yield (EV_BARRIER, 0, 13)
        else:
            yield (EV_BARRIER, 0, 21)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert exc.invariant == "swmr"
    assert exc.node == 0 and exc.epoch == 0 and exc.block == 0
    assert "directory" in str(exc)


def test_barrier_scan_catches_silent_corruption():
    """A corruption no access touches afterwards is still caught by the
    barrier-time directory/cache cross-check."""
    machine, _ = _machine()

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            # mutation, immediately before the barrier: node 1 grows a
            # copy the directory knows nothing about
            machine.protocol.caches[1].insert(0, LineState.EXCLUSIVE)
            yield (EV_BARRIER, 0, 12)
        else:
            yield (EV_BARRIER, 0, 21)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert exc.invariant == "dir-cache-agreement"
    assert (exc.node, exc.epoch, exc.block) == (1, 0, 0)
    assert "unknown to directory" in str(exc)


def test_seeded_premature_check_in_strict():
    """Touching a block after checking it in is a discipline violation;
    strict mode raises with the right coordinates."""
    machine, _ = _machine(strict=True)

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            yield (EV_DIRECTIVE, 0, DIR_CHECK_IN, [0], 12)
            yield (EV_REF, 1, 0, False, 13)  # premature: re-touch after check-in
            yield (EV_BARRIER, 0, 14)
        else:
            yield (EV_BARRIER, 0, 21)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert exc.invariant == "cico-discipline"
    assert exc.node == 0
    assert exc.epoch == 0
    assert exc.block == 0
    assert "premature check-in" in str(exc)


def test_premature_check_in_is_warning_by_default():
    machine, checker = _machine(strict=False)

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            yield (EV_DIRECTIVE, 0, DIR_CHECK_IN, [0], 12)
            yield (EV_REF, 1, 0, False, 13)
            yield (EV_BARRIER, 0, 14)
        else:
            yield (EV_BARRIER, 0, 21)

    result = machine.run(kernel)
    report = checker.finalize(result)
    assert report.ok
    assert len(report.warnings) == 1
    assert "premature check-in" in report.warnings[0]


def test_unbalanced_check_out_flagged_at_barrier():
    machine, checker = _machine(strict=False)

    def kernel(nid):
        if nid == 0:
            yield (EV_DIRECTIVE, 0, DIR_CHECK_OUT_X, [0], 11)
            yield (EV_REF, 1, 0, True, 12)
            yield (EV_BARRIER, 0, 13)  # no check_in before the barrier
        else:
            yield (EV_BARRIER, 0, 21)

    result = machine.run(kernel)
    report = checker.finalize(result)
    assert report.ok
    assert any("never checked it in" in w for w in report.warnings)
