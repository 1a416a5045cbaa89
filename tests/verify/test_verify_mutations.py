"""Seeded-mutation tests: the checker must catch deliberately injected
coherence violations and name the right node, epoch and block.

Each test drives a tiny two-node machine with a hand-written kernel whose
generator body corrupts the protocol state mid-run (a lost invalidation, a
tampered directory pointer) or violates CICO discipline on purpose, then
asserts the resulting :class:`VerifyError` carries the correct coordinates
and a non-empty event chain.
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
    EV_REF,
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
