"""The one coherence-invariant library and its consumers.

:mod:`repro.verify.invariants` holds the only definition of the coherence
invariants; the online checker, the model checker and the protocol's
self-check all call it.  These tests pin the predicates themselves, the
barrier-time catches of state corrupted behind the protocol's back, and
that the online checker names each committed counterexample's violation
exactly as the model checker recorded it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cache.state import LineState
from repro.coherence.protocol import Dir1SWProtocol
from repro.errors import ProtocolError, VerifyError
from repro.machine.config import MachineConfig
from repro.machine.events import DIRECTIVE_NAMES, EV_BARRIER, EV_REF
from repro.machine.machine import Machine
from repro.mc import load_counterexample
from repro.mc.model import BARRIER, ProtocolModel
from repro.obs.events import AccessEvent, BarrierEvent, DirectiveEvent, EventBus
from repro.verify import InvariantChecker
from repro.verify.invariants import Finding, check_op, check_state

CORPUS = Path(__file__).resolve().parents[2] / "counterexamples"
DIRECTIVE_CODES = {name: code for code, name in DIRECTIVE_NAMES.items()}


def _proto() -> Dir1SWProtocol:
    return Dir1SWProtocol(num_nodes=2, cache_size=1024, block_size=32, assoc=2)


# ------------------------------------------------------------- predicates
def test_clean_protocol_passes_every_check():
    proto = _proto()
    steps = [
        ("read", 0, 0), ("read", 1, 0), ("write", 1, 0),
        ("check_out_S", 0, 1), ("check_out_X", 1, 1), ("check_in", 1, 1),
        ("prefetch_S", 0, 2), ("read", 0, 2),
    ]
    run = {
        "read": proto.read,
        "write": proto.write,
        "check_out_S": lambda n, b: proto.check_out(n, b, exclusive=False),
        "check_out_X": lambda n, b: proto.check_out(n, b, exclusive=True),
        "check_in": proto.check_in,
        "prefetch_S": lambda n, b: proto.prefetch(n, b, exclusive=False),
    }
    for op, node, block in steps:
        run[op](node, block)
        assert check_op(proto, op, node, block) is None, op
        assert check_state(proto) is None, op


def test_directive_postconditions_share_one_name():
    proto = _proto()
    proto.read(0, 0)  # node 0 holds block 0 SHARED
    assert check_op(proto, "check_out_X", 0, 0).invariant == (
        "directive-postcondition"
    )
    assert check_op(proto, "check_in", 0, 0).invariant == (
        "directive-postcondition"
    )
    assert check_op(proto, "check_out_S", 0, 1).invariant == (
        "directive-postcondition"
    )
    # prefetches are hints: no post-condition even when nothing arrived
    assert check_op(proto, "prefetch_X", 0, 1) is None


def test_check_out_of_an_evicted_line_only_checks_cached_lines():
    """A check-out whose later blocks evicted an earlier one: the absent
    line passes, a still-cached line must still be in the right state."""
    proto = _proto()
    assert check_op(proto, "check_out_X", 0, 0, may_be_evicted=True) is None
    proto.read(0, 0)
    finding = check_op(proto, "check_out_X", 0, 0, may_be_evicted=True)
    assert finding.invariant == "directive-postcondition"
    assert "EXCLUSIVE" in finding.message


def test_invariant_check_raises_the_state_finding():
    """The protocol's self-check is the whole-state check, verbatim."""
    proto = _proto()
    proto.read(0, 0)
    proto.directory.add_reader(0, 1)  # sharer with no cache line
    finding = check_state(proto)
    assert finding == Finding(
        "dir-cache-agreement",
        "directory lists node 1 for block 0 but its cache has no line",
        1, 0,
    )
    with pytest.raises(ProtocolError) as excinfo:
        proto.invariant_check()
    assert str(excinfo.value) == finding.message


def test_check_state_is_pure():
    """The check reads state and nothing else: a broken state fails the
    same way every time and is left exactly as it was."""
    proto = _proto()
    proto.read(0, 0)
    proto.directory.add_reader(0, 1)
    before = proto.snapshot_state()
    first = check_state(proto)
    assert first is not None
    assert check_state(proto) == first
    assert proto.snapshot_state() == before


# ------------------------------------------------- the online checker
def _machine():
    config = MachineConfig(num_nodes=2, cache_size=1024, block_size=32, assoc=2)
    machine = Machine(config)
    checker = InvariantChecker(machine.protocol, label="invariants")
    checker.subscribe(machine.bus)
    return machine, checker


def _clean_kernel(nid):
    if nid == 0:
        yield (EV_REF, 1, 0, True, 11)
        yield (EV_BARRIER, 0, 12)
        yield (EV_REF, 1, 0, False, 13)
        yield (EV_BARRIER, 0, 14)
    else:
        yield (EV_REF, 1, 32, False, 21)
        yield (EV_BARRIER, 0, 22)
        yield (EV_BARRIER, 0, 23)


def test_clean_run_accepted():
    machine, checker = _machine()
    report = checker.finalize(machine.run(_clean_kernel))
    assert report.ok and not report.warnings
    assert report.checks["dir-cache-agreement"] == 2  # one per barrier
    assert report.checks["swmr"] == 3  # one write + one scan per barrier
    assert "cache" not in report.as_dict()


def test_corrupted_directory_entry_caught_at_next_barrier():
    machine, _ = _machine()

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            machine.protocol.directory.peek(0).ptr = 1  # behind its back
        yield (EV_BARRIER, 0, 12)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert exc.invariant == "dir-cache-agreement"
    assert exc.epoch == 0 and exc.block == 0
    assert "bad RW entry" in str(exc)


def test_rogue_cache_line_caught_at_next_barrier():
    """A copy the directory never granted, grown after a barrier that
    passed, is caught at the following barrier, naming its node."""
    machine, _ = _machine()

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            yield (EV_BARRIER, 0, 12)
            machine.protocol.caches[1].insert(0, LineState.SHARED)
            yield (EV_BARRIER, 0, 13)
        else:
            yield (EV_BARRIER, 0, 21)
            yield (EV_BARRIER, 0, 22)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    exc = excinfo.value
    assert exc.invariant == "dir-cache-agreement"
    assert (exc.node, exc.epoch, exc.block) == (1, 1, 0)
    assert "unknown to directory" in str(exc)


def test_corrupt_run_rejected_alike_by_checker_and_self_check():
    """One corrupt state, two consumers of the library: the online
    checker's barrier scan and the protocol's self-check reject it with
    the same invariant, coordinates and message."""
    machine, _ = _machine()

    def kernel(nid):
        if nid == 0:
            yield (EV_REF, 1, 0, True, 11)
            machine.protocol.caches[1].insert(0, LineState.EXCLUSIVE)
        yield (EV_BARRIER, 0, 12)

    with pytest.raises(VerifyError) as excinfo:
        machine.run(kernel)
    online = excinfo.value
    finding = check_state(machine.protocol)
    assert finding is not None
    assert online.invariant == finding.invariant
    assert (online.node, online.block) == (finding.node, finding.block)
    assert finding.message in str(online)
    with pytest.raises(ProtocolError) as selfcheck:
        machine.protocol.invariant_check()
    assert str(selfcheck.value) == finding.message


# ------------------------------------ the committed counterexample corpus
@pytest.mark.parametrize(
    "path", sorted(CORPUS.glob("*.json")), ids=lambda p: p.stem
)
def test_online_checker_names_the_recorded_invariant(path):
    """Each counterexample's schedule, run on the same mutated protocol
    with its events published to an online checker, fails with the
    invariant the model checker recorded."""
    ce = load_counterexample(path)
    model = ProtocolModel(ce.config, mutate=ce.mutation)
    proto = model.materialize(model.initial_key())
    bus = EventBus()
    InvariantChecker(proto, label=path.stem).subscribe(bus)
    shift = proto.block_size.bit_length() - 1
    with pytest.raises(VerifyError) as excinfo:
        for pc, action in enumerate(ce.schedule):
            node, op, block = action.node, action.op, action.block
            if op == BARRIER:
                continue
            if op in ("read", "write"):
                access = proto.write if op == "write" else proto.read
                bus.publish(AccessEvent(
                    node=node, epoch=0, addr=block << shift, pc=pc,
                    write=op == "write", t=0, result=access(node, block),
                ))
                continue
            if op.startswith("check_out"):
                proto.check_out(node, block, exclusive=op.endswith("X"))
            elif op == "check_in":
                proto.check_in(node, block)
            else:
                proto.prefetch(node, block, exclusive=op.endswith("X"))
            bus.publish(DirectiveEvent(
                node=node, epoch=0, dkind=DIRECTIVE_CODES[op], blocks=1,
                pc=pc, t=0, cycles=0, blockset=(block,),
            ))
        nodes = range(ce.config.nodes)
        bus.publish(BarrierEvent(
            epoch=0, vt=0, node_pcs={n: -1 for n in nodes},
            resume=proto.cost.barrier_cycles,
        ))
    assert excinfo.value.invariant == ce.violation.invariant
