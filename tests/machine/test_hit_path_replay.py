"""The machine's plain-hit path against the protocol's written hit rule.

``Machine.run`` resolves a plain hit itself (``Dir1SWProtocol.hit_path``)
and sends every other access through ``Dir1SWProtocol.read``/``write``,
which stay the reference for the rule.  Each case records the ACCESS,
DIRECTIVE and BARRIER stream of a machine run, replays it through a fresh
protocol's ``read``, ``write`` and directive methods (directives with the
machine's cumulative-cycles rule, barriers with the trace-mode flush), and
requires every access's outcome and the whole final state to match: every
cache's lines in LRU order with their dirty bits, the directory, per-node
and protocol stats, traffic and the in-flight prefetches.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.coherence.fullmap import FullMapProtocol
from repro.coherence.protocol import AccessKind
from repro.harness.runner import trace_program
from repro.lang.interp import Interpreter, SharedStore
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIR_PREFETCH_S,
    DIR_PREFETCH_X,
)
from repro.machine.machine import Machine
from repro.obs.events import EventBus, EventKind
from repro.workloads.base import get_workload

SIZES = {
    "mp3d": dict(nparticles=32, ncells=16, steps=2, num_nodes=4),
    "ocean": dict(n=16, steps=2, num_nodes=8),
    "matmul": dict(n=16, num_nodes=4, cache_size=2048),
}


#: directive kind -> (protocol method name, exclusive)
DIRECTIVES = {
    DIR_CHECK_OUT_S: ("check_out", False),
    DIR_CHECK_OUT_X: ("check_out", True),
    DIR_PREFETCH_S: ("prefetch", False),
    DIR_PREFETCH_X: ("prefetch", True),
}


def _cachier_pf(spec):
    trace = trace_program(spec.program, spec.config, spec.params_fn)
    return Cachier(
        spec.program, trace, params_fn=spec.params_fn,
        cache_size=spec.cachier_cache_size,
    ).annotate(Policy.PERFORMANCE, prefetch=True).program


def _record(program, config, params_fn, *, trace_mode=False):
    """Run ``program`` on a machine; return it and its published stream."""
    bus = EventBus()
    stream: list = []
    bus.subscribe(
        (EventKind.ACCESS, EventKind.DIRECTIVE, EventKind.BARRIER),
        stream.append,
    )
    store = SharedStore(program, block_size=config.block_size)
    machine = Machine(config, bus=bus, flush_at_barrier=trace_mode)
    machine.run(Interpreter(program, store, params_fn=params_fn).kernel)
    return machine, stream


def _replay(machine, stream, *, trace_mode=False):
    """Replay ``stream`` through a fresh protocol of the machine's class;
    return it and the per-access mismatches."""
    cfg = machine.config
    proto = type(machine.protocol)(
        num_nodes=cfg.num_nodes, cache_size=cfg.cache_size,
        block_size=cfg.block_size, assoc=cfg.assoc, cost=cfg.cost,
    )
    shift = cfg.block_size.bit_length() - 1
    mismatches = []
    for ev in stream:
        kind = ev.kind
        if kind is EventKind.ACCESS:
            access = proto.write if ev.write else proto.read
            got = access(ev.node, ev.addr >> shift, ev.t)
            want = ev.result
            if (got.cycles, got.kind, got.detail, got.txn) != (
                    want.cycles, want.kind, want.detail, want.txn):
                mismatches.append((ev, got))
        elif kind is EventKind.DIRECTIVE:
            cycles = 0
            for block in ev.blockset:
                now = ev.t + cycles
                if ev.dkind == DIR_CHECK_IN:
                    cycles += proto.check_in(ev.node, block, now)
                else:
                    method, exclusive = DIRECTIVES[ev.dkind]
                    cycles += getattr(proto, method)(
                        ev.node, block, exclusive, now)
            if cycles != ev.cycles:
                mismatches.append((ev, cycles))
        else:  # BARRIER: the trace-mode flush, then the next epoch
            if trace_mode:
                for node in ev.node_pcs:
                    proto.flush_node(node, now=ev.vt)
            proto.set_epoch(ev.epoch + 1)
    return proto, mismatches


def _directory(proto) -> dict:
    return {
        block: (entry.state, entry.count, entry.ptr, sorted(entry.sharers))
        for block, entry in proto.directory.entries().items()
    }


def _assert_replays(machine, stream, *, trace_mode=False):
    replayed, mismatches = _replay(machine, stream, trace_mode=trace_mode)
    assert mismatches == []
    live = machine.protocol
    for node, (mine, theirs) in enumerate(zip(live.caches, replayed.caches)):
        assert mine.snapshot_lines() == theirs.snapshot_lines(), node
    assert _directory(live) == _directory(replayed)
    assert [s.as_dict() for s in live.stats] == [
        s.as_dict() for s in replayed.stats]
    assert dataclasses.asdict(live.proto_stats) == dataclasses.asdict(
        replayed.proto_stats)
    assert live.network.traffic_by_kind() == replayed.network.traffic_by_kind()
    assert live.snapshot_state() == replayed.snapshot_state()
    assert live.residency == replayed.residency


@pytest.mark.parametrize("name", sorted(SIZES))
def test_cachier_pf_run_replays_through_the_protocol(name):
    spec = get_workload(name, **SIZES[name])
    machine, stream = _record(_cachier_pf(spec), spec.config, spec.params_fn)
    accesses = [ev for ev in stream if ev.kind is EventKind.ACCESS]
    hits = [ev for ev in accesses if ev.result.kind is AccessKind.HIT]
    # the runs exercise every branch of the rule: plain and prefetched
    # hits, write hits, and misses
    assert any(ev.result.detail == "prefetched" for ev in hits)
    assert any(ev.write for ev in hits)
    assert len(accesses) // 2 < len(hits) < len(accesses)
    _assert_replays(machine, stream)


def test_trace_mode_run_replays_through_the_protocol():
    spec = get_workload("mp3d", **SIZES["mp3d"])
    machine, stream = _record(spec.program, spec.config, spec.params_fn,
                              trace_mode=True)
    _assert_replays(machine, stream, trace_mode=True)


def test_fullmap_run_replays_through_the_protocol():
    spec = get_workload("ocean", **SIZES["ocean"])
    config = dataclasses.replace(spec.config, protocol="fullmap")
    machine, stream = _record(_cachier_pf(spec), config, spec.params_fn)
    assert type(machine.protocol) is FullMapProtocol
    _assert_replays(machine, stream)
