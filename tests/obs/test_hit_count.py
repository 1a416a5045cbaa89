"""``accesses.hit`` and the message counters come from the protocol's
counters, not from events.

The Observer reads no ACCESS event for its hit counter and no MESSAGE
event for ``messages`` and ``messages.<kind>``: it reads the protocol's
hits (prefetched hits included) and its network's traffic at every
barrier, before the epoch timeline takes its sample, and at finalize.
Every sample must still show what a subscriber counting HIT outcomes on
ACCESS, and messages on MESSAGE, counts at the same point, including on
a run with prefetched hits, on a write fault that consumes a shared
prefetch (a prefetch "use" that is not a hit), on a fault-injected run
whose duplicated messages count as extra traffic, and on a run resumed
from a checkpoint, which counts from the resume point as the miss
counters do.
"""

from __future__ import annotations

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.coherence.protocol import AccessKind
from repro.harness.checkpoint import Checkpointer
from repro.harness.runner import run_program, trace_program
from repro.lang.ast import ArrayDecl
from repro.lang.parse import parse_program
from repro.machine.config import MachineConfig
from repro.obs.events import EventKind
from repro.obs.session import Observer
from repro.workloads.base import get_workload

MP3D = dict(nparticles=32, ncells=16, steps=2, num_nodes=4)

#: node 0 prefetches A's first block shared and writes it while the
#: prefetch is in flight (a write fault that consumes the prefetch), then
#: prefetches B's first block and reads it (a prefetched hit, then a plain
#: one); after the barrier every node reads both
PREFETCH_THEN_WRITE = """\
if me == 0 then
    prefetch_S A[0:3]
    A[0] = 1
    prefetch_S B[0:3]
    s = B[0] + B[1]
fi
barrier
s = A[0] + A[1] + B[0]
"""


class HitCounter:
    """Counts HIT outcomes on ACCESS and messages by kind on MESSAGE,
    noting the counts at each barrier."""

    def __init__(self, bus) -> None:
        self.hits = 0
        self.prefetched = 0
        self.messages: dict[str, int] = {}
        self.at_barriers: list[tuple[int, dict[str, int]]] = []
        bus.subscribe((EventKind.ACCESS,), self._on_access)
        bus.subscribe((EventKind.MESSAGE,), self._on_message)
        bus.subscribe((EventKind.BARRIER,), self._on_barrier)

    def _on_access(self, ev) -> None:
        if ev.result.kind is AccessKind.HIT:
            self.hits += 1
            self.prefetched += ev.result.detail == "prefetched"

    def _on_message(self, ev) -> None:
        kind = ev.msg.value
        self.messages[kind] = self.messages.get(kind, 0) + ev.count

    def _on_barrier(self, _ev) -> None:
        self.at_barriers.append((self.hits, dict(self.messages)))


def _observed(program, config, params_fn=None, **run_kw):
    observer = Observer()
    counter = HitCounter(observer.bus)
    result, _ = run_program(program, config, params_fn, observer=observer,
                            **run_kw)
    return result, observer.observation, counter


def _counts(snapshot: dict) -> tuple[int, dict[str, int]]:
    """A metrics snapshot's hit count and message counters by kind."""
    kinds = {name.split(".", 1)[1]: value for name, value in snapshot.items()
             if name.startswith("messages.")}
    assert snapshot["messages"] == sum(kinds.values())
    return snapshot["accesses.hit"], kinds


def _assert_samples_match(obs, counter) -> None:
    samples = [_counts(s.snapshot) for s in obs.timeline]
    final = obs.timeline[-1].final
    totals = (counter.hits, counter.messages)
    assert samples == counter.at_barriers + ([totals] if final else [])
    assert _counts(obs.metrics) == totals


def test_prefetched_hits_count():
    spec = get_workload("mp3d", **MP3D)
    trace = trace_program(spec.program, spec.config, spec.params_fn)
    program = Cachier(
        spec.program, trace, params_fn=spec.params_fn,
        cache_size=spec.cachier_cache_size,
    ).annotate(Policy.PERFORMANCE, prefetch=True).program
    result, obs, counter = _observed(program, spec.config, spec.params_fn)
    assert counter.prefetched > 0
    assert counter.hits == result.stats.hits + counter.prefetched
    _assert_samples_match(obs, counter)


def test_write_fault_on_an_inflight_prefetch_is_no_hit():
    program = parse_program(
        PREFETCH_THEN_WRITE,
        {"A": ArrayDecl("A", (16,)), "B": ArrayDecl("B", (16,))},
        name="prefetch_then_write",
    )
    config = MachineConfig(num_nodes=2, cache_size=4096, block_size=32,
                           assoc=2)
    result, obs, counter = _observed(program, config)
    # both prefetches were used, but only B's as a hit
    assert result.stats.prefetch_useful == 2
    assert counter.prefetched == 1
    assert obs.metric("accesses.write_fault") == 1
    _assert_samples_match(obs, counter)


def test_fault_injected_run_counts_duplicate_messages():
    spec = get_workload("mp3d", **MP3D)
    result, obs, counter = _observed(spec.program, spec.config,
                                     spec.params_fn, faults_seed=1789)
    assert result.extra["fault_stats"]["duplicated"] > 0
    assert obs.metric("messages") == result.total_messages
    _assert_samples_match(obs, counter)


class _Killed(Exception):
    """Stands in for a kill right after a checkpoint was written."""


def test_resumed_run_counts_from_the_resume_point(monkeypatch, tmp_path):
    spec = get_workload("mp3d", **MP3D)
    saved = []
    save = Checkpointer.save

    def save_then_kill(self, snapshot):
        save(self, snapshot)
        saved.append(snapshot["epoch"])
        if len(saved) == 2:
            raise _Killed

    with monkeypatch.context() as patch:
        patch.setattr(Checkpointer, "save", save_then_kill)
        with pytest.raises(_Killed):
            run_program(spec.program, spec.config, spec.params_fn,
                        checkpoint_dir=str(tmp_path))
    full, full_obs, _ = _observed(spec.program, spec.config, spec.params_fn)
    resumed, obs, counter = _observed(
        spec.program, spec.config, spec.params_fn,
        checkpoint_dir=str(tmp_path), resume=True,
    )
    assert resumed.cycles == full.cycles
    assert 0 < counter.hits < full_obs.metric("accesses.hit")
    assert 0 < obs.metric("messages") < full_obs.metric("messages")
    _assert_samples_match(obs, counter)
