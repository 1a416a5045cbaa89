"""Verification composes with checkpoint/resume.

A verified run resumed from a barrier checkpoint picks the checker up at
the resume point — epoch, last barrier time, finished nodes and the
restored protocol's counters — so every check continues and the run
verifies clean, with the same result as an uninterrupted one.  Resuming
does not blind the checker: an event lost after the resume point still
breaks conservation.
"""

from __future__ import annotations

import re

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.errors import VerifyError
from repro.harness.checkpoint import Checkpointer
from repro.harness.runner import run_program, trace_program
from repro.obs.events import EventBus, EventKind
from repro.obs.session import Observer
from repro.workloads.base import get_workload

SIZES = {
    "ocean": dict(n=16, steps=2, num_nodes=8),
    "mp3d": dict(nparticles=32, ncells=16, steps=2, num_nodes=4),
}


class _Killed(Exception):
    """Stands in for a kill right after a checkpoint was written."""


def _checkpointed(monkeypatch, spec, ckdir, kill_after, program=None):
    """Run ``program`` (default ``spec``'s) with checkpoints, killed after
    checkpoint ``kill_after`` (None: run to completion, leaving the last
    barrier's checkpoint)."""
    program = spec.program if program is None else program
    saved = []
    save = Checkpointer.save

    def save_then_kill(self, snapshot):
        save(self, snapshot)
        saved.append(snapshot["epoch"])
        if len(saved) == kill_after:
            raise _Killed

    with monkeypatch.context() as patch:
        patch.setattr(Checkpointer, "save", save_then_kill)
        if kill_after is None:
            run_program(program, spec.config, spec.params_fn,
                        checkpoint_dir=ckdir)
        else:
            with pytest.raises(_Killed):
                run_program(program, spec.config, spec.params_fn,
                            checkpoint_dir=ckdir)
    return saved[-1]


@pytest.mark.parametrize("name, kill_after", [("ocean", 2), ("mp3d", None)])
def test_verified_run_resumes_from_checkpoint(monkeypatch, tmp_path, name,
                                              kill_after):
    spec = get_workload(name, **SIZES[name])
    full, full_store = run_program(spec.program, spec.config, spec.params_fn,
                                   verify=True)
    epoch = _checkpointed(monkeypatch, spec, str(tmp_path), kill_after)
    assert 0 < epoch <= full.epochs

    resumed, store = run_program(
        spec.program, spec.config, spec.params_fn, verify=True,
        checkpoint_dir=str(tmp_path), resume=True,
    )
    report = resumed.extra["verify_report"]
    assert report.ok
    assert resumed.cycles == full.cycles
    assert resumed.traffic == full.traffic
    assert store.snapshot_values() == full_store.snapshot_values()
    # the checks continued from the resume point, not from epoch 0
    assert report.checks["epoch-consistency"] == full.epochs - epoch
    assert report.checks["conservation"] == 1
    full_events = full.extra["verify_report"].events
    for counter in ("traps", "recalls", "messages", "barriers", "node_done",
                    "hits"):
        assert report.events[counter] == full_events[counter], counter


class _LosesOne(EventBus):
    """A bus that silently drops the first event it carries on ``topic``."""

    def __init__(self, topic: EventKind):
        super().__init__()
        self.topic = topic
        self.lost = None

    def publish(self, event, kind=None):
        if self.lost is None and (kind or event.kind) is self.topic:
            self.lost = event
            return
        super().publish(event, kind)


def _resumed_on_lossy_bus(monkeypatch, tmp_path, spec, program, topic):
    """Resume ``program`` verified after its second checkpoint, on a bus
    that loses the first event on ``topic``; return the bus and the
    VerifyError raised."""
    _checkpointed(monkeypatch, spec, str(tmp_path), kill_after=2,
                  program=program)
    bus = _LosesOne(topic)
    with pytest.raises(VerifyError) as info:
        run_program(
            program, spec.config, spec.params_fn,
            observer=Observer(bus=bus, chrome=False), verify=True,
            checkpoint_dir=str(tmp_path), resume=True,
        )
    assert bus.lost is not None and bus.lost.epoch >= 2
    return bus, info.value


def test_event_dropped_after_resume_point_is_caught(monkeypatch, tmp_path):
    spec = get_workload("ocean", **SIZES["ocean"])
    _bus, error = _resumed_on_lossy_bus(monkeypatch, tmp_path, spec,
                                        spec.program, EventKind.MESSAGE)
    assert error.invariant == "conservation"
    assert "network messages" in str(error)


@pytest.mark.parametrize("topic, line", [
    ("WRITE_HIT", "write hits"),
    ("PREFETCH_HIT", "prefetched hits"),
    ("MISS", "misses"),
])
def test_access_dropped_after_resume_point_is_caught(monkeypatch, tmp_path,
                                                     topic, line):
    """Each access topic the checker reads has its own conservation line,
    which names a lost event on that topic."""
    spec = get_workload("ocean", **SIZES["ocean"])
    # the cachier+pf program, so that prefetched hits come after the
    # resume point too
    trace = trace_program(spec.program, spec.config, spec.params_fn)
    program = Cachier(
        spec.program, trace, params_fn=spec.params_fn,
        cache_size=spec.cachier_cache_size,
    ).annotate(Policy.PERFORMANCE, prefetch=True).program
    bus, error = _resumed_on_lossy_bus(monkeypatch, tmp_path, spec, program,
                                       EventKind[topic])
    assert bus.lost.kind is EventKind.ACCESS
    assert error.invariant == "conservation"
    assert re.search(rf"delivered \d+ {line} but the run counted \d+",
                     str(error))
