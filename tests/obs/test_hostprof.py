"""Host profiler: exact conservation, zero-cost disabled mode, sampler."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.errors import ObsError
from repro.obs import hostprof
from repro.obs.hostprof import (
    HOST_PID,
    PHASES,
    HostProfiler,
    SamplingProfiler,
    folded_digest,
    host_trace_events,
    perf_region,
    render_hostprof,
)


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    yield
    hostprof.deactivate()


def spin(n: int = 20_000) -> int:
    return sum(range(n))


# ------------------------------------------------------- phase accounting
def test_conservation_is_exact():
    prof = HostProfiler()
    with prof.running():
        with perf_region("machine"):
            spin()
            with perf_region("protocol"):
                spin()
            with perf_region("network"):
                spin()
        with perf_region("obs"):
            spin()
    report = prof.report()
    assert report["conserved"] is True
    assert sum(report["phases"].values()) == report["total_ns"]
    # per-epoch cells conserve too
    assert sum(e["ns"] for e in report["epochs"]) == report["total_ns"]
    for name in ("machine", "protocol", "network", "obs", "other"):
        assert report["phases"][name] > 0


def test_exclusive_self_time_nesting():
    """A nested region's time is NOT double-counted in its parent."""
    prof = HostProfiler()
    with prof.running():
        with perf_region("machine"):
            t0 = time.perf_counter()
            with perf_region("protocol"):
                while time.perf_counter() - t0 < 0.05:
                    spin(1000)
    report = prof.report()
    # protocol got ~50ms; machine only its own (tiny) self time
    assert report["phases"]["protocol"] >= 40_000_000
    assert report["phases"]["machine"] < report["phases"]["protocol"]


def test_set_epoch_splits_open_region():
    prof = HostProfiler()
    with prof.running():
        with perf_region("machine"):
            spin()
            prof.set_epoch(1)
            spin()
    report = prof.report()
    epochs = {e["epoch"]: e for e in report["epochs"]}
    assert 0 in epochs and 1 in epochs
    assert epochs[0]["phases"]["machine"] > 0
    assert epochs[1]["phases"]["machine"] > 0
    assert sum(e["ns"] for e in report["epochs"]) == report["total_ns"]


def test_stop_unwinds_stack_left_by_exception():
    prof = HostProfiler()
    prof.start()
    hostprof.activate(prof)
    try:
        prof.push("protocol")
        prof.push("network")
        # simulate an exception escaping without pops, then teardown
    finally:
        hostprof.deactivate(prof)
        prof.stop()
    report = prof.report()
    assert report["conserved"] is True
    assert set(report["phases"]) >= {"protocol", "network", "other"}


def test_stop_and_start_are_idempotent():
    prof = HostProfiler()
    prof.start()
    prof.start()
    prof.stop()
    total = prof.total_ns
    prof.stop()
    assert prof.total_ns == total


def test_disabled_mode_is_inert():
    assert hostprof.ACTIVE is None
    # the no-op region is shared and does nothing
    region = perf_region("protocol")
    assert region is perf_region("network")
    with region:
        pass
    # the publisher pattern's guard sees None and skips all work
    prof = hostprof.ACTIVE
    assert prof is None


def test_deactivate_only_clears_its_own_profiler():
    first, second = HostProfiler(), HostProfiler()
    hostprof.activate(first)
    hostprof.activate(second)
    hostprof.deactivate(first)  # stale deactivation must not clear `second`
    assert hostprof.ACTIVE is second
    hostprof.deactivate(second)
    assert hostprof.ACTIVE is None


def test_negative_sampling_interval_rejected():
    with pytest.raises(ObsError):
        HostProfiler(sampling_interval_s=-1.0)
    with pytest.raises(ObsError):
        SamplingProfiler(interval_s=0)


# ---------------------------------------------------------------- sampler
def test_sampler_idempotent_start_stop_under_exceptions():
    sampler = SamplingProfiler(interval_s=0.001)
    sampler.stop()  # stop before start: no-op
    assert not sampler.running
    try:
        sampler.start()
        sampler.start()  # double start: no-op, single worker thread
        assert sampler.running
        raise RuntimeError("boom")
    except RuntimeError:
        pass
    finally:
        sampler.stop()
        sampler.stop()
    assert not sampler.running
    # no stray sampler thread survives
    names = [t.name for t in threading.enumerate()]
    assert "repro-hostprof-sampler" not in names


def test_sampler_collects_stacks_and_digest_is_stable():
    sampler = SamplingProfiler(interval_s=0.001)
    with sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.05:
            spin(1000)
    report = sampler.report()
    assert report["count"] > 0
    assert report["folded"]
    assert report["digest"] == folded_digest(sampler.folded)
    assert folded_digest({"a;b": 1}) != folded_digest({"a;b": 2})


# ------------------------------------------------------------- rendering
def test_host_trace_events_layout():
    prof = HostProfiler()
    with prof.running():
        with perf_region("machine"):
            spin()
        prof.set_epoch(1)
        with perf_region("obs"):
            spin()
    events = host_trace_events(prof.report(), "demo")
    assert all(e["pid"] == HOST_PID for e in events)
    spans = [e for e in events if e.get("ph") == "X"]
    assert spans and all(e["tid"] == 0 for e in spans)
    # spans lie end to end: each epoch's phases decompose one timeline
    starts = [e["ts"] for e in spans]
    assert starts == sorted(starts)
    meta = [e for e in events if e["ph"] == "M"]
    assert any(e["name"] == "process_name" for e in meta)


def test_render_hostprof_mentions_conservation():
    prof = HostProfiler()
    with prof.running():
        with perf_region("machine"):
            spin()
    text = render_hostprof(prof.report(), workload="matmul/plain")
    assert "host time by subsystem" in text
    assert "conservation: sum(phases) == total_ns: yes" in text
    for phase in ("machine", "total"):
        assert phase in text


def test_phases_constant_covers_instrumented_layers():
    assert set(PHASES) == {
        "machine", "protocol", "network", "cache", "obs", "verify", "other",
    }


# ------------------------------------------------- integration with a run
def test_observed_run_reports_conserved_phases():
    from repro.harness.runner import run_program
    from repro.obs.session import Observer
    from repro.workloads.base import get_workload

    spec = get_workload("mp3d")
    observer = Observer(chrome=False, hostprof=True,
                        meta={"name": "mp3d/plain"})
    result, _ = run_program(
        spec.program, spec.config, spec.params_fn, observer=observer
    )
    report = observer.observation.hostprof
    assert report is not None and report["conserved"] is True
    assert report["phases"]["machine"] > 0
    assert report["phases"]["protocol"] > 0
    assert report["phases"]["network"] > 0
    # the epoch split follows the simulated barrier count
    assert len(report["epochs"]) >= result.epochs
    assert hostprof.ACTIVE is None  # run teardown deactivated


def test_observed_run_without_hostprof_attaches_nothing():
    from repro.harness.runner import run_program
    from repro.obs.session import Observer
    from repro.workloads.base import get_workload

    spec = get_workload("mp3d")
    observer = Observer(chrome=False)
    run_program(spec.program, spec.config, spec.params_fn, observer=observer)
    assert observer.observation.hostprof is None


# ---------------------------------------------------- thread affinity
def test_calls_from_another_thread_are_ignored():
    """A second thread that picked up the active profiler — as every
    instrumentation point does — neither raises nor moves the profiled
    thread's accounting, even when its pop lands after the stop."""
    prof = HostProfiler()
    grabbed, stopped = threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def other_thread():
        try:
            other = hostprof.ACTIVE
            other.push("network")
            other.set_epoch(99)
            grabbed.set()
            stopped.wait(5)
            other.pop()  # the stack it would pop is long gone
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
            grabbed.set()

    with prof.running():
        with perf_region("machine"):
            worker = threading.Thread(target=other_thread)
            worker.start()
            assert grabbed.wait(5)
            spin()
            prof.set_epoch(1)
            spin()
    stopped.set()
    worker.join(5)
    assert not worker.is_alive()
    assert errors == []
    report = prof.report()
    assert report["conserved"] is True
    assert [e["epoch"] for e in report["epochs"]] == [0, 1]
    assert "network" not in report["phases"]


def test_simulation_beside_a_profiled_run():
    """A trace run looping in another thread while a profiled run
    executes: the other thread never raises and the profiled report
    conserves and counts only its own epochs."""
    from repro.harness.runner import run_program, trace_program
    from repro.obs.session import Observer
    from repro.workloads.base import get_workload

    other_spec, spec = get_workload("ocean"), get_workload("mp3d")
    running, done = threading.Event(), threading.Event()
    errors: list[BaseException] = []

    def other_thread():
        try:
            while not done.is_set():
                running.set()
                trace_program(
                    other_spec.program, other_spec.config,
                    other_spec.params_fn,
                )
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
            running.set()

    worker = threading.Thread(target=other_thread)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # interleave the two runs finely
    worker.start()
    try:
        assert running.wait(30)
        for _ in range(3):
            observer = Observer(chrome=False, hostprof=True)
            result, _ = run_program(
                spec.program, spec.config, spec.params_fn, observer=observer
            )
            report = observer.observation.hostprof
            assert report["conserved"] is True
            assert {e["epoch"] for e in report["epochs"]} <= set(
                range(result.epochs + 1)
            )
    finally:
        done.set()
        worker.join(30)
        sys.setswitchinterval(switch)
    assert not worker.is_alive()
    assert errors == []
