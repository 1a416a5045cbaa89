"""Timeline snapshots, Chrome-trace schema round-trip, manifest round-trip."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.machine.config import MachineConfig
from repro.machine.events import EV_BARRIER, EV_REF
from repro.machine.machine import Machine
from repro.obs.events import BarrierEvent, EventBus
from repro.obs.export import (
    chrome_trace,
    read_manifest,
    write_chrome_trace,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.session import Observer
from repro.obs.timeline import EpochTimeline

BASE = 0x1000_0000


def config(nodes=2):
    return MachineConfig(num_nodes=nodes, cache_size=4096, block_size=32, assoc=2)


def observed_run(kernel, nodes=2, **obs_kw):
    observer = Observer(chrome=True, meta={"name": "test"}, **obs_kw)
    result = Machine(config(nodes), bus=observer.bus).run(kernel)
    observer.finalize(result)
    return observer.observation, result


def two_epoch_kernel(nid):
    yield (EV_REF, 0, BASE + 64 * nid, False, 1)
    yield (EV_BARRIER, 0, 2)
    yield (EV_REF, 0, BASE + 64 * nid + 32, True, 3)
    yield (EV_BARRIER, 0, 4)
    yield (EV_REF, 5, -1, False, -1)


class TestEpochTimeline:
    def test_samples_match_epoch_times(self):
        obs, result = observed_run(two_epoch_kernel)
        assert [s.cycles for s in obs.timeline] == result.epoch_times()
        assert [s.epoch for s in obs.timeline] == [0, 1, 2]
        assert [s.final for s in obs.timeline] == [False, False, True]

    def test_snapshots_are_cumulative_and_deltas_recover_per_epoch(self):
        obs, _ = observed_run(two_epoch_kernel)
        misses = [
            s.snapshot["accesses.read_miss"] + s.snapshot["accesses.write_miss"]
            for s in obs.timeline
        ]
        assert misses == sorted(misses)  # cumulative
        assert misses[-1] == 4  # 2 read misses + 2 write misses in total

    def test_empty_run_produces_single_empty_sample(self):
        timeline = EpochTimeline(MetricsRegistry())
        timeline.finalize(0)
        assert len(timeline.samples) == 1
        assert timeline.samples[0].cycles == 0
        assert timeline.samples[0].final

    def test_finalize_is_idempotent(self):
        timeline = EpochTimeline(MetricsRegistry())
        bus = EventBus()
        timeline.attach(bus)
        bus.publish(BarrierEvent(epoch=0, vt=50, node_pcs={}, resume=150))
        timeline.finalize(80)
        timeline.finalize(80)
        assert [s.cycles for s in timeline.samples] == [50, 30]

    def test_no_trailing_sample_when_run_ends_on_barrier(self):
        timeline = EpochTimeline(MetricsRegistry())
        bus = EventBus()
        timeline.attach(bus)
        bus.publish(BarrierEvent(epoch=0, vt=50, node_pcs={}, resume=150))
        timeline.finalize(50)
        assert [s.final for s in timeline.samples] == [False]

    def test_deltas_helper(self):
        registry = MetricsRegistry()
        timeline = EpochTimeline(registry)
        bus = EventBus()
        timeline.attach(bus)
        counter = registry.counter("barriers")
        counter.inc()
        bus.publish(BarrierEvent(epoch=0, vt=10, node_pcs={}, resume=110))
        counter.inc()
        bus.publish(BarrierEvent(epoch=1, vt=30, node_pcs={}, resume=130))
        timeline.finalize(45)
        assert timeline.deltas("barriers") == [1, 1, 0]
        assert timeline.epoch_cycles() == [10, 20, 15]


class TestChromeTraceExport:
    def test_schema_and_round_trip(self, tmp_path):
        obs, result = observed_run(two_epoch_kernel)
        path = tmp_path / "run.trace.json"
        write_chrome_trace(obs, str(path))
        loaded = json.loads(path.read_text())
        events = loaded["traceEvents"]

        threads = [e for e in events
                   if e.get("ph") == "M" and e["name"] == "thread_name"]
        assert len(threads) == config().num_nodes
        assert {e["tid"] for e in threads} == {0, 1}

        markers = [e for e in events if e.get("ph") == "i"]
        assert len(markers) == result.epochs  # one marker per barrier

        spans = [e for e in events if e.get("ph") == "X"]
        assert spans, "misses must appear as spans"
        for span in spans:
            assert {"name", "ts", "dur", "pid", "tid"} <= span.keys()
            assert span["dur"] >= 0

    def test_marker_timestamps_are_barrier_vts(self):
        obs, result = observed_run(two_epoch_kernel)
        trace = chrome_trace(obs)
        markers = [e for e in trace["traceEvents"] if e.get("ph") == "i"]
        assert [m["ts"] for m in markers] == result.extra["barrier_vts"]

    def test_hits_excluded_by_default_included_on_request(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 1)
                yield (EV_REF, 0, BASE, False, 2)

        obs, _ = observed_run(kernel)
        names = [e["name"] for e in obs.trace_events
                 if e.get("ph") == "X" and e.get("cat") == "mem"]
        assert names == ["read_miss"]
        obs_hits, _ = observed_run(kernel, include_hits=True)
        names = [e["name"] for e in obs_hits.trace_events
                 if e.get("ph") == "X" and e.get("cat") == "mem"]
        assert names == ["read_miss", "hit"]

    def test_include_hits_needs_chrome(self):
        with pytest.raises(ObsError, match=r"Observer\(chrome=True\)"):
            Observer(include_hits=True)


class TestChromeRecordingIsOptIn:
    def test_default_observer_records_no_chrome_events(self):
        observer = Observer()
        result = Machine(config(), bus=observer.bus).run(two_epoch_kernel)
        obs = observer.finalize(result)
        assert observer.trace_events == []
        assert obs.trace_events is None
        assert obs.metric("accesses.read_miss") == 2  # metrics still flow

    def test_export_without_chrome_raises(self, tmp_path):
        observer = Observer(chrome=False, meta={"name": "quiet"})
        result = Machine(config(), bus=observer.bus).run(two_epoch_kernel)
        obs = observer.finalize(result)
        with pytest.raises(ObsError, match=r"Observer\(chrome=True\)"):
            chrome_trace(obs)
        path = tmp_path / "quiet.trace.json"
        with pytest.raises(ObsError, match="quiet"):
            write_chrome_trace(obs, str(path))
        assert not path.exists()

    def test_chrome_run_without_spans_still_writes(self, tmp_path):
        def kernel(nid):
            yield (EV_BARRIER, 0, 2)

        obs, result = observed_run(kernel)
        path = tmp_path / "idle.trace.json"
        write_chrome_trace(obs, str(path))
        events = json.loads(path.read_text())["traceEvents"]
        assert not [e for e in events if e.get("ph") == "X"]
        assert len([e for e in events if e.get("ph") == "i"]) == result.epochs


class TestManifestExport:
    def test_jsonl_round_trip(self, tmp_path):
        obs, result = observed_run(two_epoch_kernel)
        path = tmp_path / "run.manifest.jsonl"
        write_manifest(obs, str(path))
        records = read_manifest(str(path))

        header = records[0]
        assert header["type"] == "run"
        assert header["cycles"] == result.cycles
        assert header["epochs"] == result.epochs
        assert header["meta"]["name"] == "test"

        epochs = [r for r in records if r["type"] == "epoch"]
        assert [e["cycles"] for e in epochs] == result.epoch_times()

        final = records[-1]
        assert final["type"] == "metrics"
        assert final["metrics"]["barriers"] == result.epochs
