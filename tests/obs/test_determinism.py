"""Observation must not perturb the simulation (the acceptance criterion):
a Figure-6 workload run with the full obs stack attached reports exactly
the cycles/stats/traffic of an unobserved run, and the exported Chrome
trace has one thread track per node and one epoch marker per barrier.
Chrome recording itself changes no other output of an observed run."""

from __future__ import annotations

import json

import pytest

from repro.harness.runner import run_program, trace_program
from repro.harness.variants import build_variants
from repro.obs.export import chrome_trace, write_manifest
from repro.obs.session import Observer
from repro.workloads.base import get_workload


@pytest.fixture(scope="module")
def spec():
    # matmul is one of the paper's five Figure-6 benchmarks.
    return get_workload("matmul")


class TestObsDoesNotChangeTheRun:
    def test_timing_run_identical_with_obs(self, spec):
        plain, _ = run_program(spec.program, spec.config, spec.params_fn)
        observer = Observer(chrome=True, meta={"name": "matmul/plain"})
        observed, _ = run_program(
            spec.program, spec.config, spec.params_fn, observer=observer
        )
        assert observed.cycles == plain.cycles
        assert observed.stats == plain.stats
        assert observed.per_node == plain.per_node
        assert observed.traffic == plain.traffic
        assert observed.sw_traps == plain.sw_traps
        assert observed.recalls == plain.recalls
        assert observed.extra["barrier_vts"] == plain.extra["barrier_vts"]

    def test_trace_run_identical_with_obs(self, spec):
        plain = trace_program(spec.program, spec.config, spec.params_fn)
        observer = Observer(chrome=True, meta={"name": "matmul/trace"})
        observed = trace_program(
            spec.program, spec.config, spec.params_fn, observer=observer
        )
        assert sorted(map(repr, observed.misses)) == sorted(map(repr, plain.misses))
        assert observed.barriers == plain.barriers

    def test_observation_consistency(self, spec):
        observer = Observer(chrome=True, meta={"name": "matmul/plain"})
        result, _ = run_program(
            spec.program, spec.config, spec.params_fn, observer=observer
        )
        obs = result.obs
        assert obs is observer.observation
        assert obs.num_nodes == spec.config.num_nodes
        assert obs.metric("barriers") == result.epochs
        misses = obs.metric("accesses.read_miss") + obs.metric("accesses.write_miss")
        assert misses == result.stats.read_misses + result.stats.write_misses
        assert obs.metric("accesses.write_fault") == result.stats.write_faults
        assert obs.metric("traps") == result.sw_traps
        assert obs.metric("recalls") == result.recalls
        assert obs.metric("messages") == result.total_messages
        assert [s.cycles for s in obs.timeline] == result.epoch_times()

    def test_chrome_trace_acceptance_shape(self, spec):
        observer = Observer(chrome=True, meta={"name": "matmul/plain"})
        result, _ = run_program(
            spec.program, spec.config, spec.params_fn, observer=observer
        )
        trace = chrome_trace(result.obs)
        json.dumps(trace)  # must be serialisable as-is
        events = trace["traceEvents"]
        threads = [e for e in events
                   if e.get("ph") == "M" and e["name"] == "thread_name"]
        assert len(threads) == spec.config.num_nodes
        markers = [e for e in events if e.get("ph") == "i"]
        assert len(markers) == result.epochs


class TestChromeRecordingChangesNoOutput:
    @pytest.mark.parametrize("variant", ["plain", "cachier"])
    def test_observed_verified_outputs_identical(self, variant, tmp_path):
        mp3d = get_workload("mp3d")
        program = build_variants(mp3d, include_prefetch=False).programs[variant]
        outputs = []
        for chrome in (False, True):
            observer = Observer(chrome=chrome, profile=True, critpath=True,
                                meta={"name": f"mp3d/{variant}"})
            result, _ = run_program(
                program, mp3d.config, mp3d.params_fn, observer=observer,
                verify=True, verify_label=f"mp3d/{variant}",
            )
            obs = result.obs
            manifest = tmp_path / f"chrome-{chrome}.manifest.jsonl"
            write_manifest(obs, str(manifest))
            outputs.append({
                "metrics": obs.metrics,
                "timeline": [s.to_dict() for s in obs.timeline],
                "attrib": obs.attrib,
                "critpath": obs.critpath,
                "manifest": manifest.read_bytes(),
                "verify": result.extra["verify_report"].as_dict(),
            })
        off, on = outputs
        for key in off:
            assert off[key] == on[key], key
