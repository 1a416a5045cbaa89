"""Tests of the end-to-end benchmark itself, on small sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from benchmarks.e2e import compare, metrics, run
from benchmarks.e2e.service import WARM, Service
from benchmarks.e2e.spans import SpanTracer
from benchmarks.e2e.workloads import Annotate, Fig6, make_spec, measure
from repro.harness import runner
from repro.machine.machine import Machine

#: sizes small enough that a whole workload pass takes well under a second
SMALL = {
    "mp3d": {"nparticles": 32, "ncells": 16, "steps": 2, "num_nodes": 4},
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared() -> dict:
    return json.loads(metrics.BENCHMARK_JSON.read_text(encoding="utf-8"))


def test_emitted_names_are_declared():
    spec = _declared()
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        wl = Annotate(1, {}, sizes=SMALL, benchmarks=("mp3d",))
        result = run.run_workload("annotate", 1, 0, trace, workload=wl,
                                  setup_samples=1)
        record = result["record"]
        assert record["correct"], record["problems"]
        declared = {m["name"]: m for m in spec[section]}
        assert set(record["metrics"]) == set(declared)
        for name, value in record["metrics"].items():
            assert NAME.fullmatch(name), name
            assert value["unit"] == declared[name]["unit"]
            if section == "end_to_end":
                assert 0 < declared[name]["bound"] <= 0.25
                assert value["value"] > 0


def test_self_times_sum_to_op_span(tmp_path):
    wl = Annotate(1, {}, sizes=SMALL, benchmarks=("mp3d",))
    wl.setup(tmp_path)
    spec = make_spec("mp3d", 1, SMALL)
    original = Machine.__dict__["run"]
    tracer = SpanTracer()
    with tracer.installed():
        with tracer.op("annotate") as annotate_op:
            wl.run("mp3d/performance/pf1/h2")
        with tracer.op("timing") as timing_op:
            runner.run_program(spec.program, spec.config, spec.params_fn)
    assert Machine.__dict__["run"] is original  # wrappers removed
    for op in (annotate_op, timing_op):
        args = op["args"]
        assert sum(args["self_ns"].values()) == args["dur_ns"]
        assert all(isinstance(ns, int) for ns in args["self_ns"].values())
    assert {"trace.read", "cachier.epochs", "cachier.placement",
            "lang.unparse"} <= set(annotate_op["args"]["self_ns"])
    assert {"harness", "machine", "interp", "coherence",
            "cache"} <= set(timing_op["args"]["self_ns"])
    recorded = [e for e in tracer.chrome_trace() if e["ph"] == "X"]
    assert {e["args"]["op"] for e in recorded} == {1, 2}


def test_perturbed_cycle_fails_the_op(tmp_path):
    def fig6(oracle):
        wl = Fig6(1, oracle, sizes=SMALL, benchmarks=("mp3d",))
        wl.setup(tmp_path)
        return wl, measure(wl, 0, 1)

    wl, clean = fig6({})
    assert (clean.attempted, clean.failed) == (5, 0)  # build + 4 variants
    oracle = {"1": {"fig6": {"mp3d": dict(wl.cycles["mp3d"])}}}
    assert (fig6(oracle)[1].failed) == 0
    oracle["1"]["fig6"]["mp3d"]["cachier"] += 1
    _, bad = fig6(oracle)
    assert (bad.attempted, bad.failed) == (5, 1)
    assert "cycles" in bad.problems[0]


def test_oracle_matches_committed_baselines():
    oracle = run.load_expected()
    assert {"1", "2"} <= set(oracle)
    baselines = metrics.ROOT / "benchmarks" / "baselines"
    for name in ("matmul", "mp3d", "ocean"):
        bench = json.loads((baselines / f"BENCH_{name}.json").read_text())
        for variant, rec in bench["variants"].items():
            assert oracle["1"]["fig6"][name][variant] == rec["cycles"]
    # seed 2 is the held-out seed: its data moves mp3d and barnes
    for name in ("mp3d", "barnes"):
        assert oracle["1"]["fig6"][name] != oracle["2"]["fig6"][name]


def test_scaled_times_use_the_probes_around_each_op(monkeypatch):
    probes = iter([0.01, 0.03])
    monkeypatch.setattr(metrics, "speed_probe", lambda: next(probes))
    times = metrics.ScaledTimes()
    times.add("op", 2.0)  # well within PROBE_EVERY_S: no probe yet
    times.flush()
    assert times.by_item == {"op": [2.0 * metrics.PROBE_REF_S / 0.02]}


def test_compare_verdicts():
    spec = {"workloads": [{"name": "w"}], "end_to_end": [
        {"name": "op_ms.p50", "unit": "ms", "better": "lower", "bound": 0.05},
    ]}

    def records(values, failed=0):
        return [{"workload": "w", "failed": failed,
                 "metrics": {"op_ms.p50": {"value": v, "unit": "ms"}}}
                for v in values]

    def verdict(parent, change, **kw):
        (row,) = compare.compare(records(parent), records(change, **kw), spec)
        return row["verdict"]

    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert verdict(parent, [v * 0.8 for v in parent]) == "gain"
    assert verdict(parent, [v * 0.8 for v in parent], failed=1) != "gain"
    assert verdict(parent, list(parent)) == "unchanged"
    assert verdict(parent, [v * 1.2 for v in parent]) == "regressed"
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(parent, noisy) == "unresolved"
    # nine wins in ten are not enough with fewer than ten pairs
    assert verdict(parent[:5], [v * 0.8 for v in parent[:5]]) == "unchanged"


def test_service_short_schedule(tmp_path):
    wl = Service(1, {}, seconds=2, warm=WARM[:2])
    wl.setup(tmp_path)
    try:
        load = wl.measure()
        bad, problems = wl.check_writes(load["finished"])
    finally:
        wl.teardown()
    assert wl.daemon.proc is None
    assert load["failed"] == 0 and bad == 0, load["problems"] + problems
    assert sum(map(len, load["hit_ms"].values())) == wl.n_hits
    assert len(load["finished"]) == wl.n_colds
    assert load["attempted"] == wl.n_hits + wl.n_colds
    assert load["hits"] == wl.n_hits  # every read was a cache hit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(metrics.BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(Path(run.__file__).parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fig6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
