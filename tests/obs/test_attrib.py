"""Source-level attribution report: conservation and audit.

The load-bearing property is *conservation*: every miss, stall cycle, trap,
recall and message the bus-level metrics count must land in exactly one
attribution cell — the per-structure/per-line/per-epoch views are
re-aggregations, never estimates.  Checked per Figure-6 workload.
"""

from __future__ import annotations

import pytest

from repro.harness.figure6 import FIG6_BENCHMARKS
from repro.harness.runner import run_program, trace_program
from repro.obs.attrib import (
    UNLABELLED,
    folded_stacks,
    profile_trace,
    render_profile,
)
from repro.obs.session import Observer
from repro.workloads.base import get_workload


def _profiled_run(spec, program=None):
    observer = Observer(
        chrome=False, profile=True, meta={"name": spec.name}
    )
    result, _ = run_program(
        program if program is not None else spec.program,
        spec.config,
        spec.params_fn,
        observer=observer,
    )
    obs = observer.observation
    assert obs is not None and obs.attrib is not None
    return result, obs


def _assert_conserved(obs):
    totals = obs.attrib["totals"]
    m = obs.metrics
    assert totals["read_miss"] == m["accesses.read_miss"]
    assert totals["write_miss"] == m["accesses.write_miss"]
    assert totals["write_fault"] == m["accesses.write_fault"]
    assert totals["hits"] == m["accesses.hit"]
    assert totals["misses"] == m["miss_latency"]["count"]
    assert totals["stall_cycles"] == m["miss_latency"]["sum"]
    assert totals["traps"] == m["traps"]
    assert totals["trap_copies"] == m["traps.copies_invalidated"]
    assert totals["recalls"] == m["recalls"]
    assert totals["recalls_dirty"] == m["recalls.dirty"]
    assert totals["messages"] == m["messages"]
    assert totals["lock_acquires"] == m["locks.acquired"]
    assert totals["lock_wait_cycles"] == m["lock_wait"]["sum"]
    # The structure and line views re-aggregate the same cells.
    for view in ("structures", "lines"):
        assert sum(r["misses"] for r in obs.attrib[view]) == totals["misses"]
        assert (
            sum(r["stall_cycles"] for r in obs.attrib[view])
            == totals["stall_cycles"]
        )
    assert (
        sum(e["misses"] for e in obs.attrib["epochs"]) == totals["misses"]
    )
    # Per-node message totals reconcile at both granularities: within each
    # epoch they re-aggregate the epoch's message count, and over the run
    # they re-aggregate the bus-level counter.
    for epoch in obs.attrib["epochs"]:
        assert (
            sum(count for _, count in epoch["messages_by_node"])
            == epoch["messages"]
        )
    per_node: dict[int, int] = {}
    for epoch in obs.attrib["epochs"]:
        for node, count in epoch["messages_by_node"]:
            per_node[node] = per_node.get(node, 0) + count
    assert sum(per_node.values()) == m["messages"]
    # Demand traffic is stamped with the requesting node; only barrier-time
    # flushes may fall outside a transaction (node -1).
    assert all(node >= -1 for node in per_node)


class TestConservation:
    @pytest.mark.parametrize("name", FIG6_BENCHMARKS)
    def test_plain_run_conserves_bus_metrics(self, name):
        spec = get_workload(name)
        _, obs = _profiled_run(spec)
        _assert_conserved(obs)
        # Every address resolved: shared arrays are all auto-labelled.
        assert all(
            r["array"] != UNLABELLED for r in obs.attrib["structures"]
        )

    def test_annotated_run_conserves_directives_and_traps(self):
        from repro.harness.variants import CACHIER, build_variants

        spec = get_workload("matmul")
        variants = build_variants(spec, include_prefetch=False)
        _, obs = _profiled_run(spec, variants.programs[CACHIER])
        _assert_conserved(obs)
        # dir_issues is per *block* named by a directive, so it reconciles
        # with the bus-level block counter, not the directive counter.
        assert obs.attrib["totals"]["dir_issues"] == (
            obs.metrics["directives.blocks"]
        )


class TestProfileReport:
    @pytest.fixture(scope="class")
    def matmul_obs(self):
        spec = get_workload("matmul")
        _, obs = _profiled_run(spec)
        return obs

    def test_names_hot_structure_and_source_line(self, matmul_obs):
        report = matmul_obs.attrib
        hottest = report["structures"][0]
        assert hottest["array"] in {"A", "B", "C"}
        top_line = report["lines"][0]
        assert top_line["line"] is not None and top_line["line"] > 0
        assert top_line["array"] in top_line["source"]

    def test_footprints_symbolized(self, matmul_obs):
        by_name = {r["array"]: r for r in matmul_obs.attrib["structures"]}
        assert by_name["A"]["footprint"] is not None
        assert by_name["A"]["footprint"].startswith("A[")

    def test_epochs_carry_barrier_labels(self, matmul_obs):
        labels = [e["label"] for e in matmul_obs.attrib["epochs"]]
        assert "init_done" in labels and "compute_done" in labels

    def test_render_and_folded_stacks(self, matmul_obs):
        text = render_profile(matmul_obs.attrib)
        assert "hot structures" in text and "annotation audit" in text
        stacks = folded_stacks(matmul_obs.attrib)
        weights = [int(line.rsplit(" ", 1)[1]) for line in stacks.splitlines()]
        assert sum(weights) == matmul_obs.attrib["totals"]["stall_cycles"]


class TestAnnotationAudit:
    def test_cachier_matmul_audit_is_clean(self):
        from repro.harness.variants import CACHIER, build_variants

        spec = get_workload("matmul")
        variants = build_variants(spec, include_prefetch=False)
        _, obs = _profiled_run(spec, variants.programs[CACHIER])
        audit = obs.attrib["audit"]
        assert audit["checkouts"] > 0 and audit["checkins"] > 0
        # Cachier's annotations are exact: everything checked out is used,
        # nothing is checked in and then missed again.
        assert audit["useless_checkouts"] == 0
        assert audit["premature_checkins"] == 0
        assert max(audit["coverage_by_epoch"]) > 0.0

    def test_plain_run_has_zero_coverage(self):
        spec = get_workload("mp3d")
        _, obs = _profiled_run(spec)
        audit = obs.attrib["audit"]
        assert audit["checkouts"] == 0
        # Coverage is None for epochs that acquired nothing, 0.0 otherwise.
        assert all(not c for c in audit["coverage_by_epoch"])


class TestOfflineTraceProfile:
    def test_trace_join_matches_trace_contents(self):
        spec = get_workload("mp3d")
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        report = profile_trace(trace, program=spec.program, name="mp3d/trace")
        assert report["totals"]["misses"] == len(trace.misses)
        # Trace mode carries no latencies.
        assert report["totals"]["stall_cycles"] == 0
        assert report["structures"]
        labels = [e["label"] for e in report["epochs"]]
        assert any(labels)

    def test_trace_misses_enter_their_epochs_audit(self):
        """Each epoch's audit counts the distinct (node, block) pairs its
        trace misses acquired, as the live join does."""
        spec = get_workload("mp3d")
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        report = profile_trace(trace, program=spec.program)
        shift = trace.block_size.bit_length() - 1
        pairs: dict[int, set] = {}
        for rec in trace.misses:
            pairs.setdefault(rec.epoch, set()).add((rec.node, rec.addr >> shift))
        assert [e["missed_pairs"] for e in report["epochs"]] == [
            len(pairs.get(e["epoch"], ())) for e in report["epochs"]
        ]
        assert report["epochs"][0]["missed_pairs"] > 0
        assert all(e["coverage"] == 0.0 for e in report["epochs"]
                   if e["missed_pairs"])


class TestObservedRunStaysIdentical:
    def test_profiling_does_not_perturb_cycles(self):
        spec = get_workload("mp3d")
        plain, _ = run_program(spec.program, spec.config, spec.params_fn)
        profiled, obs = _profiled_run(spec)
        assert profiled.cycles == plain.cycles
        assert profiled.stats == plain.stats
        assert profiled.traffic == plain.traffic
