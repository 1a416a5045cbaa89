"""Critical-path analysis: conservation, slack, what-if ranking, flows.

The load-bearing property is again *conservation*: per epoch, the critical
node's decomposition (barrier overhead + attributed stall + compute) must
re-aggregate to exactly the epoch length that ``RunResult.epoch_times``
reports — the straggler view is a re-expression of the run, never an
estimate.  On top of that sit the behavioural claims: the what-if ranking
orders candidate CICO sites by *epoch-time* savings and therefore disagrees
with the raw miss-count ranking, and observation stays free.
"""

from __future__ import annotations

import pytest

from repro.coherence.costs import CostModel
from repro.harness.figure6 import FIG6_BENCHMARKS
from repro.harness.runner import run_program
from repro.machine.config import MachineConfig
from repro.machine.events import EV_BARRIER, EV_REF
from repro.machine.machine import Machine
from repro.obs.attrib import StallLedger
from repro.obs.critpath import (
    COHERENCE_CAUSES,
    critpath_report,
    miss_ranking,
    render_critpath,
    what_if_ranking,
)
from repro.obs.events import EventBus
from repro.obs.session import NETWORK_PID, Observer
from repro.workloads.base import get_workload

BASE = 0x1000_0000
COST = CostModel()


def _critpath_run(spec, program=None, chrome=False):
    observer = Observer(
        chrome=chrome, critpath=True, meta={"name": spec.name}
    )
    result, _ = run_program(
        program if program is not None else spec.program,
        spec.config,
        spec.params_fn,
        observer=observer,
    )
    obs = observer.observation
    assert obs is not None and obs.critpath is not None
    return result, obs


def _assert_conserved(result, report):
    assert [r["cycles"] for r in report["epochs"]] == result.epoch_times()
    for rec in report["epochs"]:
        assert rec["stall_cycles"] >= 0
        assert rec["compute_cycles"] >= 0, (
            f"epoch {rec['epoch']}: critical node charged more stall than "
            f"the epoch holds"
        )
        assert (
            rec["barrier_overhead"]
            + rec["stall_cycles"]
            + rec["compute_cycles"]
            == rec["cycles"]
        )
        slack = dict((n, s) for n, s in rec["slack"])
        if rec["critical_node"] is not None:
            assert slack[rec["critical_node"]] == 0
        if rec["runner_up"] is not None:
            assert rec["runner_up_slack"] == slack[rec["runner_up"]]
    assert 0.0 <= report["critical_path_fraction"] <= 1.0
    assert report["cycles"] == result.cycles


class TestConservation:
    @pytest.mark.parametrize("name", FIG6_BENCHMARKS)
    def test_epoch_cycles_match_epoch_times_exactly(self, name):
        spec = get_workload(name)
        result, obs = _critpath_run(spec)
        _assert_conserved(result, obs.critpath)

    def test_annotated_run_conserves_too(self):
        from repro.harness.variants import CACHIER, build_variants

        spec = get_workload("matmul")
        variants = build_variants(spec, include_prefetch=False)
        result, obs = _critpath_run(spec, variants.programs[CACHIER])
        _assert_conserved(result, obs.critpath)


class TestWhatIfRanking:
    @pytest.fixture(scope="class")
    def mp3d_report(self):
        _, obs = _critpath_run(get_workload("mp3d"))
        return obs.critpath

    def test_ranking_differs_from_raw_miss_counts(self, mp3d_report):
        # The whole point: the site with the most misses (CELL's lockstep
        # collision phase) is NOT the site whose removal shortens epochs
        # the most, because its epochs have no runner-up slack to reclaim.
        what_if = what_if_ranking(mp3d_report)
        by_miss = miss_ranking(mp3d_report)
        assert what_if and by_miss
        top_savings = (what_if[0]["array"], what_if[0]["pc"])
        top_misses = (by_miss[0]["array"], by_miss[0]["pc"])
        assert top_savings != top_misses

    def test_savings_are_capped_by_runner_up_slack(self, mp3d_report):
        for row in what_if_ranking(mp3d_report):
            assert 0 <= row["est_savings"] <= row["stall_cycles"]
            assert set(row["causes"]) <= COHERENCE_CAUSES
        savings = [r["est_savings"] for r in what_if_ranking(mp3d_report)]
        assert savings == sorted(savings, reverse=True)

    def test_report_embeds_ranking_with_source_lines(self, mp3d_report):
        assert mp3d_report["what_if"] == what_if_ranking(mp3d_report)
        assert any(r["line"] is not None for r in mp3d_report["what_if"])

    def test_straggler_summary_counts_every_epoch_once(self, mp3d_report):
        counted = sum(c for _, c in mp3d_report["straggler_epochs"])
        with_crit = sum(
            1 for r in mp3d_report["epochs"]
            if r["critical_node"] is not None
        )
        assert counted == with_crit

    def test_render_names_the_tables(self, mp3d_report):
        text = render_critpath(mp3d_report, top=5)
        assert "per-epoch critical path" in text
        assert "what-if ranking" in text
        assert "raw miss-count ranking" in text


class TestObservationIsFree:
    def test_observed_run_is_cycle_identical(self):
        spec = get_workload("mp3d")
        bare, _ = run_program(spec.program, spec.config, spec.params_fn)
        observed, obs = _critpath_run(spec, chrome=True)
        assert observed.cycles == bare.cycles
        assert observed.epochs == bare.epochs
        assert obs.critpath["cycles"] == bare.cycles


class TestSyntheticSlack:
    """Hand-built 2-node run with known arrival skew."""

    def _run(self):
        def kernel(nid):
            yield (EV_REF, 100 + 100 * nid, -1, False, -1)
            yield (EV_BARRIER, 0, 1)
            yield (EV_REF, 10, -1, False, -1)

        bus = EventBus()
        ledger = StallLedger(attribution=False)
        ledger.attach(bus)
        config = MachineConfig(
            num_nodes=2, cache_size=4096, block_size=32, assoc=2
        )
        result = Machine(config, bus=bus).run(kernel)
        ledger.finalize(result.cycles)
        return result, critpath_report(ledger, name="synthetic")

    def test_straggler_and_slack(self):
        result, report = self._run()
        first = report["epochs"][0]
        compute = COST.compute_cycles
        # Node 1 computed 100 units longer: it is the epoch's critical
        # node and node 0 idled exactly that long at the barrier.
        assert first["critical_node"] == 1
        assert first["runner_up"] == 0
        assert dict((n, s) for n, s in first["slack"]) == {
            0: 100 * compute, 1: 0,
        }
        assert first["runner_up_slack"] == 100 * compute
        assert first["stall_cycles"] == 0  # no shared references
        _assert_conserved(result, report)

    def test_final_partial_epoch_ties_break_to_lowest_node(self):
        _, report = self._run()
        final = report["epochs"][-1]
        assert final["label"] == "final"
        # Both nodes finish the post-barrier tail simultaneously.
        assert final["critical_node"] == 0
        assert all(s == 0 for _, s in final["slack"])

    def test_slack_histogram_counts_every_arrival(self):
        _, report = self._run()
        hist = report["slack_histogram"]
        # Two nodes at the barrier plus two node-done arrivals.
        assert hist["count"] == 4
        assert hist["sum"] == 100 * COST.compute_cycles


class TestFlowArrows:
    @pytest.fixture(scope="class")
    def sharing_obs(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 1)  # own the block dirty
                yield (EV_BARRIER, 0, 2)
            else:
                yield (EV_BARRIER, 0, 2)
                yield (EV_REF, 0, BASE, False, 3)  # recall from node 0

        observer = Observer(chrome=True, meta={"name": "flows"})
        config = MachineConfig(
            num_nodes=2, cache_size=4096, block_size=32, assoc=2
        )
        result = Machine(config, bus=observer.bus).run(kernel)
        observer.finalize(result)
        return observer.observation

    def test_spans_live_on_per_node_processes(self, sharing_obs):
        spans = [e for e in sharing_obs.trace_events
                 if e.get("ph") == "X" and e.get("cat") == "mem"]
        assert spans
        for span in spans:
            assert span["pid"] == span["tid"]

    def test_recall_transaction_flows_across_tracks(self, sharing_obs):
        events = sharing_obs.trace_events
        miss = next(
            e for e in events
            if e.get("name") == "read_miss" and e["args"]["detail"] == "recall"
        )
        txn = miss["args"]["txn"]
        flow = [e for e in events
                if e.get("cat") == "coh" and e.get("id") == txn]
        phases = [e["ph"] for e in flow]
        assert phases[0] == "s" and phases[-1] == "f"
        assert "t" in phases
        # Start anchors at the requester's miss span...
        assert flow[0]["pid"] == miss["pid"]
        assert flow[0]["ts"] == miss["ts"]
        # ...steps through the recall-service span on the owner's track...
        service = next(e for e in events if e.get("name") == "recall service")
        assert service["pid"] == 0  # node 0 owned the block
        assert service["args"]["txn"] == txn
        # ...and finishes on the network track's message span.
        assert flow[-1]["pid"] == NETWORK_PID
        net = [e for e in events
               if e.get("cat") == "net" and e["args"].get("txn") == txn]
        assert len(net) == 1 and net[0]["pid"] == NETWORK_PID

    def test_export_orders_node_processes_numerically(self, sharing_obs):
        from repro.obs.export import chrome_trace

        trace = chrome_trace(sharing_obs)
        sort_meta = {
            e["pid"]: e["args"]["sort_index"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_sort_index"
        }
        assert sort_meta[0] == 0 and sort_meta[1] == 1
        assert sort_meta[NETWORK_PID] == NETWORK_PID
        names = {
            e["pid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert names[NETWORK_PID].endswith("network")
        assert "node 0" in names[0] and "node 1" in names[1]

    def test_unshared_misses_still_close_their_flows(self):
        # A plain memory miss has no trap/recall helpers: the flow must
        # still start on the miss span and finish on the network span.
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 1)

        observer = Observer(chrome=True, meta={"name": "plainmiss"})
        config = MachineConfig(
            num_nodes=2, cache_size=4096, block_size=32, assoc=2
        )
        result = Machine(config, bus=observer.bus).run(kernel)
        observer.finalize(result)
        events = observer.observation.trace_events
        starts = [e for e in events if e.get("ph") == "s"]
        finishes = [e for e in events if e.get("ph") == "f"]
        assert len(starts) == 1 and len(finishes) == 1
        assert starts[0]["id"] == finishes[0]["id"]
        assert finishes[0]["pid"] == NETWORK_PID


class TestManifestRecord:
    def test_critpath_record_round_trips(self, tmp_path):
        from repro.obs.export import read_manifest, write_manifest

        spec = get_workload("matmul")
        _, obs = _critpath_run(spec)
        path = tmp_path / "run.manifest.jsonl"
        write_manifest(obs, str(path))
        records = read_manifest(str(path))
        crit = next(r for r in records if r["type"] == "critpath")
        assert crit["critpath"]["cycles"] == obs.cycles
        # The stored record feeds the estimators unchanged.
        assert what_if_ranking(crit["critpath"]) == crit["critpath"]["what_if"]
