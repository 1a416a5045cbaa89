"""Baseline store: bench records, BENCH file round-trip, regression diffs."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.errors import ObsError, WorkloadError
from repro.obs.baseline import (
    attrib_drift,
    bench_path,
    bench_workload,
    diff_benches,
    read_bench,
    render_diff,
    straggler_drift,
    write_bench,
)


@pytest.fixture(scope="module")
def mp3d_bench():
    # mp3d is the fastest Figure-6 workload; plain + cachier variants.
    return bench_workload("mp3d")


class TestBenchWorkload:
    def test_bench_record_shape(self, mp3d_bench):
        assert mp3d_bench["workload"] == "mp3d"
        assert set(mp3d_bench["variants"]) == {"plain", "cachier"}
        for record in mp3d_bench["variants"].values():
            assert record["cycles"] > 0
            assert set(record["misses"]) == {
                "read_miss", "write_miss", "write_fault",
            }
            assert record["attrib"], "attribution digest must be present"
            for digest in record["attrib"].values():
                assert set(digest) == {"misses", "stall_cycles"}

    def test_bench_record_carries_critical_path_digest(self, mp3d_bench):
        for record in mp3d_bench["variants"].values():
            assert 0.0 <= record["critical_path_fraction"] <= 1.0
            node, epochs = record["top_straggler"]
            assert node >= 0 and epochs >= 1

    def test_bench_is_deterministic(self, mp3d_bench):
        again = bench_workload("mp3d")
        assert again == mp3d_bench

    def test_annotations_help_mp3d(self, mp3d_bench):
        # The paper's headline: mp3d improves markedly under Cachier.
        assert (
            mp3d_bench["variants"]["cachier"]["cycles"]
            < mp3d_bench["variants"]["plain"]["cycles"]
        )

    def test_unknown_variant_raises(self):
        with pytest.raises(WorkloadError, match="has no 'nope' variant"):
            bench_workload("mp3d", variants=("plain", "nope"))


class TestBenchFiles:
    def test_write_read_round_trip(self, mp3d_bench, tmp_path):
        path = write_bench(mp3d_bench, str(tmp_path))
        assert path == bench_path(str(tmp_path), "mp3d")
        assert read_bench(path) == mp3d_bench

    def test_read_rejects_non_bench_json(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"cycles": 1}))
        with pytest.raises(ObsError, match="no 'variants' key"):
            read_bench(str(path))

    def test_read_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{not json")
        with pytest.raises(ObsError, match="cannot read"):
            read_bench(str(path))


class TestDiff:
    def test_identical_benches_report_zero_regressions(self, mp3d_bench):
        rows = diff_benches(mp3d_bench, mp3d_bench)
        assert len(rows) == 2
        assert all(not row.regression for row in rows)
        assert all(row.cycles_delta == 0.0 for row in rows)

    def test_regression_past_threshold_is_flagged(self, mp3d_bench):
        worse = copy.deepcopy(mp3d_bench)
        worse["variants"]["cachier"]["cycles"] = int(
            mp3d_bench["variants"]["cachier"]["cycles"] * 1.2
        )
        rows = diff_benches(mp3d_bench, worse, threshold=0.10)
        flagged = {row.variant: row.regression for row in rows}
        assert flagged == {"cachier": True, "plain": False}
        # A looser threshold absorbs the same delta.
        rows = diff_benches(mp3d_bench, worse, threshold=0.30)
        assert all(not row.regression for row in rows)

    def test_improvement_never_regresses(self, mp3d_bench):
        better = copy.deepcopy(mp3d_bench)
        better["variants"]["plain"]["cycles"] //= 2
        rows = diff_benches(mp3d_bench, better)
        assert all(not row.regression for row in rows)

    def test_extra_variant_is_skipped(self, mp3d_bench):
        current = copy.deepcopy(mp3d_bench)
        del current["variants"]["cachier"]
        rows = diff_benches(mp3d_bench, current)
        assert [row.variant for row in rows] == ["plain"]

    def test_negative_threshold_rejected(self, mp3d_bench):
        with pytest.raises(ObsError, match="non-negative"):
            diff_benches(mp3d_bench, mp3d_bench, threshold=-0.1)

    def test_render_diff_marks_regressions(self, mp3d_bench):
        worse = copy.deepcopy(mp3d_bench)
        worse["variants"]["cachier"]["cycles"] *= 2
        text = render_diff(diff_benches(mp3d_bench, worse), 0.10)
        assert "REGRESSION" in text and "ok" in text

    def test_attrib_drift_notes_changed_structures(self, mp3d_bench):
        drifted = copy.deepcopy(mp3d_bench)
        variant = drifted["variants"]["plain"]
        array = sorted(variant["attrib"])[0]
        variant["attrib"][array]["misses"] += 7
        notes = attrib_drift(mp3d_bench, drifted)
        assert any(array in note and "+7" in note for note in notes)
        assert attrib_drift(mp3d_bench, mp3d_bench) == []

    def test_straggler_drift_notes_fraction_and_crown_moves(self, mp3d_bench):
        assert straggler_drift(mp3d_bench, mp3d_bench) == []
        drifted = copy.deepcopy(mp3d_bench)
        variant = drifted["variants"]["plain"]
        variant["critical_path_fraction"] = max(
            0.0, variant["critical_path_fraction"] - 0.2
        )
        old_top = variant["top_straggler"][0]
        variant["top_straggler"] = [old_top + 1, 3]
        notes = straggler_drift(mp3d_bench, drifted)
        assert any("critical_path_fraction" in n for n in notes)
        assert any("top straggler moved" in n for n in notes)


class TestDiffExitCode:
    """``repro-obs diff`` is the CI gate: its exit code must be load-bearing."""

    def _dirs(self, mp3d_bench, tmp_path, cur_bench):
        base_dir = tmp_path / "base"
        cur_dir = tmp_path / "cur"
        write_bench(mp3d_bench, str(base_dir))
        write_bench(cur_bench, str(cur_dir))
        return str(base_dir), str(cur_dir)

    def test_regression_exits_nonzero(self, mp3d_bench, tmp_path, capsys):
        from repro.obs.cli import main

        worse = copy.deepcopy(mp3d_bench)
        worse["variants"]["plain"]["cycles"] = int(
            worse["variants"]["plain"]["cycles"] * 1.5
        )
        base_dir, cur_dir = self._dirs(mp3d_bench, tmp_path, worse)
        code = main(["diff", "--baseline", base_dir, "--against", cur_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "REGRESSION" in out and "regression(s)" in out

    def test_clean_diff_exits_zero(self, mp3d_bench, tmp_path, capsys):
        from repro.obs.cli import main

        base_dir, cur_dir = self._dirs(mp3d_bench, tmp_path, mp3d_bench)
        code = main(["diff", "--baseline", base_dir, "--against", cur_dir])
        assert code == 0
        assert "no regressions" in capsys.readouterr().out


class TestCommittedBaselines:
    def test_fresh_bench_matches_committed_baseline(self):
        # The CI gate in miniature: a fresh mp3d bench diffed against the
        # repository's committed baseline must report zero regressions.
        repo = Path(__file__).resolve().parents[2]
        baseline = read_bench(str(repo / "benchmarks/baselines/BENCH_mp3d.json"))
        current = bench_workload("mp3d")
        rows = diff_benches(baseline, current, threshold=0.10)
        assert rows and all(not row.regression for row in rows)
