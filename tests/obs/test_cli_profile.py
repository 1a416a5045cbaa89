"""CLI surface: ``repro-obs profile`` golden output, ``bench``/``diff``
round-trip, and ``summarize`` robustness on damaged manifests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import ObsError
from repro.obs.cli import main
from repro.obs.export import read_manifest

GOLDEN = Path(__file__).parent / "golden" / "profile_mp3d_plain.txt"
BASELINES = Path(__file__).parents[2] / "benchmarks" / "baselines"


class TestProfileCommand:
    def test_matches_golden_output(self, capsys):
        # The simulator is deterministic, so the full rendered profile of
        # mp3d/plain is stable byte-for-byte.
        assert main(["profile", "--workload", "mp3d", "--variant", "plain"]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text()

    def test_json_output_parses_and_conserves(self, capsys):
        assert main(["profile", "--workload", "mp3d", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["totals"]["misses"] == sum(
            r["misses"] for r in report["structures"]
        )

    def test_folded_stacks_format(self, capsys):
        assert main(["profile", "--workload", "mp3d", "--folded"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out
        for line in out:
            stack, weight = line.rsplit(" ", 1)
            assert stack.count(";") == 2
            assert int(weight) > 0

    def test_trace_mode_profile(self, capsys):
        assert main(["profile", "--workload", "mp3d", "--trace-mode"]) == 0
        assert "hot structures" in capsys.readouterr().out


class TestBenchAndDiffCommands:
    def test_bench_then_diff_is_clean(self, tmp_path, capsys):
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["bench", "--workload", "mp3d", "--out-dir", out_a]) == 0
        assert main(["bench", "--workload", "mp3d", "--out-dir", out_b]) == 0
        assert main(["diff", "--baseline", out_a, "--against", out_b]) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_diff_exits_nonzero_on_regression(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        assert main(["bench", "--workload", "mp3d",
                     "--out-dir", str(out_a)]) == 0
        out_b = tmp_path / "b"
        out_b.mkdir()
        bench = json.loads((out_a / "BENCH_mp3d.json").read_text())
        bench["variants"]["plain"]["cycles"] *= 2
        (out_b / "BENCH_mp3d.json").write_text(json.dumps(bench))
        assert main(["diff", "--baseline", str(out_a),
                     "--against", str(out_b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_diff_requires_baseline_files(self, tmp_path, capsys):
        # a tool error, not exit 1, which means "regression found"
        assert main(["diff", "--baseline", str(tmp_path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"repro-obs: error: no BENCH_*.json files under "
                        f"{tmp_path}")

    def test_diff_that_compares_nothing_fails(self, tmp_path, capsys):
        # Baselines present, but no current bench matches any of them: the
        # gate must not report "no regressions" over zero comparisons.
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["diff", "--baseline", str(BASELINES),
                     "--against", str(empty)]) == 2
        captured = capsys.readouterr()
        assert "no regressions" not in captured.out
        [line] = captured.err.splitlines()
        assert line.startswith("repro-obs: error: ")
        assert str(BASELINES) in line and str(empty) in line


class TestToolErrors:
    def test_unknown_variant_is_a_tool_error(self, capsys):
        assert main(["run", "--workload", "mp3d", "--variant", "hand+pf"]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(
            "repro-obs: error: workload 'mp3d' has no 'hand+pf' variant")


class TestSummarizeRobustness:
    def test_manifest_without_run_record_is_a_tool_error(self, tmp_path,
                                                         capsys):
        path = tmp_path / "other.jsonl"
        path.write_text('{"type": "epoch", "epoch": 0}\n')
        assert main(["summarize", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line == (f"repro-obs: error: {path}: no 'run' record — "
                        f"not a manifest?")

    def test_empty_manifest_reports_no_records(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["summarize", str(path)]) == 1
        assert "no records" in capsys.readouterr().out

    def test_truncated_trailing_line_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "cut.jsonl"
        path.write_text(
            '{"type": "run", "meta": {"name": "x"}, "num_nodes": 2, '
            '"cycles": 10, "epochs": 1}\n'
            '{"type": "epoch", "epo'  # writer died mid-record
        )
        assert main(["summarize", str(path)]) == 0
        assert "x: 2 nodes" in capsys.readouterr().out

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('\n{"a": 1}\n\n{"b": 2}\n\n')
        assert read_manifest(str(path)) == [{"a": 1}, {"b": 2}]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        path.write_text('{"a": 1}\n{oops\n{"b": 2}\n')
        with pytest.raises(ObsError, match="corrupt.jsonl:2"):
            read_manifest(str(path))

    def test_only_a_truncated_line_counts_as_empty(self, tmp_path, capsys):
        path = tmp_path / "stub.jsonl"
        path.write_text('{"type": "ru')
        assert main(["summarize", str(path)]) == 1
        assert "no records" in capsys.readouterr().out
