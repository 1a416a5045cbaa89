"""cachier-annotate CLI: source-file specs, cache-geometry flags, obs flags."""

from __future__ import annotations

import json

import pytest

from repro.cachier import cli

SOURCE = """\
array GRID[64] elem=4 order=C

if me == 0 then
    for i = 0 to 63 do
        GRID[i] = i % 9
    od
fi
barrier  /* seeded */
s = 0
for i = Lo to Hi do
    s = s + GRID[i]
od
"""

PARAMS = json.dumps({
    "0": {"Lo": 0, "Hi": 15},
    "1": {"Lo": 16, "Hi": 31},
})


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "reduce.src"
    path.write_text(SOURCE)
    return str(path)


class TestSpecFromSource:
    def test_cache_geometry_flags_reach_the_config(self, source_file):
        class Args:
            source = source_file
            params = PARAMS
            nodes = 2
            cache_size = 2048
            block_size = 16
            assoc = 2

        spec = cli._spec_from_source(Args)
        assert spec.config.num_nodes == 2
        assert spec.config.cache_size == 2048
        assert spec.config.block_size == 16
        assert spec.config.assoc == 2
        assert spec.params_fn(0) == {"Lo": 0, "Hi": 15}
        assert spec.params_fn(7) == {}

    def test_params_accepts_a_file_path(self, source_file, tmp_path):
        params_path = tmp_path / "params.json"
        params_path.write_text(PARAMS)

        class Args:
            source = source_file
            params = str(params_path)
            nodes = 2
            cache_size = 8192
            block_size = 32
            assoc = 4

        spec = cli._spec_from_source(Args)
        assert spec.params_fn(1) == {"Lo": 16, "Hi": 31}


class TestMain:
    def test_source_run_with_geometry_flags(self, source_file, capsys):
        rc = cli.main([
            "--source", source_file, "--params", PARAMS, "--nodes", "2",
            "--cache-size", "2048", "--block-size", "16", "--assoc", "2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "check_out" in out or "annotations:" in out

    def test_obs_flag_prints_epoch_table(self, capsys):
        rc = cli.main(["--workload", "matmul_racing", "--obs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "observed matmul_racing" in out
        assert "per-epoch activity" in out

    def test_trace_out_writes_chrome_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        rc = cli.main([
            "--workload", "matmul_racing", "--trace-out", str(trace_path),
        ])
        assert rc == 0
        events = json.loads(trace_path.read_text())["traceEvents"]
        assert any(e.get("ph") == "M" and e["name"] == "thread_name"
                   for e in events)
        assert any(e.get("ph") == "X" for e in events), "no spans"
        assert any(e.get("ph") == "i" and e["name"].startswith("barrier/")
                   for e in events), "no barrier marker"
