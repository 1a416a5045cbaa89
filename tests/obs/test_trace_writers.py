"""Every command that writes a Chrome trace writes spans into it.

Chrome recording is opt-in (``Observer(chrome=True)``), so each trace
writer must turn it on.  A trace of an observation recorded without it
holds only the track metadata, which a byte compare of two such traces
cannot tell apart from a good one; these tests open each written trace
and require at least one ``X`` span and one barrier marker.  The
``cachier-annotate --trace-out`` case lives in ``tests/cachier/test_cli.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import figure6
from repro.obs.cli import main


def assert_trace_has_spans(path) -> None:
    events = json.loads(Path(path).read_text())["traceEvents"]
    assert any(e.get("ph") == "X" for e in events), f"{path}: no spans"
    assert any(
        e.get("ph") == "i" and e["name"].startswith("barrier/")
        for e in events
    ), f"{path}: no barrier marker"


def test_run_trace_out(tmp_path, capsys):
    path = tmp_path / "run.trace.json"
    assert main(["run", "--workload", "mp3d", "--trace-out", str(path)]) == 0
    assert_trace_has_spans(path)


def test_critpath_trace_out(tmp_path, capsys):
    path = tmp_path / "crit.trace.json"
    assert main(["critpath", "--workload", "mp3d",
                 "--trace-out", str(path)]) == 0
    assert_trace_has_spans(path)


def test_bench_trace_dir(tmp_path, capsys):
    traces = tmp_path / "traces"
    assert main(["bench", "--workload", "mp3d", "--out-dir",
                 str(tmp_path / "out"), "--trace-dir", str(traces)]) == 0
    written = sorted(traces.glob("*.trace.json"))
    assert written
    for path in written:
        assert_trace_has_spans(path)


def test_figure6_obs_dir(tmp_path, capsys):
    obs_dir = tmp_path / "obs"
    assert figure6.main(["--benchmark", "mp3d", "--no-prefetch", "--jobs",
                         "1", "--obs-dir", str(obs_dir)]) == 0
    written = sorted(obs_dir.glob("*.trace.json"))
    assert len(written) == 3  # plain, hand, cachier
    for path in written:
        assert_trace_has_spans(path)


def test_include_hits_requires_trace_out(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "mp3d", "--include-hits"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: --include-hits requires --trace-out" in err
