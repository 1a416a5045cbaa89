"""The parallel sweep is provably byte-identical to the serial one.

This is the tier-1 twin of the ``sweep-parallel`` CI job: a figure6 sweep
run at ``--jobs 2`` must leave exactly the same bytes on disk — per-run
JSONL manifests, Chrome traces, the ``figure6.sweep.json`` ledger — and
render exactly the same table as the ``--jobs 1`` in-process path.  It
also pins the failure contract: an injected worker crash fails only its
own run, the sweep completes with a structured error row, and a resumed
sweep re-runs only the missing work.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import PoolError
from repro.harness.checkpoint import SweepState
from repro.harness.figure6 import (
    render_figure6,
    run_figure6,
    sweep_figure6,
)
from repro.harness.pool import CRASH_ENV

#: quick single-benchmark sweep (3 variants) every test here uses
BENCH = ["mp3d"]
KW = dict(include_prefetch=False)


def _tree_digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def test_parallel_sweep_is_byte_identical_to_serial(tmp_path, monkeypatch):
    monkeypatch.delenv(CRASH_ENV, raising=False)
    serial_obs, serial_ck = tmp_path / "s-obs", tmp_path / "s-ck"
    par_obs, par_ck = tmp_path / "p-obs", tmp_path / "p-ck"

    rows_serial = run_figure6(
        BENCH, obs_dir=str(serial_obs), checkpoint_dir=str(serial_ck),
        jobs=1, **KW,
    )
    rows_parallel = run_figure6(
        BENCH, obs_dir=str(par_obs), checkpoint_dir=str(par_ck),
        jobs=2, **KW,
    )

    # the rendered table is identical, cell for cell
    assert render_figure6(rows_serial) == render_figure6(rows_parallel)
    assert rows_serial[0].cycles == rows_parallel[0].cycles
    # every manifest and Chrome trace is the same bytes
    assert _tree_digests(serial_obs) == _tree_digests(par_obs)
    assert len(_tree_digests(serial_obs)) == 6  # 3 variants x (trace, manifest)
    # and so is the sweep ledger (same keys, same order, same cycles)
    assert (serial_ck / "figure6.sweep.json").read_bytes() == (
        par_ck / "figure6.sweep.json"
    ).read_bytes()


def test_crashed_parallel_sweep_completes_and_resumes(tmp_path, monkeypatch):
    ck = tmp_path / "ck"
    obs = tmp_path / "obs"

    monkeypatch.setenv(CRASH_ENV, "mp3d/hand")
    sweep = sweep_figure6(
        BENCH, obs_dir=str(obs), checkpoint_dir=str(ck), jobs=2, **KW,
    )
    # the crash fails only its own run; the others completed and the table
    # renders with a hole where the crashed variant would be
    assert [out.task.key for out in sweep.errors] == ["mp3d/hand"]
    assert sweep.errors[0].error["crash"] is True
    assert sweep.errors[0].attempts == 2
    assert set(sweep.rows[0].cycles) == {"plain", "cachier"}
    mp3d_row = render_figure6(sweep.rows).splitlines()[-1]
    assert mp3d_row.split()[:3] == ["mp3d", "1.000", "-"]  # hand is a hole
    # the ledger recorded exactly the completed runs
    ledger = SweepState(str(ck)).load()
    assert set(ledger.completed) == {"mp3d/plain", "mp3d/cachier"}

    # run_figure6 (the raising wrapper) surfaces the failure as PoolError
    monkeypatch.setenv(CRASH_ENV, "mp3d/hand")
    with pytest.raises(PoolError, match="mp3d/hand"):
        run_figure6(BENCH, jobs=2, **KW)

    # resume with the crash cleared: only the missing run executes, and the
    # completed table matches an uninterrupted sweep
    monkeypatch.delenv(CRASH_ENV)
    calls = []
    from repro.harness import pool as pool_mod

    real_exec = pool_mod._EXECUTORS["run"]

    def counting_exec(**kwargs):
        calls.append(kwargs["spec"].label)
        return real_exec(**kwargs)

    monkeypatch.setitem(pool_mod._EXECUTORS, "run", counting_exec)
    resumed = run_figure6(
        BENCH, obs_dir=str(obs), checkpoint_dir=str(ck), resume=True,
        jobs=1, **KW,
    )
    assert calls == ["mp3d/hand"]  # only the missing run was re-run
    reference = run_figure6(BENCH, jobs=1, **KW)
    assert resumed[0].cycles == reference[0].cycles


def test_parallel_resume_skips_ledgered_runs(tmp_path, monkeypatch):
    monkeypatch.delenv(CRASH_ENV, raising=False)
    ck = tmp_path / "ck"
    full = run_figure6(BENCH, checkpoint_dir=str(ck), jobs=2, **KW)

    # a fully-ledgered parallel resume submits nothing at all
    from repro.harness import pool as pool_mod

    def explode(**kwargs):
        raise AssertionError("a completed run was resubmitted")

    monkeypatch.setitem(pool_mod._EXECUTORS, "run", explode)
    resumed = run_figure6(
        BENCH, checkpoint_dir=str(ck), resume=True, jobs=2, **KW,
    )
    assert resumed[0].cycles == full[0].cycles


def test_resume_refuses_conflicting_ledger(tmp_path):
    from repro.errors import CheckpointError

    ck = tmp_path / "ck"
    state = SweepState(str(ck))
    state.mark("tomcatv/cachier", 999)  # a run this sweep will not plan
    with pytest.raises(CheckpointError, match="ledger conflict"):
        sweep_figure6(BENCH, checkpoint_dir=str(ck), resume=True, **KW)
