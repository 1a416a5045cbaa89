"""A figure6 sweep killed mid-way resumes to the same table and artefacts.

The sweep ledger (:class:`SweepState`) records each completed
(benchmark, variant) run; ``--resume`` skips straight past them.  The
resumed sweep must print the same cycles and leave byte-identical manifest
files as an uninterrupted one.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.errors import CheckpointError
from repro.harness.checkpoint import Checkpointer, SweepState
from repro.harness.figure6 import run_figure6
from repro.harness import runner


def _digests(directory):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.glob("*.manifest.jsonl"))
    }


def test_interrupted_sweep_resumes_to_same_table_and_manifests(
    tmp_path, monkeypatch
):
    full_obs = tmp_path / "obs-full"
    part_obs = tmp_path / "obs-part"
    full_ck = tmp_path / "ck-full"
    part_ck = tmp_path / "ck-part"

    rows_full = run_figure6(
        ["mp3d"], include_prefetch=False,
        obs_dir=str(full_obs), checkpoint_dir=str(full_ck),
    )

    # kill the sweep on its third variant run
    original = runner.execute
    calls = {"n": 0}

    def flaky(spec):
        if calls["n"] == 2:
            raise RuntimeError("simulated mid-sweep kill")
        calls["n"] += 1
        return original(spec)

    monkeypatch.setattr(runner, "execute", flaky)
    with pytest.raises(RuntimeError, match="mid-sweep kill"):
        run_figure6(
            ["mp3d"], include_prefetch=False,
            obs_dir=str(part_obs), checkpoint_dir=str(part_ck),
        )
    monkeypatch.setattr(runner, "execute", original)

    # the ledger survived the kill and records exactly the finished runs
    ledger = SweepState(str(part_ck)).load()
    assert len(ledger.completed) == 2
    assert all(key.startswith("mp3d/") for key in ledger.completed)

    rows_resumed = run_figure6(
        ["mp3d"], include_prefetch=False,
        obs_dir=str(part_obs), checkpoint_dir=str(part_ck), resume=True,
    )
    assert rows_resumed[0].cycles == rows_full[0].cycles
    assert _digests(part_obs) == _digests(full_obs)


def test_fully_completed_sweep_reruns_nothing(tmp_path, monkeypatch):
    ckdir = tmp_path / "ck"
    rows = run_figure6(
        ["mp3d"], include_prefetch=False, checkpoint_dir=str(ckdir)
    )

    def explode(spec):
        raise AssertionError("a completed variant was re-run")

    monkeypatch.setattr(runner, "execute", explode)
    resumed = run_figure6(
        ["mp3d"], include_prefetch=False, checkpoint_dir=str(ckdir),
        resume=True,
    )
    assert resumed[0].cycles == rows[0].cycles


def test_fresh_sweep_clears_stale_ledger(tmp_path):
    ckdir = tmp_path / "ck"
    state = SweepState(str(ckdir))
    state.mark("mp3d/plain", 123)  # stale entry from some earlier sweep
    # without --resume the ledger is wiped before running
    rows = run_figure6(
        ["mp3d"], include_prefetch=False, checkpoint_dir=str(ckdir)
    )
    assert rows[0].cycles["plain"] != 123
    assert SweepState(str(ckdir)).load().completed["mp3d/plain"] == rows[
        0
    ].cycles["plain"]


def test_corrupt_ledger_and_checkpoint_refused(tmp_path):
    state = SweepState(str(tmp_path))
    state.path.parent.mkdir(parents=True, exist_ok=True)
    state.path.write_text("{not json", encoding="ascii")
    with pytest.raises(CheckpointError, match="corrupt"):
        state.load()

    ckpt = Checkpointer(str(tmp_path), "run")
    ckpt.path.write_text("[1, 2]", encoding="ascii")
    with pytest.raises(CheckpointError, match="corrupt"):
        ckpt.load()


def test_checkpointer_missing_file_is_first_run(tmp_path):
    assert Checkpointer(str(tmp_path), "never-saved").load() is None
    assert SweepState(str(tmp_path / "nowhere")).load().completed == {}
