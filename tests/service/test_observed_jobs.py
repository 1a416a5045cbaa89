"""The service's observed jobs write the same bytes as the CLIs.

A ``bench``, ``profile``, ``critpath`` or ``verify`` job runs one named
variant the way ``repro-obs bench``, ``repro-obs profile --json``,
``repro-obs critpath --json`` and ``repro-verify --report-out`` do, so
each artifact must equal what those tools write for the same run: the
committed ``BENCH_mp3d.json`` baseline, the two ``mp3d-cachier`` reports
pinned in ``obs_reports.sha256``, and the verifier's report entry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.service.jobs import execute_job, list_artifacts, normalize_spec

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
RUN = {"workload": "mp3d", "variant": "cachier"}


def _pinned_digest(name: str) -> str:
    for line in (BASELINES / "obs_reports.sha256").read_text().splitlines():
        digest, path = line.split()
        if path.endswith(f"/{name}"):
            return digest
    raise AssertionError(f"{name} is not pinned in obs_reports.sha256")


@pytest.fixture(scope="module")
def jobs(tmp_path_factory):
    """{kind: (result JSON, artifact dir)} for the four observed kinds."""
    root = tmp_path_factory.mktemp("observed-jobs")
    out = {}
    for kind, params in (("bench", {"workload": "mp3d"}), ("profile", RUN),
                         ("critpath", RUN), ("verify", RUN)):
        artifact_dir = root / kind
        result = execute_job(normalize_spec(kind, params), str(artifact_dir))
        out[kind] = (json.loads(json.dumps(result)), artifact_dir)
    return out


def test_each_kind_writes_its_artifact_set(jobs):
    assert {kind: list_artifacts(str(path))
            for kind, (_, path) in jobs.items()} == {
        "bench": ["BENCH_mp3d.json"],
        "profile": ["attrib.json"],
        "critpath": ["critpath.json"],
        "verify": ["verify.json"],
    }


def test_bench_job_matches_committed_baseline(jobs):
    result, path = jobs["bench"]
    written = (path / "BENCH_mp3d.json").read_bytes()
    assert written == (BASELINES / "BENCH_mp3d.json").read_bytes()
    bench = json.loads(written)
    assert result == {
        "workload": "mp3d",
        "bench_file": "BENCH_mp3d.json",
        "cycles": {v: rec["cycles"] for v, rec in bench["variants"].items()},
    }


@pytest.mark.parametrize("kind,artifact,command", [
    ("profile", "attrib.json", "profile"),
    ("critpath", "critpath.json", "critpath"),
])
def test_report_jobs_match_repro_obs_json(jobs, capsys, kind, artifact,
                                          command):
    from repro.obs.cli import main

    written = (jobs[kind][1] / artifact).read_bytes()
    assert main([command, "--workload", "mp3d", "--variant", "cachier",
                 "--json"]) == 0
    assert written == capsys.readouterr().out.encode()
    assert hashlib.sha256(written).hexdigest() == _pinned_digest(
        f"mp3d-cachier.{command}.json")


def test_report_job_results(jobs):
    bench = json.loads((jobs["bench"][1] / "BENCH_mp3d.json").read_text())
    cycles = bench["variants"]["cachier"]["cycles"]
    attrib = json.loads((jobs["profile"][1] / "attrib.json").read_text())
    assert jobs["profile"][0] == {
        "cycles": cycles,
        "epochs": bench["variants"]["cachier"]["epochs"],
        "hot_structures": [row["array"] for row in attrib["structures"][:3]
                           if row["misses"]],
    }
    critpath = json.loads((jobs["critpath"][1] / "critpath.json").read_text())
    assert jobs["critpath"][0] == {
        "cycles": cycles,
        "critical_path_fraction": critpath["critical_path_fraction"],
        "straggler_epochs": critpath["straggler_epochs"][:3],
    }


def test_verify_job_matches_repro_verify_report(jobs, tmp_path, capsys):
    from repro.verify.cli import main

    out = tmp_path / "report.json"
    assert main(["--workload", "mp3d", "--variant", "cachier",
                 "--report-out", str(out)]) == 0
    capsys.readouterr()
    [entry] = json.loads(out.read_text())["runs"]
    result, path = jobs["verify"]
    assert json.loads((path / "verify.json").read_text()) == entry
    assert result == {
        "ok": True,
        "label": "mp3d/cachier",
        "checks": sum(entry["checks"].values()),
        "warnings": len(entry["warnings"]),
    }
