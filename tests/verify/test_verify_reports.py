"""What the online verifier reports, pinned report by report.

The other verifier tests assert that checks ran (``checks[...] > 0``) and
that a few event totals reconcile; this one pins the whole
``VerifyReport.as_dict()`` — every check count, every event count and the
exact warning list — for three kinds of run:

* the ten observed, verified runs of ``tests/obs/bus_streams.json``
  (plain and cachier+pf of five workloads at test size), plus mp3d's
  hand-annotated variant, whose early check-ins draw premature-check-in
  findings;
* a fault-injected run (``faults_seed``);
* a run resumed from a barrier checkpoint, whose counts start at the
  resume point.

A change to which events the verifier reads must leave every report as it
is.  Re-record (refuses to overwrite the fixture without ``--force``)::

    PYTHONPATH=src python tests/verify/test_verify_reports.py --record [--force]
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.harness.checkpoint import Checkpointer
from repro.harness.runner import run_program, trace_program
from repro.obs.session import Observer
from repro.workloads.base import get_workload

FIXTURE = Path(__file__).with_name("verify_reports.json")

#: the workloads and test sizes of tests/obs/test_bus_stream.py
WORKLOADS = {
    "mp3d": dict(nparticles=32, ncells=16, steps=2, num_nodes=4),
    "ocean": dict(n=16, steps=2, num_nodes=8),
    "barnes": dict(nbodies=32, ntree=16, nlist=4, steps=2, num_nodes=4),
    "matmul_racing": dict(),
    "matmul_restructured": dict(),
}
OBSERVED_IDS = [f"{name}/{variant}" for name in WORKLOADS
                for variant in ("plain", "cachier+pf")] + ["mp3d/hand"]
FAULTS_ID = "mp3d/plain+faults1789"
RESUMED_ID = "ocean/plain+resumed@2"
CASE_IDS = OBSERVED_IDS + [FAULTS_ID, RESUMED_ID]


class _Killed(Exception):
    """Stands in for a kill right after a checkpoint was written."""


def _observed(program, spec) -> dict:
    result, _ = run_program(
        program, spec.config, spec.params_fn,
        observer=Observer(profile=True, critpath=True), verify=True,
    )
    return result.extra["verify_report"].as_dict()


def _faults() -> dict:
    spec = get_workload("mp3d", **WORKLOADS["mp3d"])
    result, _ = run_program(spec.program, spec.config, spec.params_fn,
                            faults_seed=1789, verify=True)
    return result.extra["verify_report"].as_dict()


def _resumed(kill_after: int = 2) -> dict:
    """ocean killed after its second checkpoint, then resumed verified."""
    spec = get_workload("ocean", **WORKLOADS["ocean"])
    save = Checkpointer.save
    saved: list[int] = []

    def save_then_kill(self, snapshot):
        save(self, snapshot)
        saved.append(snapshot["epoch"])
        if len(saved) == kill_after:
            raise _Killed

    with tempfile.TemporaryDirectory() as ckdir:
        Checkpointer.save = save_then_kill
        try:
            run_program(spec.program, spec.config, spec.params_fn,
                        checkpoint_dir=ckdir)
        except _Killed:
            pass
        finally:
            Checkpointer.save = save
        result, _ = run_program(spec.program, spec.config, spec.params_fn,
                                verify=True, checkpoint_dir=ckdir,
                                resume=True)
    return result.extra["verify_report"].as_dict()


def _observed_cases():
    for name, kwargs in WORKLOADS.items():
        spec = get_workload(name, **kwargs)
        yield f"{name}/plain", spec.program, spec
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        annotated = Cachier(
            spec.program, trace, params_fn=spec.params_fn,
            cache_size=spec.cachier_cache_size,
        ).annotate(Policy.PERFORMANCE, prefetch=True)
        yield f"{name}/cachier+pf", annotated.program, spec
        if name == "mp3d":
            yield "mp3d/hand", spec.hand_program, spec


def record_all() -> dict:
    reports = {case_id: _observed(program, spec)
               for case_id, program, spec in _observed_cases()}
    reports[FAULTS_ID] = _faults()
    reports[RESUMED_ID] = _resumed()
    return reports


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def observed_cases() -> dict:
    return {case_id: (program, spec)
            for case_id, program, spec in _observed_cases()}


@pytest.mark.parametrize("case_id", OBSERVED_IDS)
def test_observed_report_matches_fixture(case_id, observed_cases):
    assert _observed(*observed_cases[case_id]) == _fixture()[case_id]


def test_fault_injected_report_matches_fixture():
    assert _faults() == _fixture()[FAULTS_ID]


def test_resumed_report_matches_fixture():
    assert _resumed() == _fixture()[RESUMED_ID]


def test_fixture_covers_every_case_and_exercises_the_checks():
    fixture = _fixture()
    assert sorted(fixture) == sorted(CASE_IDS)
    for case_id, report in fixture.items():
        assert report["ok"], case_id
        assert report["checks"]["swmr"] > 0, case_id
    # both kinds of CICO finding are pinned, not just empty lists
    warnings = [w for report in fixture.values() for w in report["warnings"]]
    assert any("premature check-in" in w for w in warnings)
    assert any("never checked it in" in w for w in warnings)


def main(argv: list[str]) -> int:
    if "--record" not in argv:
        print(__doc__)
        return 2
    if FIXTURE.exists() and "--force" not in argv:
        print(f"{FIXTURE} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    fixture = record_all()
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(fixture)} reports to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
