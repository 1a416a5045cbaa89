"""The online invariant checker on real workload runs.

Clean runs verify clean (with every check class actually exercised), CICO
discipline findings surface as warnings on the annotated variants, strict
mode promotes them to failures, and the conservation pass catches a
tampered counter.
"""

from __future__ import annotations

import pytest

from repro.errors import VerifyError
from repro.harness.runner import RunSpec, execute, run_program
from repro.harness.variants import build_variants
from repro.lang.interp import Interpreter, SharedStore
from repro.machine.machine import Machine
from repro.obs.events import EventBus
from repro.verify import InvariantChecker
from repro.workloads.base import get_workload


@pytest.fixture(scope="module")
def mp3d_variants():
    return build_variants(get_workload("mp3d"))


def test_clean_run_verifies_clean():
    spec = get_workload("mp3d")
    result, _ = execute(RunSpec("mp3d", verify=True))
    report = result.extra["verify_report"]
    assert report.ok
    assert report.error is None
    assert report.label == "mp3d/plain"
    # every check class actually ran — a clean report with zero checks
    # means the checker was never wired up
    assert report.checks["swmr"] > 0
    assert report.checks["dir-cache-agreement"] > 0
    assert report.checks["epoch-consistency"] == result.epochs
    assert report.checks["conservation"] == 1
    # the bus delivered what the run counted
    assert report.events["barriers"] == result.epochs
    assert report.events["messages"] == result.total_messages
    assert report.events["node_done"] == spec.config.num_nodes
    assert report.events["hits"] == result.stats.hits


def test_clean_run_verifies_clean_under_faults():
    result, _ = execute(RunSpec("mp3d", verify=True, faults=1789))
    report = result.extra["verify_report"]
    assert report.ok
    assert report.checks["swmr"] > 0


def test_run_program_attaches_report():
    spec = get_workload("ocean")
    result, _ = run_program(
        spec.program, spec.config, spec.params_fn,
        verify=True, verify_label="ocean/plain",
    )
    report = result.extra["verify_report"]
    assert report.ok and report.label == "ocean/plain"


def test_cachier_variant_yields_cico_warnings(mp3d_variants):
    result = mp3d_variants.run("cachier", verify=True)
    report = result.extra["verify_report"]
    assert report.ok  # discipline findings are warnings, not failures
    assert report.warnings
    assert all("check" in w for w in report.warnings)


def test_strict_cico_promotes_warnings_to_failure(mp3d_variants):
    spec = mp3d_variants.spec
    with pytest.raises(VerifyError) as excinfo:
        run_program(
            mp3d_variants.programs["hand"], spec.config, spec.params_fn,
            verify=True, strict_verify=True, verify_label="mp3d/hand",
        )
    exc = excinfo.value
    assert exc.invariant == "cico-discipline"
    assert exc.node is not None and exc.block is not None
    # the failure carries the report built up to the violation
    assert exc.report.ok is False
    assert exc.report.error == str(exc)


def test_conservation_catches_tampered_counter():
    spec = get_workload("mp3d")
    store = SharedStore(spec.program, block_size=spec.config.block_size)
    interp = Interpreter(spec.program, store, params_fn=spec.params_fn)
    bus = EventBus()
    machine = Machine(spec.config, bus=bus)
    checker = InvariantChecker(machine.protocol, label="tamper")
    checker.subscribe(bus)
    result = machine.run(interp.kernel)
    result.sw_traps += 1  # simulate a dropped/double-counted event
    with pytest.raises(VerifyError) as excinfo:
        checker.finalize(result)
    assert excinfo.value.invariant == "conservation"
    assert "traps" in str(excinfo.value)


def test_report_as_dict_is_jsonable():
    import json

    result, _ = execute(RunSpec("mp3d", verify=True))
    payload = json.loads(json.dumps(result.extra["verify_report"].as_dict()))
    assert payload["ok"] is True
    assert payload["checks"]["conservation"] == 1
