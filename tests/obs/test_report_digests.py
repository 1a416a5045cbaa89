"""The attribution and critical-path reports, pinned digest by digest.

Each case runs a program under an observer and records the sha-256 of
``json.dumps(report, sort_keys=True)`` for every report the observer was
asked for: ``attrib`` (``Observer(profile=True)``) and ``critpath``
(``Observer(critpath=True)``).  The cases cover the five workloads of
``bus_streams.json`` under plain and cachier+pf with both reports, the
profile-only and critpath-only observers on two of them, the offline
``profile_trace`` join of each plain trace, and one hand-written program
whose single directive spans two arrays.  Cycle counts and BENCH digests
see only a few numbers of each report; these digests see all of it, so
a refactor of the reports' bookkeeping must leave them unchanged.

Re-record (refuses to overwrite an existing fixture without ``--force``)::

    PYTHONPATH=src python tests/obs/test_report_digests.py --record [--force]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.harness.runner import run_program, trace_program
from repro.lang.ast import ArrayDecl
from repro.lang.parse import parse_program
from repro.machine.config import MachineConfig
from repro.obs.attrib import profile_trace
from repro.obs.session import Observer
from repro.workloads.base import get_workload

FIXTURE = Path(__file__).with_name("report_digests.json")

#: the workloads and test sizes of tests/obs/test_bus_stream.py
WORKLOADS = {
    "mp3d": dict(nparticles=32, ncells=16, steps=2, num_nodes=4),
    "ocean": dict(n=16, steps=2, num_nodes=8),
    "barnes": dict(nbodies=32, ntree=16, nlist=4, steps=2, num_nodes=4),
    "matmul_racing": dict(),
    "matmul_restructured": dict(),
}
#: (workload/variant) -> observer flags beyond profile + critpath
SINGLE_REPORT = {
    "mp3d/cachier+pf": ("profile", "critpath"),
    "matmul_restructured/plain": ("profile", "critpath"),
}
CASE_IDS = sorted(
    [f"{name}/{variant}" for name in WORKLOADS
     for variant in ("plain", "cachier+pf")]
    + [f"{case}/{flag}-only" for case, flags in SINGLE_REPORT.items()
       for flag in flags]
    + [f"{name}/trace" for name in WORKLOADS]
    + ["two_arrays/hand"]
)

#: every node reads all of A and B (four blocks each, so four sharers per
#: block); then node 0 checks both arrays out exclusively in one directive,
#: which traps once per block to invalidate the other three copies
TWO_ARRAYS_SOURCE = """\
for i = 0 to 15 do
    s = A[i] + B[i]
od
barrier  /* shared */
if me == 0 then
    check_out_X A[0:15], B[0:15]
fi
"""


def two_arrays_program():
    program = parse_program(
        TWO_ARRAYS_SOURCE,
        {"A": ArrayDecl("A", (16,)), "B": ArrayDecl("B", (16,))},
        name="two_arrays",
    )
    config = MachineConfig(num_nodes=4, cache_size=4096, block_size=32,
                           assoc=2)
    return program, config


def digest(report: dict) -> str:
    return hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()


def _observed(program, config, params_fn, name, **flags) -> dict:
    observer = Observer(meta={"name": name}, **flags)
    run_program(program, config, params_fn, observer=observer)
    obs = observer.observation
    out = {}
    if flags.get("profile"):
        out["attrib"] = digest(obs.attrib)
    if flags.get("critpath"):
        out["critpath"] = digest(obs.critpath)
    return out


def _cases():
    """(case id, thunk returning {report name: digest}) for every case."""
    for name, kwargs in WORKLOADS.items():
        spec = get_workload(name, **kwargs)
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        annotated = Cachier(
            spec.program, trace, params_fn=spec.params_fn,
            cache_size=spec.cachier_cache_size,
        ).annotate(Policy.PERFORMANCE, prefetch=True)
        programs = {"plain": spec.program, "cachier+pf": annotated.program}
        for variant, program in programs.items():
            case = f"{name}/{variant}"

            def both(program=program, spec=spec, case=case):
                return _observed(program, spec.config, spec.params_fn, case,
                                 profile=True, critpath=True)

            yield case, both
            for flag in SINGLE_REPORT.get(case, ()):

                def single(program=program, spec=spec, case=case, flag=flag):
                    return _observed(program, spec.config, spec.params_fn,
                                     case, **{flag: True})

                yield f"{case}/{flag}-only", single

        def offline(trace=trace, spec=spec, name=name):
            return {"attrib": digest(profile_trace(
                trace, program=spec.program, name=f"{name}/trace",
            ))}

        yield f"{name}/trace", offline

    def two_arrays():
        program, config = two_arrays_program()
        return _observed(program, config, None, "two_arrays",
                         profile=True, critpath=True)

    yield "two_arrays/hand", two_arrays


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def cases() -> dict:
    return dict(_cases())


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_report_digest_matches_fixture(case_id, cases):
    assert cases[case_id]() == _fixture()[case_id], (
        f"{case_id}: a report differs from the recorded one"
    )


def test_fixture_covers_every_case(cases):
    assert sorted(_fixture()) == sorted(cases) == CASE_IDS


def test_two_array_directive_charges_each_array_its_own_traps():
    """Both reports charge each trap to its own block's array, and the
    directive's issue cycles to its first block's array."""
    program, config = two_arrays_program()
    observer = Observer(profile=True, critpath=True)
    run_program(program, config, observer=observer)
    obs = observer.observation
    by_array = {r["array"]: r for r in obs.attrib["structures"]}
    assert by_array["A"]["traps"] == by_array["B"]["traps"] == 4
    cycles = by_array["A"]["dir_cycles"]
    assert cycles > 0 == by_array["B"]["dir_cycles"]
    checkout = obs.critpath["epochs"][1]
    assert checkout["critical_node"] == 0
    # (array, cause) -> [cycles, count, traps, recalls]
    sites = {(s[0], s[2]): s[3:] for s in checkout["sites"]}
    assert sites == {("A", "directive"): [cycles, 1, 4, 0],
                     ("B", "directive"): [0, 0, 4, 0]}
    assert checkout["stall_cycles"] == cycles


def main(argv: list[str]) -> int:
    if "--record" not in argv:
        print(__doc__)
        return 2
    if FIXTURE.exists() and "--force" not in argv:
        print(f"{FIXTURE} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    fixture = {case_id: run() for case_id, run in _cases()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(fixture)} cases to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
