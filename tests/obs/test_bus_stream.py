"""The obs bus's event stream, pinned digest by digest.

For each case below, an observed and verified run (``Observer(profile=True,
critpath=True)`` plus ``verify=True``) publishes every event kind, and one
subscriber per kind hashes every event it is handed, in publication order,
one digest per kind.  An access is published once, on the topic its
outcome names (READ_HIT, WRITE_HIT, PREFETCH_HIT or MISS); the ACCESS
digest is a tap on all four, so it covers every access in publication
order.  Each event is serialized as its type name plus its
field values in field order, so the digest does not depend on how an event
type is implemented, only on what it carries.  Cycle counts and BENCH
files cannot catch two swapped fields of the same type (say ``t`` and
``epoch``); these digests can.  The fixture ``bus_streams.json`` must only
change when the event vocabulary itself changes on purpose.

Re-record (refuses to overwrite an existing fixture without ``--force``)::

    PYTHONPATH=src python tests/obs/test_bus_stream.py --record [--force]
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.cachier.annotator import Cachier, Policy
from repro.harness.runner import run_program, trace_program
from repro.obs.events import EventKind
from repro.obs.session import Observer
from repro.workloads.base import get_workload

FIXTURE = Path(__file__).with_name("bus_streams.json")

#: workload -> test-size keyword arguments (matmul_racing brings races,
#: matmul_restructured the lock events)
WORKLOADS = {
    "mp3d": dict(nparticles=32, ncells=16, steps=2, num_nodes=4),
    "ocean": dict(n=16, steps=2, num_nodes=8),
    "barnes": dict(nbodies=32, ntree=16, nlist=4, steps=2, num_nodes=4),
    "matmul_racing": dict(),
    "matmul_restructured": dict(),
}
CASE_IDS = [f"{name}/{variant}" for name in WORKLOADS
            for variant in ("plain", "cachier+pf")]


def _cases():
    """(case id, program, workload spec) for every pinned run."""
    for name, kwargs in WORKLOADS.items():
        spec = get_workload(name, **kwargs)
        yield f"{name}/plain", spec.program, spec
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        annotated = Cachier(
            spec.program, trace, params_fn=spec.params_fn,
            cache_size=spec.cachier_cache_size,
        ).annotate(Policy.PERFORMANCE, prefetch=True)
        yield f"{name}/cachier+pf", annotated.program, spec


def _flat(value):
    """A JSON-able, order-fixed rendering of one field value."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        return [_flat(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return [[_flat(k), _flat(v)] for k, v in sorted(value.items())]
    if isinstance(value, tuple):
        return [_flat(v) for v in value]
    return value


def encode(event) -> bytes:
    """One event as its type name plus its field values in field order."""
    names = getattr(type(event), "_fields", None)
    if names is None:
        names = [f.name for f in dataclasses.fields(event)]
    values = [_flat(getattr(event, name)) for name in names]
    return json.dumps([type(event).__name__, values]).encode() + b"\n"


def record(program, spec) -> dict:
    """Run ``program`` observed and verified; digest the bus per kind."""
    observer = Observer(profile=True, critpath=True)
    digests: dict = {}
    counts: dict[str, int] = {}

    def tap(kind: str):
        def record_event(event) -> None:
            if kind not in digests:
                digests[kind] = hashlib.sha256()
                counts[kind] = 0
            digests[kind].update(encode(event))
            counts[kind] += 1
        return record_event

    for kind in EventKind:
        observer.bus.subscribe((kind,), tap(kind.name))
    run_program(program, spec.config, spec.params_fn, observer=observer,
                verify=True)
    return {
        kind: {"count": counts[kind], "sha256": digests[kind].hexdigest()}
        for kind in sorted(digests)
    }


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def cases() -> dict:
    return {case_id: (program, spec) for case_id, program, spec in _cases()}


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_bus_stream_matches_fixture(case_id, cases):
    expected = _fixture()[case_id]
    got = record(*cases[case_id])
    assert {k: v["count"] for k, v in got.items()} == {
        k: v["count"] for k, v in expected.items()
    }
    for kind, want in expected.items():
        assert got[kind]["sha256"] == want["sha256"], (
            f"{case_id}: {kind} event stream differs"
        )


def test_fixture_covers_every_case_and_kind(cases):
    fixture = _fixture()
    assert sorted(fixture) == sorted(cases) == sorted(CASE_IDS)
    kinds = {kind for streams in fixture.values() for kind in streams}
    assert kinds == {kind.name for kind in EventKind}


def main(argv: list[str]) -> int:
    if "--record" not in argv:
        print(__doc__)
        return 2
    if FIXTURE.exists() and "--force" not in argv:
        print(f"{FIXTURE} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    fixture = {case_id: record(program, spec)
               for case_id, program, spec in _cases()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(fixture)} cases to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
