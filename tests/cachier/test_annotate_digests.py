"""Cachier's outputs, pinned digest by digest.

Each registered workload is traced once at its default size.  Per trace the
fixture holds the sha-256 of

* the trace file text (``trace_to_string``),
* every epoch's :class:`EpochTable` sets (per node SW, SR, WF and the pc
  maps, plus the raw per-element readers and writers),
* every epoch's :class:`DrfsInfo`,

and, for every policy x prefetch x history {1, 2} combination, of the
annotated source (``unparse_program(..., declarations=True)``), the
sharing report, the :class:`Plan` (every op in order, and its warnings)
and the :class:`PresentationStats`.  Sets are serialized sorted, so a
digest depends only on what a stage computes, not on how it stores it.
The benchmark's oracle compares annotated sources too, but outside the
test suite; these digests also catch a swapped record field or a changed
intermediate set that happens to leave the source unchanged.  The fixture
``annotate_digests.json`` must only change when Cachier's behaviour
changes on purpose.

Re-record (refuses to overwrite an existing fixture without ``--force``)::

    PYTHONPATH=src python tests/cachier/test_annotate_digests.py --record [--force]
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
from repro.cachier.drfs import detect_all
from repro.cachier.epochs import EpochTable
from repro.harness.runner import trace_program
from repro.lang.unparse import unparse_program
from repro.trace.file_io import trace_to_string
from repro.workloads.base import get_workload, registry

FIXTURE = Path(__file__).with_name("annotate_digests.json")
WORKLOADS = sorted(registry())
COMBOS = [(policy, prefetch, history) for policy in Policy
          for prefetch in (False, True) for history in (1, 2)]


def combo_id(policy: Policy, prefetch: bool, history: int) -> str:
    return f"{policy.value}/pf{int(prefetch)}/h{history}"


def _flat(value):
    """A JSON-able, order-fixed rendering of ``value``."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value):
        return [type(value).__name__] + [
            _flat(getattr(value, f.name)) for f in dataclasses.fields(value)
        ]
    if isinstance(value, dict):
        return [[_flat(k), _flat(v)] for k, v in sorted(value.items())]
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_flat(v) for v in value]
    return value


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(_flat(value)).encode()).hexdigest()


def table_rows(table: EpochTable) -> list:
    rows = []
    for epoch in range(table.num_epochs):
        nodes = [
            [node, acc.sw, acc.sr, acc.wf, acc.read_pc, acc.write_pc]
            for node in table.nodes_in(epoch)
            for acc in (table.get(epoch, node),)
        ]
        raw = {
            base: {addr: [rec.readers, rec.writers]
                   for addr, rec in addrs.items()}
            for base, addrs in table.raw_in(epoch).items()
        }
        rows.append([epoch, nodes, raw])
    return rows


def record(spec) -> dict:
    """Trace ``spec`` once; digest the trace, its analysis and every
    combination's outputs."""
    trace = trace_program(spec.program, spec.config, spec.params_fn)
    table = EpochTable(trace)
    out = {
        "trace": hashlib.sha256(trace_to_string(trace).encode()).hexdigest(),
        "epochs": _sha(table_rows(table)),
        "drfs": _sha(detect_all(table)),
        "annotate": {},
    }
    cachier = Cachier(spec.program, trace, params_fn=spec.params_fn,
                      cache_size=spec.cachier_cache_size)
    for policy, prefetch, history in COMBOS:
        result = cachier.annotate(policy, prefetch=prefetch, history=history)
        source = unparse_program(result.program, declarations=True)
        out["annotate"][combo_id(policy, prefetch, history)] = {
            "source": hashlib.sha256(source.encode()).hexdigest(),
            "report": hashlib.sha256(result.report.render().encode()).hexdigest(),
            "plan": _sha(result.plan),
            "stats": _sha(result.stats),
        }
    return out


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_workload_and_combination():
    fixture = _fixture()
    assert sorted(fixture) == WORKLOADS
    ids = sorted(combo_id(*combo) for combo in COMBOS)
    for name, entry in fixture.items():
        assert sorted(entry["annotate"]) == ids, name


@pytest.mark.parametrize("name", WORKLOADS)
def test_outputs_match_fixture(name):
    want = _fixture()[name]
    got = record(get_workload(name))
    for stage in ("trace", "epochs", "drfs"):
        assert got[stage] == want[stage], f"{name}: {stage} digest differs"
    for combo, digests in want["annotate"].items():
        for part, digest in digests.items():
            assert got["annotate"][combo][part] == digest, (
                f"{name} {combo}: {part} digest differs"
            )


def main(argv: list[str]) -> int:
    if "--record" not in argv:
        print(__doc__)
        return 2
    if FIXTURE.exists() and "--force" not in argv:
        print(f"{FIXTURE} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    fixture = {name: record(get_workload(name)) for name in WORKLOADS}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(fixture)} workloads to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
