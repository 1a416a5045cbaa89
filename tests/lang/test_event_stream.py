"""The interpreter's event stream, pinned digest by digest.

For each program below, every node's exact sequence of kernel event tuples
(what :class:`~repro.machine.machine.Machine` consumes) is hashed, and so
is the final shared memory.  Cycle counts alone can hide two compute-count
errors that cancel out; these digests cannot.  The fixture
``event_streams.json`` was recorded once and must only change when the
event protocol itself changes on purpose.

Re-record (refuses to overwrite an existing fixture without ``--force``)::

    PYTHONPATH=src python tests/lang/test_event_stream.py --record [--force]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.lang.interp import Interpreter, SharedStore
from repro.lang.parse import parse_program
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.workloads.base import get_workload

FIXTURE = Path(__file__).with_name("event_streams.json")

#: workload -> test-size keyword arguments
WORKLOADS = {
    "matmul": dict(n=8, num_nodes=4),
    "barnes": dict(nbodies=32, ntree=16, nlist=4, steps=2, num_nodes=4),
    "ocean": dict(n=16, steps=2, num_nodes=8),
    "mp3d": dict(nparticles=32, ncells=16, steps=2, num_nodes=4),
    "tomcatv": dict(n=16, rows_per_node=4, steps=2, num_nodes=4),
    "matmul_racing": dict(),
    "jacobi": dict(n=8, steps=2, num_nodes=4),
    "fft": dict(n=16, num_nodes=4),
    "matmul_restructured": dict(),
}

#: Every statement kind, operator and intrinsic; F-order, 3-D and
#: 4-byte-element arrays; private arrays in both orders; impure indices,
#: conditions and call arguments; clipped and strided annotation targets.
KITCHEN_SINK = """\
array S[4, 6] elem=8 order=F
array T[2, 3, 4] elem=8 order=C
array V[24] elem=8 order=C
array W[4, 4] elem=4 order=C
array L[4] elem=8 order=C
array P[3, 5] elem=8 order=F private
array Q[8] elem=8 order=C private

func fill(k, v):
  for j = 0 to 5 do
    S[k, j] = v * j + me
  od

func main():
  for i = me to 3 step 2 do
    call fill(i, i + 1 + V[0])
  od
  barrier
  while V[me] < 3 do
    V[me] = V[me] + 1
  od
  if me == 0 then
    for a = 0 to 1 do
      for b = 0 to 2 do
        for c = 0 to 3 do
          T[a, b, c] = S[b, c] * 0.5 + a - c // 2 + c % 3
        od
      od
    od
  fi
  for r = 0 to 2 do
    for c = 0 to 4 do
      P[r, c] = r * 10 + c + S[r, c]
    od
  od
  Q[me] = P[2, 4] / 3
  y = Q[me] + P[1, 3]
  V[4 + me] = y
  V[8 + me] = sqrt(abs(-y)) + floor(exp(0.5)) + sin(y) + cos(y) - not (y > 1)
  w = min(y, 3) + max(y, 4) + (y >= 1 and y <= 100) + (y == 2 or y != 3)
  V[10 + me] = w + y // 7 + y % 5 + y / 4
  z = V[me] * 2
  V[V[me] + 13] = z
  if V[me] > 2 then
    V[18 + me] = 1
  else
    V[18 + me] = 2
  fi
  W[me, me + 1] = T[1, 2, 3] + 0.25
  check_out_X S[me, 0:5]
  check_out_S T[0:1, 1, 0:3:2]
  prefetch_S V[0:23:4]
  prefetch_X W[me, 0:3]
  check_in S[me, 0:5]
  check_in V[20:40]
  lock L[0]
  V[23] = V[23] + 1
  unlock L[0]
  barrier
  x = 0
  while x < 3 do
    x = x + 1
    V[20 + me] = V[20 + me] + x * Q[me]
  od
"""


def _cases():
    """(case id, program, machine config, params_fn) for every pinned run."""
    for name, kwargs in WORKLOADS.items():
        spec = get_workload(name, **kwargs)
        variants = {
            "plain": spec.program,
            "hand": spec.hand_program,
            "hand+pf": spec.hand_prefetch_program,
        }
        for variant, program in variants.items():
            if program is not None:
                yield f"{name}/{variant}", program, spec.config, spec.params_fn
    yield (
        "kitchen_sink/plain",
        parse_program(KITCHEN_SINK, name="kitchen_sink"),
        MachineConfig(num_nodes=2, cache_size=1024, block_size=32, assoc=2),
        lambda node: {},
    )


def record(program, config, params_fn) -> dict:
    """Run ``program`` and digest each node's event tuples and the final
    shared memory."""
    store = SharedStore(program, block_size=config.block_size)
    interp = Interpreter(program, store, params_fn=params_fn)
    hashes = [hashlib.sha256() for _ in range(config.num_nodes)]
    counts = [0] * config.num_nodes

    def kernel(node):
        digest = hashes[node]
        for event in interp.kernel(node):
            digest.update(repr(event).encode() + b"\n")
            counts[node] += 1
            yield event

    result = Machine(config).run(kernel)
    memory = hashlib.sha256()
    for name in sorted(store.values):
        memory.update(name.encode() + b"\0" + store.values[name].tobytes())
    return {
        "cycles": result.cycles,
        "events": counts,
        "nodes": [digest.hexdigest() for digest in hashes],
        "memory": memory.hexdigest(),
    }


def _fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case_id", sorted(_fixture()))
def test_event_stream_matches_fixture(case_id):
    expected = _fixture()[case_id]
    _, program, config, params_fn = next(
        case for case in _cases() if case[0] == case_id
    )
    got = record(program, config, params_fn)
    assert got["events"] == expected["events"]
    assert got["cycles"] == expected["cycles"]
    for node, (have, want) in enumerate(zip(got["nodes"], expected["nodes"])):
        assert have == want, f"{case_id}: node {node} event stream differs"
    assert got["memory"] == expected["memory"]


def test_fixture_covers_every_case():
    assert sorted(_fixture()) == sorted(case[0] for case in _cases())


def main(argv: list[str]) -> int:
    if "--record" not in argv:
        print(__doc__)
        return 2
    if FIXTURE.exists() and "--force" not in argv:
        print(f"{FIXTURE} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    fixture = {case_id: record(program, config, params_fn)
               for case_id, program, config, params_fn in _cases()}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(fixture)} cases to {FIXTURE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
