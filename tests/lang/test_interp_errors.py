"""When the interpreter raises: only when the faulty code executes.

The annotation service runs source that clients submit, so a fault in a
branch that is never taken must not reject a program that runs; the same
fault raises :class:`InterpError` as soon as its branch is taken.
"""

from __future__ import annotations

import pytest

from repro.errors import InterpError, LabelError
from repro.lang.interp import Interpreter, SharedStore
from repro.lang.parse import parse_program
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine

DECLS = """\
array A[4] elem=8 order=C
array OUT[2] elem=8 order=C
array P[4, 4] elem=8 order=C private
"""


def run(text: str, nodes: int = 2):
    program = parse_program(DECLS + text)
    cfg = MachineConfig(num_nodes=nodes, cache_size=1024, block_size=32,
                        assoc=2)
    store = SharedStore(program, block_size=cfg.block_size)
    result = Machine(cfg).run(Interpreter(program, store).kernel)
    return result, store


def guarded(node: int, body: str) -> str:
    """``body`` inside ``if me == node`` (node 99 never takes it)."""
    return f"if me == {node} then\n{body}fi\nOUT[1] = 7\n"


SHARED_LOAD_IN_FOR_BOUND = """\
  for i = 0 to A[0] do
    A[1] = i
  od
"""
PRIVATE_CICO_TARGET = "  check_in P[0, 0:3]\n"
SHARED_LOAD_IN_CICO_TARGET = "  check_in A[A[0]]\n"
BAD_CALL = "  call helper(1)\n"
HELPER = "func helper(x, y):\n  A[2] = x + y\n\nfunc main():\n"

FAULTS = {
    "shared load in a for bound": (
        "", SHARED_LOAD_IN_FOR_BOUND, "must not touch shared memory"),
    "call with the wrong number of arguments": (
        HELPER, BAD_CALL, "expected 2 args, got 1"),
    "CICO target on a private array": (
        "", PRIVATE_CICO_TARGET, "CICO annotation on private array 'P'"),
    "shared load in a CICO target": (
        "", SHARED_LOAD_IN_CICO_TARGET, "must not touch shared memory"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_in_branch_never_taken_runs_clean(fault):
    prefix, body, _ = FAULTS[fault]
    _, store = run(prefix + guarded(99, body))
    assert store.array("OUT")[1] == 7


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_fault_raises_when_its_branch_is_taken(fault):
    prefix, body, message = FAULTS[fault]
    with pytest.raises(InterpError, match=message):
        run(prefix + guarded(0, body))


class TestPrivateIndexCount:
    """A private array indexed with the wrong number of indices used to be
    accepted silently (``P[i]`` on a 4x4 array wrote flat element ``i``)."""

    def test_store_with_too_few_indices_raises(self):
        text = "for i = 0 to 3 do\n  P[i] = i + 1\nod\nOUT[0] = P[2, 0]\n"
        with pytest.raises(InterpError, match=r"'P' has 2 dimensions but "
                                              r"is indexed with 1 indices"):
            run(text)

    def test_load_with_too_few_indices_raises(self):
        with pytest.raises(InterpError, match=r"'P' has 2 dimensions but "
                                              r"is indexed with 1 indices"):
            run("OUT[0] = P[2]\n")

    def test_too_many_indices_raises(self):
        with pytest.raises(InterpError, match=r"indexed with 3 indices"):
            run("P[1, 2, 3] = 5\n")

    def test_only_when_executed(self):
        _, store = run(guarded(99, "  P[1] = 5\n  OUT[0] = P[2]\n"))
        assert store.array("OUT")[1] == 7

    def test_shared_array_raises_label_error(self):
        with pytest.raises(LabelError, match="A: expected 1 indices"):
            run("A[1, 2] = 5\n")

    def test_correct_count_still_works(self):
        _, store = run("P[2, 1] = 3\nOUT[0] = P[2, 1] + P[1, 2]\n")
        assert store.array("OUT")[0] == 3.0


def test_private_load_with_shared_index():
    """A private element picked by a shared value: the index load is a
    shared reference, the private read is not."""
    result, store = run(
        "A[0] = 2\nP[2, 3] = 9\nOUT[0] = P[A[0], 3]\n", nodes=1
    )
    assert store.array("OUT")[0] == 9.0
    assert result.stats.accesses == 3


class TestTargetRank:
    """A CICO target whose index count differs from its array's rank.  An
    over-long target used to run with its extra specs dropped."""

    @pytest.mark.parametrize("target, message", [
        ("A[me, 1]", "A: expected 1 indices, got 2"),
        ("A[0:3, 1]", "A: expected 1 indices, got 2"),
        ("P2[1]", "P2: expected 2 indices, got 1"),
        ("P2[5:9]", "P2: expected 2 indices, got 1"),  # clipped to nothing
    ])
    def test_raises_when_the_annotation_runs(self, target, message):
        with pytest.raises(LabelError, match=message):
            run(f"array P2[4, 4] elem=8 order=C\ncheck_in {target}\n")

    def test_only_when_executed(self):
        _, store = run("array P2[4, 4] elem=8 order=C\n"
                       + guarded(99, "  check_in A[me, 1]\n  check_in P2[1]\n"))
        assert store.array("OUT")[1] == 7


#: ``y`` is infinite: a float product overflows to inf without an error
INF = "y = exp(700) * exp(700)\n"
MATH_ERRORS = {
    "sqrt of a negative": ("x = sqrt(0 - 1)\n", "math domain error"),
    "exp overflow": ("x = exp(1000)\n", "math range error"),
    "floor of NaN": (INF + "x = floor(y - y)\n",
                     "cannot convert float NaN to integer"),
    "floor of infinity": (INF + "x = floor(y)\n",
                          "cannot convert float infinity to integer"),
    "NaN index": (INF + "A[y - y] = 1\n",
                  "cannot convert float NaN to integer"),
    "infinite loop bound": (INF + "for i = 0 to y do\n  A[1] = i\nod\n",
                            "cannot convert float infinity to integer"),
}


@pytest.mark.parametrize("case", sorted(MATH_ERRORS))
def test_math_error_is_an_interp_error(case):
    text, reason = MATH_ERRORS[case]
    with pytest.raises(InterpError, match=f"^node 0: {reason}$"):
        run(text, nodes=1)


@pytest.mark.parametrize("case", sorted(MATH_ERRORS))
def test_math_error_only_when_executed(case):
    text, _ = MATH_ERRORS[case]
    body = "".join("  " + line + "\n" for line in text.splitlines())
    _, store = run(guarded(99, body), nodes=1)
    assert store.array("OUT")[1] == 7
