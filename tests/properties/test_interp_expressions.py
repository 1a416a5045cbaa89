"""Property test: the IR interpreter computes what Python computes.

Hypothesis generates random expression trees; a tiny single-node program
stores their value into shared memory, and the result must match a direct
Python evaluation of the same tree.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.harness.runner import run_program
from repro.lang.ast import Bin, Const, Expr, Param, Store, Un
from repro.lang.builder import ProgramBuilder
from repro.machine.config import MachineConfig

CONFIG = MachineConfig(num_nodes=1, cache_size=1024, block_size=32, assoc=2)
PARAMS = {"N": 7, "W": 3}

# Safe operator subset: no division (zero-denominator explosion management
# is not the point here) and magnitudes kept small.
_BIN_OPS = ["+", "-", "*", "min", "max", "<", "<=", ">", ">=", "==", "!="]
_UN_OPS = ["neg", "abs"]

leaf = st.one_of(
    st.integers(-9, 9).map(Const),
    st.floats(-4, 4, allow_nan=False).map(lambda f: Const(round(f, 3))),
    st.sampled_from(["N", "W"]).map(Param),
)


def trees(depth):
    if depth == 0:
        return leaf
    sub = trees(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(_BIN_OPS), sub, sub).map(
            lambda t: Bin(t[0], t[1], t[2])
        ),
        st.tuples(st.sampled_from(_UN_OPS), sub).map(
            lambda t: Un(t[0], t[1])
        ),
    )


def py_eval(expr: Expr) -> float:
    t = type(expr)
    if t is Const:
        return expr.value
    if t is Param:
        return PARAMS[expr.name]
    if t is Un:
        value = py_eval(expr.operand)
        return {"neg": lambda a: -a, "abs": abs}[expr.op](value)
    left, right = py_eval(expr.left), py_eval(expr.right)
    return {
        "+": lambda a, b: a + b,
        "-": lambda a, b: a - b,
        "*": lambda a, b: a * b,
        "min": min,
        "max": max,
        "<": lambda a, b: 1 if a < b else 0,
        "<=": lambda a, b: 1 if a <= b else 0,
        ">": lambda a, b: 1 if a > b else 0,
        ">=": lambda a, b: 1 if a >= b else 0,
        "==": lambda a, b: 1 if a == b else 0,
        "!=": lambda a, b: 1 if a != b else 0,
    }[expr.op](left, right)


@settings(max_examples=60, deadline=None)
@given(trees(4))
def test_interpreter_matches_python(expr):
    expected = py_eval(expr)
    assume(abs(expected) < 1e12)
    b = ProgramBuilder("expr")
    out = b.shared("OUT", (1,))
    with b.function("main"):
        pass
    program = b.build()
    # Inject the raw expression directly (the builder would re-wrap it).
    program.function("main").body.append(
        Store(array="OUT", indices=(Const(0),), expr=expr, pc=1)
    )
    _, store = run_program(program, CONFIG, lambda n: PARAMS)
    got = store.array("OUT")[0]
    assert got == pytest.approx(expected)


@settings(max_examples=30, deadline=None)
@given(trees(3))
def test_purity_analysis_never_lies(expr):
    """An expression without Loads reaches the memory system only through
    the store it feeds: storing it yields exactly one event, which carries
    one compute cycle per operator plus one for the store."""
    from repro.lang.ast import ArrayDecl, Function, Program, number_program
    from repro.lang.interp import Interpreter
    from repro.machine.events import EV_REF

    program = number_program(
        Program(
            name="p",
            arrays={"OUT": ArrayDecl("OUT", (1,))},
            functions={"main": Function("main", (), [
                Store(array="OUT", indices=(Const(0),), expr=expr)
            ])},
        )
    )
    interp = Interpreter(program, params_fn=lambda node: PARAMS)
    events = list(interp.kernel(0))
    assert len(events) == 1
    code, compute, _, is_write, _ = events[0]
    assert (code, is_write) == (EV_REF, True)
    assert compute == _operators(expr) + 1


def _operators(expr: Expr) -> int:
    if isinstance(expr, Bin):
        return 1 + _operators(expr.left) + _operators(expr.right)
    if isinstance(expr, Un):
        return 1 + _operators(expr.operand)
    return 0
