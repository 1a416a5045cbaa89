"""Interpreter edge cases: clipping, errors, impure control flow."""

from __future__ import annotations

import linecache
import traceback

import pytest

from repro.errors import InterpError, ReproError
from repro.lang.ast import AnnotKind
from repro.lang.builder import ProgramBuilder
from repro.lang.interp import Interpreter, SharedStore
from repro.lang.parse import parse_program
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine


def run(program, nodes=1, params_fn=None):
    cfg = MachineConfig(num_nodes=nodes, cache_size=1024, block_size=32, assoc=2)
    store = SharedStore(program, block_size=32)
    interp = Interpreter(program, store, params_fn=params_fn)
    result = Machine(cfg).run(interp.kernel)
    return result, store


class TestAnnotationClipping:
    def test_out_of_range_annotation_is_ignored(self):
        b = ProgramBuilder("clip")
        A = b.shared("A", (8,))
        with b.function("main"):
            b.check_out_x(b.target(A, b.range(6, 12)))  # clipped to 6..7
            b.check_in(b.target(A, b.range(20, 30)))  # entirely out: no-op
        result, _ = run(b.build())
        assert result.stats.checkouts == 1  # one block (elements 4..7)
        assert result.stats.checkins == 0

    def test_negative_range_clipped(self):
        b = ProgramBuilder("clip2")
        A = b.shared("A", (8,))
        with b.function("main"):
            b.check_out_s(b.target(A, b.range(-4, 2)))
        result, _ = run(b.build())
        assert result.stats.checkouts == 1

    def test_zero_step_range_raises(self):
        b = ProgramBuilder("clip3")
        A = b.shared("A", (8,))
        with b.function("main"):
            b.check_out_s(b.target(A, b.range(0, 7, step=0)))
        with pytest.raises(InterpError):
            run(b.build())


class TestControlFlowEdges:
    def test_shared_load_in_if_condition(self):
        b = ProgramBuilder("sharedcond")
        A = b.shared("A", (4,))
        with b.function("main"):
            b.set(A[0], 1)
            with b.if_(A[0] > 0):
                b.set(A[1], 5)
        _, store = run(b.build())
        assert store.array("A")[1] == 5

    def test_shared_load_in_while_condition(self):
        b = ProgramBuilder("whilecond")
        A = b.shared("A", (4,))
        with b.function("main"):
            b.set(A[0], 3)
            with b.while_(A[0] > 0):
                b.set(A[0], A[0] - 1)
        _, store = run(b.build())
        assert store.array("A")[0] == 0

    def test_for_with_zero_iterations(self):
        b = ProgramBuilder("empty")
        A = b.shared("A", (4,))
        with b.function("main"):
            with b.for_("i", 5, 2) as i:
                b.set(A[0], 99)
        _, store = run(b.build())
        assert store.array("A")[0] == 0

    def test_shared_load_in_loop_bound_rejected(self):
        b = ProgramBuilder("badbound")
        A = b.shared("A", (4,))
        with b.function("main"):
            with b.for_("i", 0, A[0]) as i:
                b.set(A[1], 1)
        with pytest.raises(InterpError):
            run(b.build())

    def test_call_arity_mismatch(self):
        b = ProgramBuilder("arity")
        A = b.shared("A", (4,))
        with b.function("helper", params=("x", "y")):
            b.set(A[0], b.var("x") + b.var("y"))
        with b.function("main"):
            b.call("helper", 1)
        with pytest.raises(InterpError):
            run(b.build())

    def test_division_by_zero(self):
        b = ProgramBuilder("divzero")
        A = b.shared("A", (4,))
        with b.function("main"):
            b.set(A[0], 1 / (b.param("me") * 1))  # 1/0 on node 0
        with pytest.raises(InterpError):
            run(b.build())

    def test_nested_function_frames_isolate_locals(self):
        b = ProgramBuilder("frames")
        A = b.shared("A", (4,))
        with b.function("inner", params=("t",)):
            b.let("t", b.var("t") + 100)
            b.set(A[1], b.var("t"))
        with b.function("main"):
            b.let("t", 5)
            b.call("inner", b.var("t"))
            b.set(A[0], b.var("t"))  # unchanged by the callee
        _, store = run(b.build())
        assert store.array("A")[0] == 5
        assert store.array("A")[1] == 105


class TestSharedStore:
    def test_as_ndarray_orders(self):
        import numpy as np

        b = ProgramBuilder("orders")
        C = b.shared("C", (2, 3), order="C")
        F = b.shared("F", (2, 3), order="F")
        with b.function("main"):
            b.set(C[1, 2], 7)
            b.set(F[1, 2], 9)
        _, store = run(b.build())
        assert store.as_ndarray("C")[1, 2] == 7
        assert store.as_ndarray("F")[1, 2] == 9
        assert store.as_ndarray("C").shape == (2, 3)
        assert store.as_ndarray("F").shape == (2, 3)

    def test_labels_match_declared_layout(self):
        b = ProgramBuilder("labels")
        A = b.shared("A", (4, 4), order="F")
        with b.function("main"):
            b.set(A[0, 0], 1)
        program = b.build()
        store = SharedStore(program, block_size=32)
        label = store.label("A")
        assert label.order == "F"
        # Column-major adjacency: (1,0) follows (0,0).
        assert label.addr_of((1, 0)) - label.addr_of((0, 0)) == 8


def _events(program, node=0, params_fn=None):
    """Every event ``node``'s kernel yields, with the error that ends it
    (or None), driven without a machine."""
    events = []
    try:
        for event in Interpreter(program, params_fn=params_fn).kernel(node):
            events.append(event)
    except ReproError as exc:
        return events, exc
    return events, None


def _parsed(text, params=()):
    return parse_program("array A[4] elem=8 order=C\n" + text,
                         params=set(params))


class TestEvaluationOrder:
    """Operands are evaluated left to right, both operands of every
    operator, so the first error and the events before it are fixed."""

    def test_left_operand_error_precedes_right_shared_load(self):
        events, exc = _events(_parsed("A[0] = x + A[1]\n"))
        assert events == []
        assert isinstance(exc, InterpError)
        assert str(exc) == "node 0: unbound local 'x'"

    @pytest.mark.parametrize("expr", ["0 and 1 / 0", "min(1, 1 / 0)",
                                      "1 or 1 / 0", "max(1 / 0, 1)"])
    def test_both_operands_evaluated(self, expr):
        _, exc = _events(_parsed(f"A[0] = {expr}\n"))
        assert isinstance(exc, InterpError)
        assert str(exc) == "division by zero in '/'"

    @pytest.mark.parametrize("op", ["/", "//", "%"])
    def test_division_names_its_operator(self, op):
        _, exc = _events(_parsed(f"x = 0\nA[0] = 1 {op} x\n"))
        assert isinstance(exc, InterpError)
        assert str(exc) == f"division by zero in {op!r}"

    def test_events_before_an_error_are_kept(self):
        events, exc = _events(_parsed("A[0] = 1\nA[1] = A[0] / 0\n"))
        assert [e[3] for e in events] == [True, False]  # store, then load
        assert events[0][2] == events[1][2]
        assert str(exc) == "division by zero in '/'"


class TestFramesAndRows:
    def test_recursive_call(self):
        text = (
            "func down(n):\n"
            "  A[n] = n + 1\n"
            "  if n > 0 then\n"
            "    call down(n - 1)\n"
            "  fi\n"
            "\n"
            "func main():\n"
            "  call down(3)\n"
        )
        _, store = run(_parsed(text))
        assert list(store.array("A")) == [1, 2, 3, 4]

    def test_private_row_first_written_in_callee_is_seen_by_caller(self):
        program = parse_program(
            "array A[4] elem=8 order=C\n"
            "array P[4] elem=8 order=C private\n"
            "func fill(v):\n"
            "  P[2] = v\n"
            "\n"
            "func main():\n"
            "  A[0] = P[2]\n"
            "  call fill(5)\n"
            "  A[1] = P[2]\n"
        )
        _, store = run(program)
        assert list(store.array("A")) == [0, 5, 0, 0]

    def test_entry_parameter_is_unbound(self):
        program = parse_program(
            "array A[4] elem=8 order=C\nfunc main(x):\n  A[0] = x\n"
        )
        _, exc = _events(program)
        assert isinstance(exc, InterpError)
        assert str(exc) == "node 0: unbound local 'x'"

    def test_missing_parameter_is_unbound(self):
        _, exc = _events(_parsed("A[0] = N\n", params={"N"}))
        assert isinstance(exc, InterpError)
        assert str(exc) == "node 0: unbound parameter 'N'"


class TestGeneratedSource:
    TEXT = (
        "func half(v):\n"
        "  A[1] = v / 2\n"
        "\n"
        "func main():\n"
        "  call half(me + 1)\n"
        "  x = 0\n"
        "  A[0] = 1 / x\n"
    )

    def test_source_compiles(self):
        interp = Interpreter(_parsed(self.TEXT))
        for name in ("main", "half"):
            text = interp.source(name)
            assert text.startswith("def ")
            compile(text, name, "exec")

    def test_traceback_shows_generated_line(self):
        interp = Interpreter(_parsed(self.TEXT))
        (line,) = [line.strip() for line in interp.source("main").splitlines()
                   if " / " in line]
        with pytest.raises(InterpError, match="division by zero") as info:
            list(interp.kernel(0))
        formatted = "".join(traceback.format_exception(
            info.type, info.value, info.tb))
        assert line in formatted

    def test_running_registers_no_source(self):
        program = _parsed(self.TEXT.replace("1 / x", "1 / (x + 1)"))
        before = len(linecache.cache)
        for _ in range(50):
            run(program)
        assert len(linecache.cache) == before
