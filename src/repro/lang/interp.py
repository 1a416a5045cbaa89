"""IR interpreter: each IR function runs as one generated Python generator.

``Interpreter.kernel(node)`` returns a generator of machine events (see
:mod:`repro.machine.events`).  The machine interleaves these per-node
generators by virtual time, so functional execution and timing happen in one
pass: a data race in the program resolves in virtual-time order, exactly the
kind of timing-dependent behaviour the paper's Section 4.5 talks about.

Performance notes (this is the simulator's hot path):

* each :class:`Interpreter` writes the IR functions it can run (the entry
  function and every function a ``call`` names) as the text of one Python
  generator function each, and ``exec``\\s that text once
  (:meth:`Interpreter.source` shows it).  The entry function's generator is
  the node kernel itself, so one event resumes one frame; a ``call`` is the
  only ``yield from``;
* loops are ``for`` loops over ``range``, IR locals and parameters are
  Python locals, and index arithmetic and bounds checks are inline.  An
  index or value known to be an int or float (a loop variable, a literal,
  a loaded value) is not converted again;
* shared values are read and written through a memoryview of the store's
  float64 arrays; private arrays are per-node lists of floats, allocated on
  a node's first store and written as ``float(value)`` so they hold exactly
  what a float64 array would;
* compute cycles (one per operator, load, store, assignment, loop
  iteration and test) are counted while the text is written and ride on
  the next yielded event as a constant; the local ``c`` only carries what a
  loop, branch or call leaves pending.  A shared load yields its reference,
  then reads the value; a shared store yields, then writes.

Every error a program can raise (an unknown name, a bad index, a shared
load where only a pure expression may stand, a call with the wrong number
of arguments) is raised when the offending code *executes*, so code in a
branch that is never taken never fails.  An error found while writing the
text becomes a statement that raises a fresh copy of it.  Unbound names,
division by zero and math errors (``sqrt(-1)``, ``exp(1000)``, a NaN or
infinite index) become :class:`InterpError` in one handler per function,
which costs nothing until it fires.
"""

from __future__ import annotations

import hashlib
import math
import re
from functools import partial
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import InterpError, LabelError, LangError
from repro.lang.ast import (
    Annot,
    AnnotKind,
    ArrayDecl,
    Assign,
    Barrier,
    Bin,
    CallStmt,
    Comment,
    Const,
    For,
    Function,
    If,
    Load,
    Local,
    LockStmt,
    Param,
    Program,
    RangeSpec,
    Store,
    Un,
    UnlockStmt,
    While,
    walk_stmts,
)
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIR_PREFETCH_S,
    DIR_PREFETCH_X,
    EV_BARRIER,
    EV_DIRECTIVE,
    EV_LOCK,
    EV_REF,
    EV_UNLOCK,
)
from repro.mem.labels import ArrayLabel, LabelTable
from repro.mem.layout import AddressSpace

_ANNOT_TO_DIR = {
    AnnotKind.CHECK_OUT_S: DIR_CHECK_OUT_S,
    AnnotKind.CHECK_OUT_X: DIR_CHECK_OUT_X,
    AnnotKind.CHECK_IN: DIR_CHECK_IN,
    AnnotKind.PREFETCH_S: DIR_PREFETCH_S,
    AnnotKind.PREFETCH_X: DIR_PREFETCH_X,
}

_COMPARE = {"<", "<=", ">", ">=", "==", "!="}
_DIVIDE = {"/", "//", "%"}

#: Python text of each operator, over its operands' texts.  ``and`` and
#: ``or`` evaluate both operands, as every IR operator does.
_BIN_TEXT = {
    **{op: f"({{}} {op} {{}})" for op in ("+", "-", "*", "/", "//", "%")},
    **{op: f"(1 if {{}} {op} {{}} else 0)" for op in _COMPARE},
    "and": "((1 if {} else 0) & (1 if {} else 0))",
    "or": "((1 if {} else 0) | (1 if {} else 0))",
    "min": "min({}, {})",
    "max": "max({}, {})",
}
_UN_TEXT = {"neg": "(-{})", "not": "(0 if {} else 1)", "abs": "abs({})",
            **{op: op + "({})" for op in ("sqrt", "floor", "exp", "sin", "cos")}}

#: A name in an UnboundLocalError or NameError message: Python 3.10 says
#: "local variable 'x' referenced before assignment", 3.11 and later
#: "cannot access local variable 'x' where it is not associated with a
#: value", and a name never assigned in its function "name 'x' is not
#: defined".
_QUOTED = re.compile(r"'([^']*)'")

class SharedStore:
    """Shared address space + labels + functional value arrays for a program."""

    def __init__(self, program: Program, block_size: int = 32):
        self.program = program
        self.space = AddressSpace(block_size=block_size)
        self.labels = LabelTable()
        self.values: dict[str, np.ndarray] = {}
        for decl in program.shared_arrays():
            nbytes = decl.elem_size
            for extent in decl.shape:
                nbytes *= extent
            region = self.space.allocate(decl.name, nbytes)
            self.labels.add(
                ArrayLabel(
                    region=region,
                    shape=decl.shape,
                    elem_size=decl.elem_size,
                    order=decl.order,
                )
            )
            self.values[decl.name] = np.zeros(
                int(np.prod(decl.shape)), dtype=np.float64
            )

    def label(self, name: str) -> ArrayLabel:
        return self.labels.get(name)

    def array(self, name: str) -> np.ndarray:
        """Flat value array (reshape via the label's shape/order if needed)."""
        return self.values[name]

    def as_ndarray(self, name: str) -> np.ndarray:
        lab = self.labels.get(name)
        flat = self.values[name]
        if lab.order == "C":
            return flat.reshape(lab.shape)
        return flat.reshape(tuple(reversed(lab.shape))).transpose()

    def snapshot_values(self) -> dict[str, list[float]]:
        """All array values as plain lists (JSON-able, for barrier
        checkpoints).  Restoring them with :meth:`restore_values` after a
        resume fast-forward corrects any drift a racy epoch replay left."""
        return {name: arr.tolist() for name, arr in self.values.items()}

    def restore_values(self, values: dict[str, list[float]]) -> None:
        for name, vals in values.items():
            arr = self.values[name]
            arr[:] = np.asarray(vals, dtype=np.float64)


class _Node:
    """Per-kernel state the generated functions share: the node id, its
    parameters (set when the entry function starts) and its private rows."""

    __slots__ = ("node", "params", "priv")

    def __init__(self, node: int, num_private: int):
        self.node = node
        self.params: dict | None = None
        self.priv: list[list[float] | None] = [None] * num_private


class _X(NamedTuple):
    """One compiled expression: its Python text, its static type (``"i"``
    int, ``"f"`` float, None when unknown) and whether evaluating the text
    can never raise."""

    text: str
    kind: str | None
    safe: bool


class _Array(NamedTuple):
    """Geometry and generated names of one array the code references."""

    shape: tuple[int, ...]
    strides: tuple[int, ...]  # elements per unit step of each index
    check: str  # function that raises the index-count or bounds error
    name: str  # memoryview (shared) or row in ``priv`` (private)
    base: int = 0
    size: int = 0
    slot: int = -1  # private row slot, -1 when shared
    length: int = 0


def _strides(shape: tuple[int, ...], order: str) -> tuple[int, ...]:
    if order == "C":
        return tuple(math.prod(shape[d + 1:]) for d in range(len(shape)))
    return tuple(math.prod(shape[:d]) for d in range(len(shape)))


def _const(value) -> _X | None:
    """Literal text of a plain int or finite float (None otherwise)."""
    t = type(value)
    if t is int or (t is float and math.isfinite(value)):
        return _X(repr(value), "i" if t is int else "f", True)
    return None


def _bin_kind(op: str, a: str | None, b: str | None) -> str | None:
    if op in _COMPARE or op == "and" or op == "or":
        return "i"
    if op == "/":
        return "f"
    if op == "min" or op == "max":
        return a if a == b else None
    if a and b:
        return "f" if "f" in (a, b) else "i"
    return None


def _private_flat(decl: ArrayDecl):
    """Generic flat index of a private array (row- or column-major), with
    the index-count and bounds checks."""
    name, shape = decl.name, decl.shape
    dims = list(enumerate(shape))
    if decl.order == "F":
        dims.reverse()

    def flat_of(idxs: tuple[int, ...]) -> int:
        if len(idxs) != len(shape):
            raise InterpError(
                f"private array {name!r} has {len(shape)} dimensions but is "
                f"indexed with {len(idxs)} indices"
            )
        flat = 0
        for dim, extent in dims:
            if not 0 <= idxs[dim] < extent:
                raise InterpError(f"{name}{list(idxs)}: index out of bounds")
            flat = flat * extent + idxs[dim]
        return flat

    return flat_of


# ------------------------------------------------ run-time helpers
def _row(priv: list, slot: int, length: int) -> list[float]:
    row = priv[slot] = [0.0] * length
    return row


def _step(step: int, pc: int) -> InterpError:
    return InterpError(f"for-loop step {step} <= 0 at pc {pc}")


def _span(lo: int, hi: int, step: int, extent: int) -> list[int]:
    """The in-bounds indices of an annotation range.

    CICO annotations are semantics-free hints and "need not be placed
    perfectly accurately" (Section 4.5): hoisting can widen a guarded index
    expression past the array edge, so indices are clipped to the array
    bounds rather than faulting.  A dimension clipped to nothing drops the
    whole target, and its later dimensions are not evaluated."""
    if step <= 0:
        raise InterpError(f"annotation range step {step} <= 0")
    return [v for v in range(lo, hi + 1, step) if 0 <= v < extent]


def _point(index: int, extent: int) -> list[int]:
    return [index] if 0 <= index < extent else []


def _addrs(base: int, size: int, strides, per_dim) -> list[int]:
    """Element addresses of an annotation target, dimension by dimension."""
    flats = [0]
    for values, stride in zip(per_dim, strides):
        flats = [f + v * stride for f in flats for v in values]
    return [base + f * size for f in flats]


class _Writer:
    """Writes one IR function as the text of one Python generator function
    ``f(k, c, *params)``: ``k`` is the node's :class:`_Node`, ``c`` the
    compute cycles pending on entry, and the return value those pending on
    exit.

    ``pend`` counts the cycles of code written since ``c`` was last brought
    up to date; ``zero`` says that ``c`` is stale and its true value is 0
    (right after a yield).  Both hold only along straight-line code: loops
    and branches bring ``c`` up to date where they start and end.
    """

    def __init__(self, code: "_Code", func: Function, entry: bool):
        self.code, self.func, self.entry = code, func, entry
        self.lines: list[tuple] = []  # (text, division operator on the line)
        self.indent = " " * 4  # the body's block indents it under ``try``
        self.pend, self.zero = 0, False
        self.temps = self.loads = self.yields = 0
        self.pc = -1
        self.params: set[str] = set()
        self.private = False  # the function uses a private array
        #: loop variables in scope that are always bound to an int
        self.loops: set[str] = set()
        self.assigned = {s.name for s in walk_stmts(func.body)
                         if type(s) is Assign} | set(func.params)

    # ---------------------------------------------------------- output
    def emit(self, text: str, div: str | None = None) -> None:
        self.lines.append((self.indent + text, div))

    def temp(self) -> str:
        self.temps += 1
        return f"t{self.temps}"

    def simple(self, text: str) -> str:
        """``text`` as a name or literal, evaluating it into a temporary
        if needed."""
        if text.isidentifier() or text.lstrip("-").isdigit():
            return text
        t = self.temp()
        self.emit(f"{t} = {text}")
        return t

    def flush(self) -> None:
        """Bring ``c`` up to date."""
        if self.zero:
            self.emit(f"c = {self.pend}")
        elif self.pend:
            self.emit(f"c += {self.pend}")
        self.pend, self.zero = 0, False

    def event(self, code: int, rest: str) -> None:
        """Yield an event carrying the pending compute cycles."""
        compute = (str(self.pend) if self.zero
                   else f"c + {self.pend}" if self.pend else "c")
        self.emit(f"yield ({code}, {compute}, {rest})")
        self.pend, self.zero = 0, True
        self.yields += 1

    # ------------------------------------------------------ expressions
    def ordered(self, thunks) -> list[_X]:
        """Compile expressions evaluated left to right.  When a later one
        writes lines (a shared load's yield, a bounds check, a division),
        each earlier text that could raise is evaluated first, into a
        temporary, so errors and events keep their order."""
        out: list[_X] = []
        for thunk in thunks:
            mark = len(self.lines)
            x = thunk()
            if len(self.lines) > mark:
                hoisted = []
                for i, prev in enumerate(out):
                    if not prev.safe:
                        t = self.temp()
                        hoisted.append((f"{self.indent}{t} = {prev.text}", None))
                        out[i] = _X(t, prev.kind, True)
                self.lines[mark:mark] = hoisted
            out.append(x)
        return out

    def expr(self, e) -> _X:
        t = type(e)
        if t is Const:
            return _const(e.value) or _X(self.code.constant(e.value), None, True)
        if t is Local:
            if e.name in self.loops:
                return _X(self.code.ident("l", e.name), "i", True)
            return _X(self.code.ident("l", e.name), None, False)
        if t is Param:
            self.params.add(e.name)
            return _X(self.code.ident("p", e.name), None, False)
        if t is Bin:
            op = e.op
            a, b = self.ordered([partial(self.expr, e.left),
                                 partial(self.expr, e.right)])
            self.pend += 1
            x = _X(_BIN_TEXT[op].format(a.text, b.text),
                   _bin_kind(op, a.kind, b.kind), a.safe and b.safe)
            right = e.right
            if op in _DIVIDE and not (type(right) is Const and right.value != 0):
                t = self.temp()  # alone on its line, so the handler can name it
                self.emit(f"{t} = {x.text}", op)
                return _X(t, x.kind, True)
            return x
        if t is Un:
            op, x = e.op, self.expr(e.operand)
            self.pend += 1
            kind = {"neg": x.kind, "abs": x.kind, "not": "i", "floor": "i"}
            return _X(_UN_TEXT[op].format(x.text), kind.get(op, "f"),
                      x.safe and op in ("neg", "not", "abs"))
        if t is Load:
            return self.load(e)
        raise InterpError(f"unknown expression node {e!r}")

    def int_expr(self, e) -> _X:
        x = self.expr(e)
        return x if x.kind == "i" else _X(f"int({x.text})", "i", False)

    def pure(self, e) -> _X:
        """An int-valued expression that must not touch shared memory (loop
        bounds, lock indices, annotation targets)."""
        loads = self.loads
        x = self.int_expr(e)
        if self.loads != loads:
            raise InterpError(f"expression at pc {self.pc} must not touch shared memory")
        return x

    def indices(self, exprs) -> list[str]:
        xs = self.ordered([partial(self.int_expr, e) for e in exprs])
        return [self.simple(x.text) for x in xs]

    def flat(self, arr: _Array, names: list[str]) -> str:
        """Flat-index text of a reference, after its bounds check."""
        args = "((" + "".join(n + ", " for n in names) + "))"
        if len(names) != len(arr.shape):
            self.emit(arr.check + args)  # raises the index-count error
            return "0"
        checks = " and ".join(f"0 <= {n} < {extent}" for n, extent in zip(names, arr.shape))
        self.emit(f"if not ({checks}): {arr.check}{args}")
        return " + ".join(n if s == 1 else f"{n} * {s}"
                          for n, s in zip(names, arr.strides))

    def value(self, x: _X) -> str:
        """``x`` evaluated now: its text if that cannot raise, else a
        temporary."""
        if x.safe:
            return x.text
        t = self.temp()
        self.emit(f"{t} = {x.text}")
        return t

    def load(self, e: Load) -> _X:
        decl = self.code.program.array(e.array)
        names = self.indices(e.indices)
        arr = self.code.array(decl)
        flat = self.flat(arr, names)
        self.pend += 1
        if decl.private:  # a row never stored to reads as zeros
            self.private = True
            return _X(f"({arr.name} or _Z)[{flat}]", "f", True)
        flat = self.simple(flat)
        self.event(EV_REF, f"{arr.base} + {flat} * {arr.size}, False, {self.pc}")
        self.loads += 1
        t = self.temp()
        self.emit(f"{t} = {arr.name}[{flat}]")
        return _X(t, "f", True)

    # ------------------------------------------------------- statements
    def block(self, stmts, pend: int = 0) -> None:
        """An indented statement list; ``c`` is up to date on entry and on
        exit."""
        self.indent += "    "
        mark = len(self.lines)
        self.pend, self.zero = pend, False
        for stmt in stmts:
            self.stmt(stmt)
        self.flush()
        if len(self.lines) == mark:
            self.emit("pass")
        self.indent = self.indent[:-4]

    def stmt(self, s) -> None:
        """Write one statement; an error found while writing it becomes a
        statement that raises the error when it runs."""
        t = type(s)
        if t is Comment:
            return
        mark = len(self.lines)
        state = self.pend, self.zero, self.indent, self.yields
        self.pc, self.temps = s.pc, 0
        try:
            method = _STATEMENTS.get(t)
            if method is None:
                raise InterpError(f"unknown statement {s!r}")
            method(self, s)
        except (LangError, LabelError) as exc:
            del self.lines[mark:]
            self.pend, self.zero, self.indent, self.yields = state
            self.emit(f"raise _err({self.code.defer(exc)})")

    def assign(self, s: Assign) -> None:
        x = self.expr(s.expr)
        self.pend += 1
        self.emit(f"{self.code.ident('l', s.name)} = {x.text}")

    def store(self, s: Store) -> None:
        decl = self.code.program.array(s.array)
        names = self.indices(s.indices)
        arr = self.code.array(decl)
        flat = self.flat(arr, names)
        if not decl.private:
            flat = self.simple(flat)
        x = self.expr(s.expr)
        self.pend += 1
        if decl.private:  # the row is allocated on its first store
            self.private = True
            value = x.text if x.kind == "f" else f"float({x.text})"
            self.emit(f"({arr.name} or _row(priv, {arr.slot}, {arr.length}))[{flat}] = {value}")
            return
        value = self.value(x)
        self.event(EV_REF, f"{arr.base} + {flat} * {arr.size}, True, {self.pc}")
        self.emit(f"{arr.name}[{flat}] = {value}")

    def for_(self, s: For) -> None:
        lo, hi, step = self.ordered([partial(self.pure, e)
                                     for e in (s.lo, s.hi, s.step)])
        stride = s.step.value if type(s.step) is Const else None
        if type(stride) is int and stride > 0:
            stop = (str(int(hi.text) + 1) if hi.text.lstrip("-").isdigit()
                    else f"{hi.text} + 1")
            args = [lo.text, stop] + ([step.text] if stride != 1 else [])
        else:
            args = [self.value(lo), self.value(hi) + " + 1",
                    self.simple(step.text)]
            self.emit(f"if {args[2]} <= 0: raise _step({args[2]}, {self.pc})")
        self.flush()
        var = s.var
        self.emit(f"for {self.code.ident('l', var)} in range({', '.join(args)}):")
        if var in self.assigned:  # not always an int
            return self.block(s.body, 1)
        outer = var in self.loops
        self.loops.add(var)
        self.block(s.body, 1)
        if not outer:
            self.loops.discard(var)

    def if_(self, s: If) -> None:
        test = self.expr(s.cond).text
        self.pend += 1
        self.flush()
        self.emit(f"if {test}:")
        self.block(s.then)
        if any(type(stmt) is not Comment for stmt in s.els):
            self.emit("else:")
            self.block(s.els)

    def while_(self, s: While) -> None:
        self.flush()
        self.emit("while True:")
        self.indent += "    "
        test = self.expr(s.cond).text
        self.pend += 1
        self.flush()
        self.emit(f"if not ({test}): break")
        self.indent = self.indent[:-4]
        self.block(s.body)

    def barrier(self, s: Barrier) -> None:
        self.event(EV_BARRIER, str(self.pc))

    def annot(self, s: Annot) -> None:
        self.flush()
        addrs = self.temp()
        self.emit(f"{addrs} = []")
        for target in s.targets:
            self.target(target, addrs)
        self.event(EV_DIRECTIVE, f"{_ANNOT_TO_DIR[s.kind]}, {addrs}, {self.pc}")

    def target(self, target, addrs: str) -> None:
        """Add a target's element addresses to the list ``addrs``; each
        dimension is evaluated only if the ones before it keep an index."""
        decl = self.code.program.array(target.array)
        if decl.private:
            raise InterpError(f"CICO annotation on private array {target.array!r}")
        indent, dims = self.indent, []
        for spec, extent in zip(target.specs, decl.shape):
            if dims:
                self.emit(f"if {dims[-1]}:")
                self.indent += "    "
            parts = ((spec.lo, spec.hi, spec.step) if isinstance(spec, RangeSpec)
                     else (spec,))
            xs = self.ordered([partial(self.pure, e) for e in parts])
            self.flush()
            dims.append(self.temp())
            self.emit(f"{dims[-1]} = {'_span' if len(xs) == 3 else '_point'}"
                      f"({', '.join(x.text for x in xs)}, {extent})")
        label = self.code.store.label(target.array)
        if len(target.specs) != len(label.shape):
            raise LabelError(f"{target.array}: expected {len(label.shape)} "
                             f"indices, got {len(target.specs)}")
        strides = _strides(label.shape, label.order)
        self.emit(f"{addrs} += _addrs({label.region.base}, {label.elem_size}, "
                  f"{strides}, ({', '.join(dims)},))")
        self.indent = indent

    def lock(self, s) -> None:
        xs = self.ordered([partial(self.pure, e) for e in s.indices])
        addr_of = self.code.lock(s.array)
        code = EV_LOCK if type(s) is LockStmt else EV_UNLOCK
        indices = "".join(x.text + ", " for x in xs)
        self.event(code, f"{addr_of}(({indices})), {self.pc}")

    def call(self, s: CallStmt) -> None:
        params = self.code.program.function(s.func).params
        if len(params) != len(s.args):
            raise InterpError(f"call {s.func!r}: expected {len(params)} args, "
                              f"got {len(s.args)}")
        xs = self.ordered([partial(self.expr, e) for e in s.args])
        self.flush()
        args = "".join(", " + x.text for x in xs)
        self.emit(f"c = yield from {self.code.callee(s.func)}(k, c{args})")
        self.yields += 1

    # ---------------------------------------------------------- function
    def write(self) -> list[tuple]:
        """The function's lines: (text, division operator on the line)."""
        self.block(self.func.body)
        code, entry = self.code, self.entry
        params = [code.ident("l", name) for name in self.func.params]
        if entry:
            signature = ["k", "c", *(p + "=None" for p in params), "top=False"]
        else:
            signature = ["k", "c", *params]
        head = [f"def {code.callee(self.func.name)}({', '.join(signature)}):"]
        if entry:  # parameters are set, and declared ones unbound, in a kernel
            head += ["    if top:", "        k.params = _params(k.node)"]
            if params:
                head.append(f"        del {', '.join(params)}")
        if self.params:
            head.append("    P = k.params")
            head += [f"    if {name!r} in P: {code.ident('p', name)} = P[{name!r}]"
                     for name in sorted(self.params)]
        if self.private:
            head.append("    priv = k.priv")
        head.append("    try:")
        tail = ["    except (NameError, ZeroDivisionError, ValueError, "
                "OverflowError) as e:",
                "        raise _fault(k.node, e)"]
        if entry:
            tail += ["    if top and c:",
                     f"        yield ({EV_REF}, c, -1, False, -1)"]
        tail.append("    return c")
        if not (entry or self.yields):
            tail.append("    yield  # never reached: keeps this a generator")
        return [(line, None) for line in head] + self.lines + [(line, None) for line in tail]


_STATEMENTS: dict[type, Callable] = {
    Assign: _Writer.assign, Store: _Writer.store, For: _Writer.for_, If: _Writer.if_,
    While: _Writer.while_, Barrier: _Writer.barrier, Annot: _Writer.annot,
    LockStmt: _Writer.lock, UnlockStmt: _Writer.lock, CallStmt: _Writer.call,
}


class _Code:
    """The generated module of one :class:`Interpreter`: writes the entry
    function and every function a ``call`` names, ``exec``\\s the text once
    and keeps the namespace its code runs in."""

    def __init__(self, program: Program, store: SharedStore, params):
        self.program, self.store = program, store
        private = [d for d in program.arrays.values() if d.private]
        self.slots = {decl.name: slot for slot, decl in enumerate(private)}
        self.num_private = len(private)
        self.ns: dict = {
            "_Z": [0.0] * max((math.prod(d.shape) for d in private), default=0),
            "_row": _row, "_step": _step, "_span": _span, "_point": _point,
            "_addrs": _addrs, "_params": params,
            "_err": self.error, "_fault": self.fault,
            "sqrt": math.sqrt, "floor": math.floor, "exp": math.exp,
            "sin": math.sin, "cos": math.cos,
        }
        self.names: dict[str, tuple[str | None, str]] = {}  # py -> (kind, IR)
        self.idents: dict[tuple[str, str], str] = {}
        self.errors: list[tuple[type, tuple]] = []
        self.arrays: dict[str, _Array] = {}
        self.divs: dict[int, str] = {}  # line number -> division operator
        self.funcs: dict[str, str] = {}  # IR function -> Python name
        self.texts: dict[str, str] = {}
        self.main = self.write()

    def write(self):
        program = self.program
        # a missing entry function raises when the kernel first runs
        entry = (program.functions.get(program.entry)
                 or Function(program.entry, (), [CallStmt(program.entry)]))
        self.callee(program.entry)
        lines, done = [], 0
        while done < len(self.funcs):
            name = list(self.funcs)[done]
            done += 1
            start = len(lines)
            func = entry if name == program.entry else program.functions[name]
            writer = _Writer(self, func, func is entry)
            for text, div in writer.write():
                lines.append(text)
                if div:
                    self.divs[len(lines)] = div
            self.texts[name] = "\n".join(lines[start:]) + "\n"
        text = "\n".join(lines) + "\n"
        digest = hashlib.sha256(text.encode()).hexdigest()[:12]
        label = re.sub(r"[^\w.-]", "_", program.name)
        # linecache asks the loader for the text only when a traceback
        # through the code is formatted, so running registers nothing
        loader = SimpleNamespace(get_source=lambda name: text)
        self.ns.update(__name__=f"repro.ir.{label}", __loader__=loader)
        exec(compile(text, f"ir-{label}-{digest}", "exec"), self.ns)
        return self.ns[self.funcs[program.entry]]

    def ident(self, prefix: str, name: str) -> str:
        """Python name of an IR name: ``l_`` locals, ``p_`` parameters,
        ``f_`` functions, ``m_`` memoryviews, ``ix_`` index checks, ``lk_``
        lock addresses."""
        key = (prefix, name)
        py = self.idents.get(key)
        if py is None:
            if name.isascii() and name.isidentifier():
                py = f"{prefix}_{name}"
            else:
                py = f"{prefix}{len(self.idents)}_"
            self.idents[key] = py
            self.names[py] = ({"l": "local", "p": "parameter"}.get(prefix), name)
        return py

    def callee(self, name: str) -> str:
        return self.funcs.setdefault(name, self.ident("f", name))

    def constant(self, value) -> str:
        name = f"_k{len(self.ns)}"
        self.ns[name] = value
        return name

    def array(self, decl: ArrayDecl) -> _Array:
        arr = self.arrays.get(decl.name)
        if arr is not None:
            return arr
        check = self.ident("ix", decl.name)
        if decl.private:
            self.ns[check] = _private_flat(decl)
            slot = self.slots[decl.name]
            arr = _Array(decl.shape, _strides(decl.shape, decl.order), check,
                         f"priv[{slot}]", slot=slot, length=math.prod(decl.shape))
        else:
            label = self.store.label(decl.name)
            view = self.ident("m", decl.name)
            self.ns[check] = label.flat_index
            self.ns[view] = memoryview(self.store.values[decl.name])
            arr = _Array(label.shape, _strides(label.shape, label.order), check,
                         view, label.region.base, label.elem_size)
        self.arrays[decl.name] = arr
        return arr

    def lock(self, name: str) -> str:
        label = self.store.label(name)
        py = self.ident("lk", name)
        self.ns[py] = label.addr_of
        return py

    def defer(self, exc: Exception) -> int:
        self.errors.append((type(exc), exc.args))
        return len(self.errors) - 1

    def error(self, index: int) -> Exception:
        cls, args = self.errors[index]
        return cls(*args)

    def fault(self, node: int, exc: Exception) -> Exception:
        """The InterpError a Python error in generated code stands for
        (``exc`` itself when it stands for none)."""
        if isinstance(exc, NameError):
            found = _QUOTED.search(str(exc))
            kind, name = self.names.get(found and found.group(1), (None, ""))
            if kind:
                return InterpError(f"node {node}: unbound {kind} {name!r}")
            return exc
        if isinstance(exc, ZeroDivisionError):
            op = self.divs.get(exc.__traceback__.tb_lineno)
            return InterpError(f"division by zero in {op!r}") if op else exc
        return InterpError(f"node {node}: {exc}")


class Interpreter:
    """Runs a program's IR: one generated generator per node kernel."""

    def __init__(
        self,
        program: Program,
        store: SharedStore | None = None,
        params_fn: Callable[[int], dict] | None = None,
        block_size: int = 32,
    ):
        self.program = program
        self.store = store or SharedStore(program, block_size=block_size)
        self.params_fn = params_fn or (lambda node: {})
        self._code = _Code(program, self.store, self._params)

    def _params(self, node: int) -> dict:
        params = {"me": node}
        params.update(self.params_fn(node))
        return params

    def source(self, name: str) -> str:
        """The Python text IR function ``name`` runs as (LangError unless
        it is the entry function or some ``call`` names it)."""
        try:
            return self._code.texts[name]
        except KeyError:
            raise LangError(f"no code was generated for {name!r}") from None

    def kernel(self, node: int):
        """Machine-event generator for one node."""
        return self._code.main(_Node(node, self._code.num_private), 0, top=True)
