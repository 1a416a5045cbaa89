"""IR compiler and interpreter.

``Interpreter.kernel(node)`` returns a generator of machine events (see
:mod:`repro.machine.events`).  The machine interleaves these per-node
generators by virtual time, so functional execution and timing happen in one
pass: a data race in the program resolves in virtual-time order, exactly the
kind of timing-dependent behaviour the paper's Section 4.5 talks about.

Performance notes (this is the simulator's hot path):

* each IR function is compiled once per :class:`Interpreter` into nested
  closures, so node-type dispatch, purity and array geometry are decided
  at compile time, never per evaluation;
* an expression without a shared load compiles to a plain function that
  returns its value.  Its compute count (one per operator and private load)
  is a compile-time constant that the enclosing code adds in one step.
  Only code that can reach the memory system compiles to a generator;
* each array reference binds its shape, order, base address and element
  size, with an inline bounds check for 1-D and 2-D arrays in either order
  and one generic fallback for every other case;
* shared values are read and written through a memoryview of the store's
  float64 arrays; private arrays are per-node lists of floats, written as
  ``float(value)`` so they hold exactly what a float64 array would;
* compute cycles accumulate in a per-node counter and ride on the next
  yielded event, so the machine charges realistic instruction counts
  without per-operation yields.  A shared load yields its reference, then
  reads the value; a shared store yields, then writes.

Every error a program can raise (an unknown name, a bad index, a shared
load where only a pure expression may stand, a call with the wrong number
of arguments) is raised when the offending code *executes*, so code in a
branch that is never taken never fails.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import InterpError, LabelError, LangError
from repro.lang.ast import (
    Annot,
    AnnotKind,
    AnnotTarget,
    ArrayDecl,
    Assign,
    Barrier,
    Bin,
    CallStmt,
    Comment,
    Const,
    Expr,
    For,
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


def _checked_division(op: str, func):
    def divide(a, b):
        try:
            return func(a, b)
        except ZeroDivisionError:
            raise InterpError(f"division by zero in {op!r}") from None

    return divide


_BIN_FUNCS: dict[str, Callable[[float, float], float]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _checked_division("/", lambda a, b: a / b),
    "//": _checked_division("//", lambda a, b: a // b),
    "%": _checked_division("%", lambda a, b: a % b),
    "<": lambda a, b: 1 if a < b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "and": lambda a, b: 1 if (a and b) else 0,
    "or": lambda a, b: 1 if (a or b) else 0,
    "min": min,
    "max": max,
}

_UN_FUNCS: dict[str, Callable[[float], float]] = {
    "neg": lambda a: -a,
    "not": lambda a: 0 if a else 1,
    "abs": abs,
    "sqrt": math.sqrt,
    "floor": math.floor,
    "exp": math.exp,
    "sin": math.sin,
    "cos": math.cos,
}


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
    """Per-kernel mutable state: all that compiled code reads at run time
    besides the shared store."""

    __slots__ = ("node", "params", "frame", "priv", "compute")

    def __init__(self, node: int, params: dict, num_private: int):
        self.node = node
        self.params = params
        self.frame: dict[str, float] = {}  # locals of the running function
        self.priv: list[list[float] | None] = [None] * num_private
        self.compute = 0  # compute cycles since the last yielded event


class Code(NamedTuple):
    """One compiled piece of IR.

    ``fn(node_state)`` is a generator function when ``gen`` (the code can
    yield machine events) and a plain function otherwise.  ``count`` is the
    compute cost of plain *expression* code, which its caller adds to the
    node's counter; generators and statements add their own (count 0).
    Callers that accept either kind test ``gen``, then add ``count``.
    """

    fn: Callable
    gen: bool
    count: int = 0


def _raise_later(exc: Exception) -> Code:
    """Code that raises ``exc`` afresh each time it runs."""
    cls, args = type(exc), exc.args

    def fail(k):
        raise cls(*args)

    return Code(fail, False)


def _unbound(k: _Node, kind: str, name: str) -> InterpError:
    return InterpError(f"node {k.node}: unbound {kind} {name!r}")


def _pure_bin(op: str, left, right):
    if op == "+":
        return lambda k: left(k) + right(k)
    if op == "-":
        return lambda k: left(k) - right(k)
    if op == "*":
        return lambda k: left(k) * right(k)
    func = _BIN_FUNCS[op]
    return lambda k: func(left(k), right(k))


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


def _locate(codes: list[Code], shape, order: str, flat_of) -> Code:
    """Flat-index code of one array reference from its compiled indices.

    Index values are truncated with ``int``.  1-D and 2-D references with
    pure indices get the bounds check and index arithmetic inline;
    ``flat_of`` is the generic path for every other case and the failure
    path of the inline checks, so both raise the same error."""
    if any(code.gen for code in codes):
        def locate_gen(k):
            idxs = []
            for fn, gen, count in codes:
                if gen:
                    value = yield from fn(k)
                else:
                    value = fn(k)
                k.compute += count
                idxs.append(int(value))
            return flat_of(tuple(idxs))

        return Code(locate_gen, True)
    fns = [code.fn for code in codes]
    if len(fns) != len(shape) or len(shape) > 2:
        def locate(k):
            return flat_of(tuple([int(fn(k)) for fn in fns]))
    elif len(shape) == 1:
        (f0,), (n0,) = fns, shape

        def locate(k):
            i = int(f0(k))
            if 0 <= i < n0:
                return i
            return flat_of((i,))
    else:
        (f0, f1), (n0, n1) = fns, shape
        if order == "C":
            def locate(k):
                i = int(f0(k))
                j = int(f1(k))
                if 0 <= i < n0 and 0 <= j < n1:
                    return i * n1 + j
                return flat_of((i, j))
        else:
            def locate(k):
                i = int(f0(k))
                j = int(f1(k))
                if 0 <= i < n0 and 0 <= j < n1:
                    return j * n0 + i
                return flat_of((i, j))
    return Code(locate, False, sum(code.count for code in codes))


class Compiler:
    """Compiles a program's IR to closures over per-node :class:`_Node`
    state, each function body once (on first use).

    Compile-time problems (an unknown array or function, a call with the
    wrong number of arguments, a shared load in a loop bound) do not raise
    here: the statement that has one compiles to code that raises the same
    error when it runs.
    """

    def __init__(self, program: Program, store: SharedStore):
        self.program = program
        self.store = store
        #: private array name -> slot in ``_Node.priv``
        self.private_slots = {
            name: slot for slot, name in enumerate(
                name for name, decl in program.arrays.items() if decl.private
            )
        }
        self._views: dict[str, memoryview] = {}
        self._bodies: dict[str, Code] = {}

    def body(self, func_name: str) -> Code:
        """Compiled body of a program function (LangError if missing)."""
        code = self._bodies.get(func_name)
        if code is None:
            func = self.program.function(func_name)
            code = self._bodies[func_name] = self.block(func.body)
        return code

    # -------------------------------------------------------- expressions
    def expr(self, expr: Expr, pc: int) -> Code:
        """Compile an expression evaluated by the statement at ``pc``."""
        t = type(expr)
        if t is Const:
            value = expr.value
            return Code(lambda k: value, False)
        if t is Local:
            name = expr.name

            def local(k):
                try:
                    return k.frame[name]
                except KeyError:
                    raise _unbound(k, "local", name) from None

            return Code(local, False)
        if t is Param:
            name = expr.name

            def param(k):
                try:
                    return k.params[name]
                except KeyError:
                    raise _unbound(k, "parameter", name) from None

            return Code(param, False)
        if t is Bin:
            return self._bin(expr.op, self.expr(expr.left, pc),
                             self.expr(expr.right, pc))
        if t is Un:
            func, (fn, gen, count) = _UN_FUNCS[expr.op], self.expr(expr.operand, pc)
            if not gen:
                return Code(lambda k: func(fn(k)), False, count + 1)

            def unary(k):
                value = yield from fn(k)
                k.compute += 1
                return func(value)

            return Code(unary, True)
        if t is Load:
            return self._load(expr, pc)
        raise InterpError(f"unknown expression node {expr!r}")

    def pure(self, expr: Expr, pc: int) -> Code:
        """An expression that must not touch shared memory (loop bounds,
        lock indices, annotation targets)."""
        code = self.expr(expr, pc)
        if code.gen:
            raise InterpError(
                f"expression at pc {pc} must not touch shared memory"
            )
        return code

    def _bin(self, op: str, left: Code, right: Code) -> Code:
        if not (left.gen or right.gen):
            return Code(_pure_bin(op, left.fn, right.fn), False,
                        left.count + right.count + 1)
        func = _BIN_FUNCS[op]
        lhs, l_gen, l_count = left
        rhs, r_gen, r_count = right

        def binary(k):
            if l_gen:
                a = yield from lhs(k)
            else:
                a = lhs(k)
                k.compute += l_count
            if r_gen:
                b = yield from rhs(k)
            else:
                b = rhs(k)
            k.compute += r_count + 1
            return func(a, b)

        return Code(binary, True)

    def _ref(self, name: str, indices, pc: int):
        """(decl, flat-index code) of an array reference."""
        decl = self.program.array(name)
        codes = [self.expr(index, pc) for index in indices]
        if decl.private:
            return decl, _locate(codes, decl.shape, decl.order,
                                 _private_flat(decl))
        label = self.store.label(name)
        return decl, _locate(codes, label.shape, label.order,
                             label.flat_index)

    def _shared(self, name: str):
        """(memoryview of the values, base address, element size)."""
        view = self._views.get(name)
        if view is None:
            view = self._views[name] = memoryview(self.store.values[name])
        label = self.store.label(name)
        return view, label.region.base, label.elem_size

    def _load(self, expr: Load, pc: int) -> Code:
        decl, (locate, l_gen, l_count) = self._ref(expr.array, expr.indices, pc)
        if decl.private:
            slot = self.private_slots[decl.name]
            if not l_gen:
                def private_load(k):
                    flat = locate(k)
                    row = k.priv[slot]
                    return 0.0 if row is None else row[flat]

                return Code(private_load, False, l_count + 1)

            def private_load_gen(k):
                flat = yield from locate(k)
                k.compute += 1
                row = k.priv[slot]
                return 0.0 if row is None else row[flat]

            return Code(private_load_gen, True)
        view, base, size = self._shared(decl.name)
        count = l_count + 1

        def load(k):
            if l_gen:
                flat = yield from locate(k)
            else:
                flat = locate(k)
            compute = k.compute + count
            k.compute = 0
            yield (EV_REF, compute, base + flat * size, False, pc)
            return view[flat]

        return Code(load, True)

    # --------------------------------------------------------- statements
    def block(self, stmts: list) -> Code:
        """A statement list; adjacent plain statements run as one step."""
        steps: list[Code] = []
        plain: list[Callable] = []
        for stmt in stmts:
            if type(stmt) is Comment:
                continue
            code = self.stmt(stmt)
            if not code.gen:
                plain.append(code.fn)
                continue
            if plain:
                steps.append(_sequence(plain))
                plain = []
            steps.append(code)
        if plain:
            steps.append(_sequence(plain))
        if not steps:
            return Code(lambda k: None, False)
        if len(steps) == 1:
            return steps[0]
        pairs = [(code.fn, code.gen) for code in steps]

        def block(k):
            for fn, gen in pairs:
                if gen:
                    yield from fn(k)
                else:
                    fn(k)

        return Code(block, True)

    def stmt(self, stmt) -> Code:
        """Compile one statement; a compile-time error becomes code that
        raises it when the statement runs."""
        try:
            return self._stmt(stmt)
        except (LangError, LabelError) as exc:
            return _raise_later(exc)

    def _stmt(self, stmt) -> Code:
        t = type(stmt)
        if t is Assign:
            return self._assign(stmt)
        if t is Store:
            return self._store(stmt)
        if t is For:
            return self._for(stmt)
        if t is If or t is While:
            return self._branch(stmt, loop=t is While)
        if t is Barrier:
            pc = stmt.pc

            def barrier(k):
                compute = k.compute
                k.compute = 0
                yield (EV_BARRIER, compute, pc)

            return Code(barrier, True)
        if t is Annot:
            return self._annot(stmt)
        if t is LockStmt or t is UnlockStmt:
            return self._lock(stmt, EV_LOCK if t is LockStmt else EV_UNLOCK)
        if t is CallStmt:
            return self._call(stmt)
        raise InterpError(f"unknown statement {stmt!r}")

    def _assign(self, stmt: Assign) -> Code:
        name = stmt.name
        fn, gen, count = self.expr(stmt.expr, stmt.pc)
        if not gen:
            def assign(k):
                k.frame[name] = fn(k)
                k.compute += count + 1

            return Code(assign, False)

        def assign_gen(k):
            result = yield from fn(k)
            k.frame[name] = result
            k.compute += 1

        return Code(assign_gen, True)

    def _store(self, stmt: Store) -> Code:
        pc = stmt.pc
        decl, loc = self._ref(stmt.array, stmt.indices, pc)
        value = self.expr(stmt.expr, pc)
        if decl.private:
            return self._private_store(decl, loc, value)
        view, base, size = self._shared(decl.name)
        (locate, l_gen, l_count), (fn, v_gen, v_count) = loc, value

        def store(k):
            if l_gen:
                flat = yield from locate(k)
            else:
                flat = locate(k)
            k.compute += l_count
            if v_gen:
                result = yield from fn(k)
            else:
                result = fn(k)
            compute = k.compute + v_count + 1
            k.compute = 0
            yield (EV_REF, compute, base + flat * size, True, pc)
            view[flat] = result

        return Code(store, True)

    def _private_store(self, decl: ArrayDecl, loc: Code, value: Code) -> Code:
        slot = self.private_slots[decl.name]
        length = math.prod(decl.shape)
        (locate, l_gen, l_count), (fn, v_gen, v_count) = loc, value

        def put(k, flat, result):
            row = k.priv[slot]
            if row is None:
                row = k.priv[slot] = [0.0] * length
            row[flat] = float(result)

        if not (l_gen or v_gen):
            count = l_count + v_count + 1

            def private_store(k):
                flat = locate(k)
                result = fn(k)
                k.compute += count
                put(k, flat, result)

            return Code(private_store, False)

        def private_store_gen(k):
            if l_gen:
                flat = yield from locate(k)
            else:
                flat = locate(k)
            k.compute += l_count
            if v_gen:
                result = yield from fn(k)
            else:
                result = fn(k)
            k.compute += v_count + 1
            put(k, flat, result)

        return Code(private_store_gen, True)

    def _for(self, stmt: For) -> Code:
        pc, var = stmt.pc, stmt.var
        (f_lo, _, c_lo), (f_hi, _, c_hi), (f_step, _, c_step) = (
            self.pure(e, pc) for e in (stmt.lo, stmt.hi, stmt.step)
        )
        count = c_lo + c_hi + c_step
        fn, gen, _ = self.block(stmt.body)

        def bounds(k):
            start, stop, stride = int(f_lo(k)), int(f_hi(k)), int(f_step(k))
            k.compute += count
            if stride <= 0:
                raise InterpError(f"for-loop step {stride} <= 0 at pc {pc}")
            return range(start, stop + 1, stride)

        if not gen:
            def loop(k):
                frame = k.frame
                for value in bounds(k):
                    frame[var] = value
                    k.compute += 1
                    fn(k)

            return Code(loop, False)

        def loop_gen(k):
            frame = k.frame
            for value in bounds(k):
                frame[var] = value
                k.compute += 1
                yield from fn(k)

        return Code(loop_gen, True)

    def _branch(self, stmt, loop: bool) -> Code:
        """``if`` (``loop`` false) or ``while``: the condition costs one
        compute cycle on top of its own, each time it is tested."""
        test, c_gen, c_count = self.expr(stmt.cond, stmt.pc)
        count = c_count + 1
        then = self.block(stmt.body if loop else stmt.then)
        els = Code(None, False) if loop else self.block(stmt.els)
        if not (c_gen or then.gen or els.gen):
            f_then, f_else = then.fn, els.fn

            def branch(k):
                while True:
                    value = test(k)
                    k.compute += count
                    if not value:
                        if not loop:
                            f_else(k)
                        return
                    f_then(k)
                    if not loop:
                        return

            return Code(branch, False)

        def branch_gen(k):
            while True:
                if c_gen:
                    value = yield from test(k)
                else:
                    value = test(k)
                k.compute += count
                fn, gen, _ = then if value else els
                if fn is None:
                    return
                if gen:
                    yield from fn(k)
                else:
                    fn(k)
                if not loop:
                    return

        return Code(branch_gen, True)

    def _annot(self, stmt: Annot) -> Code:
        pc, kind = stmt.pc, _ANNOT_TO_DIR[stmt.kind]
        targets = [self._target(target, pc) for target in stmt.targets]

        def directive(k):
            addrs: list[int] = []
            for target in targets:
                addrs.extend(target(k))
            compute = k.compute
            k.compute = 0
            yield (EV_DIRECTIVE, compute, kind, addrs, pc)

        return Code(directive, True)

    def _target(self, target: AnnotTarget, pc: int):
        """Function of the element addresses an annotation target covers.

        CICO annotations are semantics-free hints and "need not be placed
        perfectly accurately" (Section 4.5): hoisting can widen a guarded
        index expression past the array edge, so indices are clipped to the
        array bounds rather than faulting.  A dimension clipped to nothing
        drops the whole target, and its later dimensions are not evaluated.
        """
        decl = self.program.array(target.array)
        if decl.private:
            raise InterpError(
                f"CICO annotation on private array {target.array!r}"
            )
        dims = []
        for spec, extent in zip(target.specs, decl.shape):
            parts = [self.pure(e, pc) for e in (
                (spec.lo, spec.hi, spec.step) if isinstance(spec, RangeSpec)
                else (spec,)
            )]
            dims.append(([code.fn for code in parts],
                         sum(code.count for code in parts), extent))
        label = self.store.label(target.array)
        base, size, shape = label.region.base, label.elem_size, label.shape
        strides = [math.prod(shape[d + 1:]) if label.order == "C"
                   else math.prod(shape[:d]) for d in range(len(shape))]

        def addrs(k):
            per_dim = []
            for fns, count, extent in dims:
                bounds = [int(fn(k)) for fn in fns]
                k.compute += count
                if len(bounds) == 3:
                    lo, hi, step = bounds
                    if step <= 0:
                        raise InterpError(f"annotation range step {step} <= 0")
                    values = [v for v in range(lo, hi + 1, step)
                              if 0 <= v < extent]
                else:
                    values = bounds if 0 <= bounds[0] < extent else []
                if not values:
                    return []  # entire target out of range: ignore the hint
                per_dim.append(values)
            if len(per_dim) != len(shape):  # raises the index-count error
                label.addr_of(tuple(vals[0] for vals in per_dim))
            flats = [0]
            for values, stride in zip(per_dim, strides):
                flats = [f + v * stride for f in flats for v in values]
            return [base + f * size for f in flats]

        return addrs

    def _lock(self, stmt, event: int) -> Code:
        pc = stmt.pc
        parts = [self.pure(e, pc) for e in stmt.indices]
        fns, count = [c.fn for c in parts], sum(c.count for c in parts)
        label = self.store.label(stmt.array)

        def lock(k):
            idxs = tuple([int(fn(k)) for fn in fns])
            compute = k.compute + count
            k.compute = 0
            yield (event, compute, label.addr_of(idxs), pc)

        return Code(lock, True)

    def _call(self, stmt: CallStmt) -> Code:
        name, params = stmt.func, self.program.function(stmt.func).params
        if len(params) != len(stmt.args):
            raise InterpError(
                f"call {name!r}: expected {len(params)} args, "
                f"got {len(stmt.args)}"
            )
        args = [self.expr(arg, stmt.pc) for arg in stmt.args]
        body = self.body

        def call(k):
            values = []
            for fn, gen, count in args:
                if gen:
                    value = yield from fn(k)
                else:
                    value = fn(k)
                k.compute += count
                values.append(value)
            fn, gen, _ = body(name)  # compiled on first call: allows recursion
            caller = k.frame
            k.frame = dict(zip(params, values))
            try:
                if gen:
                    yield from fn(k)
                else:
                    fn(k)
            finally:
                k.frame = caller

        return Code(call, True)


def _sequence(fns: list[Callable]) -> Code:
    """Plain steps run in order, as one plain step."""
    if len(fns) == 1:
        return Code(fns[0], False)

    def sequence(k):
        for fn in fns:
            fn(k)

    return Code(sequence, False)


class Interpreter:
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
        self.compiler = Compiler(program, self.store)

    def kernel(self, node: int):
        """Machine-event generator for one node."""
        params = {"me": node}
        params.update(self.params_fn(node))
        compiler = self.compiler
        fn, gen, _ = compiler.body(self.program.entry)
        k = _Node(node, params, len(compiler.private_slots))
        if gen:
            yield from fn(k)
        else:
            fn(k)
        if k.compute:
            yield (EV_REF, k.compute, -1, False, -1)
