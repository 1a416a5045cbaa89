"""IR node definitions.

Programs are SPMD: every node runs the same ``main`` function with its own
parameter environment (``me``, per-node block bounds like ``Ljp``/``Ujp``,
problem sizes).  Loop bounds written as :class:`Param` expressions are what
lets one program text describe all nodes — and what lets the annotator print
symbolic annotation targets like ``B[k, Ljp:Ujp]`` (Section 4.4).

Statement PCs
-------------
Every *statement* carries a ``pc``, assigned by :func:`number_program` in a
deterministic pre-order walk.  A memory reference in the trace records the pc
of its enclosing statement — line granularity, like the paper's tracer, which
is exactly why address-to-variable mapping needs the labelled regions rather
than the pc alone (their ``C[i,j] = C[i,j] + A[i,k]*B[k,j]`` example).
Expressions carry no pc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LangError

# =========================================================================
# Expressions
# =========================================================================


class Expr:
    """Base class for expressions (numeric values).

    Expressions are immutable, so a deep copy of a program shares them:
    ``__deepcopy__`` returns the node itself.
    """

    __slots__ = ()

    def __deepcopy__(self, memo) -> "Expr":
        return self


@dataclass(frozen=True, slots=True)
class Const(Expr):
    value: float | int


@dataclass(frozen=True, slots=True)
class Param(Expr):
    """A runtime parameter from the node's environment (me, N, Lip, ...)."""

    name: str


@dataclass(frozen=True, slots=True)
class Local(Expr):
    """A local scalar variable of the current function frame."""

    name: str


#: Binary operators the interpreter understands.
BIN_OPS = {
    "+", "-", "*", "/", "//", "%",
    "<", "<=", ">", ">=", "==", "!=",
    "and", "or", "min", "max",
}

#: Unary operators / intrinsics.
UN_OPS = {"neg", "not", "abs", "sqrt", "floor", "exp", "sin", "cos"}


@dataclass(frozen=True, slots=True)
class Bin(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in BIN_OPS:
            raise LangError(f"unknown binary operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Un(Expr):
    op: str
    operand: Expr

    def __post_init__(self) -> None:
        if self.op not in UN_OPS:
            raise LangError(f"unknown unary operator {self.op!r}")


@dataclass(frozen=True, slots=True)
class Load(Expr):
    """Load one element of an array (shared or private, per its decl)."""

    array: str
    indices: tuple[Expr, ...]


# =========================================================================
# Annotation targets
# =========================================================================


@dataclass(frozen=True, slots=True)
class RangeSpec:
    """An *inclusive* index range ``lo:hi`` (with optional step) inside an
    annotation target — the paper writes ``B[k, Ljp:Ujp]``."""

    lo: Expr
    hi: Expr
    step: Expr = Const(1)


IndexSpec = "Expr | RangeSpec"


@dataclass(frozen=True, slots=True)
class AnnotTarget:
    """What an annotation covers: an array and per-dimension index specs."""

    array: str
    specs: tuple[object, ...]  # each is Expr or RangeSpec


import enum


class AnnotKind(enum.Enum):
    CHECK_OUT_S = "check_out_S"
    CHECK_OUT_X = "check_out_X"
    CHECK_IN = "check_in"
    PREFETCH_S = "prefetch_S"
    PREFETCH_X = "prefetch_X"


# =========================================================================
# Statements
# =========================================================================


class Stmt:
    __slots__ = ()


@dataclass(slots=True)
class Assign(Stmt):
    """``name = expr`` (local scalar)."""

    name: str
    expr: Expr
    pc: int = -1


@dataclass(slots=True)
class Store(Stmt):
    """``array[indices] = expr`` (shared or private array)."""

    array: str
    indices: tuple[Expr, ...]
    expr: Expr
    pc: int = -1


@dataclass(slots=True)
class For(Stmt):
    """``for var = lo to hi step s do body od`` — *inclusive* bounds,
    matching the paper's pseudocode."""

    var: str
    lo: Expr
    hi: Expr
    body: list[Stmt]
    step: Expr = Const(1)
    pc: int = -1


@dataclass(slots=True)
class While(Stmt):
    cond: Expr
    body: list[Stmt]
    pc: int = -1


@dataclass(slots=True)
class If(Stmt):
    cond: Expr
    then: list[Stmt]
    els: list[Stmt] = field(default_factory=list)
    pc: int = -1


@dataclass(slots=True)
class Barrier(Stmt):
    label: str = ""
    pc: int = -1


@dataclass(slots=True)
class LockStmt(Stmt):
    """Acquire the lock guarding ``array[indices]``."""

    array: str
    indices: tuple[Expr, ...]
    pc: int = -1


@dataclass(slots=True)
class UnlockStmt(Stmt):
    array: str
    indices: tuple[Expr, ...]
    pc: int = -1


@dataclass(slots=True)
class Annot(Stmt):
    """A CICO annotation statement."""

    kind: AnnotKind
    targets: tuple[AnnotTarget, ...]
    pc: int = -1


@dataclass(slots=True)
class Comment(Stmt):
    """A comment attached to the source (data-race / false-sharing flags)."""

    text: str
    pc: int = -1


@dataclass(slots=True)
class CallStmt(Stmt):
    """Call a program function; arguments bind to its parameter names."""

    func: str
    args: tuple[Expr, ...] = ()
    pc: int = -1


# =========================================================================
# Declarations / program
# =========================================================================


@dataclass(frozen=True, slots=True)
class ArrayDecl:
    """A labelled array.  ``private`` arrays are per-node scratch (no
    coherence traffic); shared arrays live in the labelled shared segment."""

    name: str
    shape: tuple[int, ...]
    elem_size: int = 8
    order: str = "C"
    private: bool = False

    def __post_init__(self) -> None:
        if not self.shape or any(n <= 0 for n in self.shape):
            raise LangError(f"array {self.name!r}: bad shape {self.shape!r}")
        if self.order not in ("C", "F"):
            raise LangError(f"array {self.name!r}: bad order {self.order!r}")


@dataclass(slots=True)
class Function:
    name: str
    params: tuple[str, ...]
    body: list[Stmt]


@dataclass(slots=True)
class Program:
    name: str
    arrays: dict[str, ArrayDecl]
    functions: dict[str, Function]
    entry: str = "main"
    max_pc: int = -1

    def function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise LangError(f"program {self.name!r} has no function {name!r}") from None

    def array(self, name: str) -> ArrayDecl:
        try:
            return self.arrays[name]
        except KeyError:
            raise LangError(f"program {self.name!r} has no array {name!r}") from None

    def shared_arrays(self) -> list[ArrayDecl]:
        return [decl for decl in self.arrays.values() if not decl.private]


# =========================================================================
# Walking / numbering
# =========================================================================


def child_blocks(stmt: Stmt) -> list[list[Stmt]]:
    """Statement lists nested directly inside ``stmt``."""
    if isinstance(stmt, (For, While)):
        return [stmt.body]
    if isinstance(stmt, If):
        return [stmt.then, stmt.els]
    return []


def walk_stmts(body: list[Stmt]):
    """Pre-order walk yielding every statement in ``body`` recursively."""
    for stmt in body:
        yield stmt
        for block in child_blocks(stmt):
            yield from walk_stmts(block)


def number_program(program: Program, start: int = 1) -> Program:
    """Assign deterministic pcs to every statement (pre-order, functions in
    insertion order).  Returns the same program, mutated."""
    pc = start
    for func in program.functions.values():
        for stmt in walk_stmts(func.body):
            stmt.pc = pc
            pc += 1
    program.max_pc = pc - 1
    return program


def fresh_pcs(program: Program, body: list[Stmt]) -> None:
    """Assign pcs beyond ``program.max_pc`` to any unnumbered statements in
    ``body`` (used when the annotator inserts new statements)."""
    pc = program.max_pc
    for stmt in walk_stmts(body):
        if stmt.pc < 0:
            pc += 1
            stmt.pc = pc
    program.max_pc = pc
