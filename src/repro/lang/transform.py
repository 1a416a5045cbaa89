"""AST rewriting utilities for the annotator.

The annotator never mutates the traced program: it clones it (keeping the
original statement pcs so trace records still resolve) and inserts annotation
statements into the clone.  Inserted statements get fresh pcs past
``program.max_pc``.
"""

from __future__ import annotations

import copy

from repro.errors import LangError
from repro.lang.ast import Program, Stmt, fresh_pcs, walk_stmts
from repro.lang.loops import StmtIndex


def clone_program(program: Program) -> Program:
    """Deep copy preserving statement pcs.  Statements, blocks, functions
    and the program are fresh; immutable expression nodes are shared."""
    return copy.deepcopy(program)


def insert_before(program: Program, index: StmtIndex, pc: int, new: list[Stmt]) -> None:
    """Insert ``new`` immediately before the statement with ``pc``.

    The caller's ``index`` must describe ``program``'s current AST; it is
    invalidated by the insertion (block positions shift) — rebuild it before
    further pc-based edits.
    """
    loc = index.locate(pc)
    fresh_pcs(program, new)
    loc.block[loc.index : loc.index] = new


def insert_after(program: Program, index: StmtIndex, pc: int, new: list[Stmt]) -> None:
    loc = index.locate(pc)
    fresh_pcs(program, new)
    loc.block[loc.index + 1 : loc.index + 1] = new


def insert_at_function_start(program: Program, func: str, new: list[Stmt]) -> None:
    fresh_pcs(program, new)
    program.function(func).body[0:0] = new


def insert_at_function_end(program: Program, func: str, new: list[Stmt]) -> None:
    fresh_pcs(program, new)
    program.function(func).body.extend(new)


def replace_stmt(program: Program, index: StmtIndex, pc: int, new: list[Stmt]) -> None:
    loc = index.locate(pc)
    fresh_pcs(program, new)
    loc.block[loc.index : loc.index + 1] = new


def count_stmts(program: Program) -> int:
    return sum(
        1 for func in program.functions.values() for _ in walk_stmts(func.body)
    )
