"""Static CICO cost reports.

Section 2's promise is that a programmer can *compute* a program's
communication cost from its annotations — the Jacobi example does it with
pencil and paper.  This module mechanizes that arithmetic for any annotated
IR program: walk the AST, count how often each annotation executes (loop
trip counts from the per-node parameter environment), expand each target to
cache blocks, and attribute cycles with the CICO cost model.

The estimate is exact whenever loop bounds and annotation targets are
evaluable from parameters and constants (true for every regular workload
here); data-dependent sites (indirect indices, unevaluable guards) are
counted at one block per execution and flagged in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cico.cost_model import CicoCostModel
from repro.errors import ReproError
from repro.lang.ast import (
    Annot,
    AnnotKind,
    Bin,
    Const,
    Expr,
    For,
    Function,
    If,
    Local,
    Param,
    Program,
    RangeSpec,
    Stmt,
    child_blocks,
)


@dataclass
class SiteEstimate:
    """Cost estimate for one annotation statement, for one node."""

    kind: AnnotKind
    target: str
    pc: int
    executions: int  # times the statement runs on this node
    blocks_per_execution: int
    exact: bool  # False when something was not statically evaluable

    @property
    def block_ops(self) -> int:
        return self.executions * self.blocks_per_execution


@dataclass
class CostReport:
    """Per-node annotation census plus machine-wide totals."""

    per_node: dict[int, list[SiteEstimate]] = field(default_factory=dict)
    block_size: int = 32

    def totals(self, kind: AnnotKind | None = None) -> int:
        """Total block operations across all nodes (optionally one kind)."""
        return sum(
            est.block_ops
            for sites in self.per_node.values()
            for est in sites
            if kind is None or est.kind is kind
        )

    def checkouts(self) -> int:
        return self.totals(AnnotKind.CHECK_OUT_S) + self.totals(
            AnnotKind.CHECK_OUT_X
        )

    def checkins(self) -> int:
        return self.totals(AnnotKind.CHECK_IN)

    def prefetches(self) -> int:
        return self.totals(AnnotKind.PREFETCH_S) + self.totals(
            AnnotKind.PREFETCH_X
        )

    def all_exact(self) -> bool:
        return all(
            est.exact for sites in self.per_node.values() for est in sites
        )

    def attributed_cycles(self, model: CicoCostModel | None = None,
                          remote_fraction: float = 1.0) -> float:
        model = model or CicoCostModel()
        return model.program_cost(
            self.checkouts(), self.checkins(), remote_fraction
        ) + self.prefetches() * model.cost.directive_cycles

    def render(self) -> str:
        from repro.harness.reporting import render_table

        rows = []
        for node in sorted(self.per_node):
            for est in self.per_node[node]:
                rows.append([
                    node, est.kind.value, est.target, est.executions,
                    est.blocks_per_execution, est.block_ops,
                    "exact" if est.exact else "~lower bound",
                ])
        table = render_table(
            ["node", "annotation", "target", "execs", "blocks", "block-ops",
             "confidence"],
            rows,
            title="CICO static cost report",
        )
        return (
            table
            + f"total check-outs: {self.checkouts()}   "
            + f"check-ins: {self.checkins()}   "
            + f"prefetches: {self.prefetches()}\n"
        )


class _Evaluator:
    """Evaluate Const/Param/loop-constant expressions for one node."""

    def __init__(self, params: dict[str, float]):
        self.params = params
        self.loop_values: dict[str, int | None] = {}

    def eval(self, expr: Expr) -> int | None:
        t = type(expr)
        if t is Const:
            value = expr.value
            return int(value) if float(value).is_integer() else None
        if t is Param:
            value = self.params.get(expr.name)
            return None if value is None else int(value)
        if t is Local:
            return self.loop_values.get(expr.name)
        if t is Bin:
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            if left is None or right is None:
                return None
            try:
                if expr.op == "+":
                    return left + right
                if expr.op == "-":
                    return left - right
                if expr.op == "*":
                    return left * right
                if expr.op == "//":
                    return left // right
                if expr.op == "%":
                    return left % right
                if expr.op == "==":
                    return int(left == right)
                if expr.op == "!=":
                    return int(left != right)
                if expr.op == "<":
                    return int(left < right)
                if expr.op == "<=":
                    return int(left <= right)
                if expr.op == ">":
                    return int(left > right)
                if expr.op == ">=":
                    return int(left >= right)
                if expr.op == "and":
                    return int(bool(left and right))
                if expr.op == "or":
                    return int(bool(left or right))
            except ZeroDivisionError:
                return None
        return None


def estimate_costs(
    program: Program,
    params_fn: Callable[[int], dict],
    num_nodes: int,
    block_size: int = 32,
    elem_size: int = 8,
) -> CostReport:
    """Static annotation census for every node of an SPMD program."""
    if num_nodes <= 0:
        raise ReproError(f"num_nodes must be positive, got {num_nodes}")
    report = CostReport(block_size=block_size)
    entry = program.function(program.entry)
    for node in range(num_nodes):
        env = {"me": node}
        env.update(params_fn(node))
        evaluator = _Evaluator(env)
        sites: list[SiteEstimate] = []
        _walk(program, entry, evaluator, 1, True, sites, block_size,
              elem_size)
        report.per_node[node] = sites
    return report


def _guard_allows(evaluator: _Evaluator, cond: Expr) -> bool | None:
    """Evaluate ``me == k`` / ``me != k`` style guards; None = unknown."""
    value = evaluator.eval(cond)
    if value is None:
        return None
    return bool(value)


def _trip_count(evaluator: _Evaluator, stmt: For) -> tuple[int | None, bool]:
    lo = evaluator.eval(stmt.lo)
    hi = evaluator.eval(stmt.hi)
    step = evaluator.eval(stmt.step)
    if lo is None or hi is None or not step:
        return None, False
    return max(0, (hi - lo) // step + 1), True


def _target_blocks(evaluator: _Evaluator, annot: Annot, program: Program,
                   block_size: int, elem_size_default: int) -> tuple[int, bool]:
    """Distinct cache blocks one execution of ``annot`` touches.

    Enumerated exactly the way the machine expands a directive (per-dim
    index lists -> flat indices under the array's storage order -> distinct
    blocks); unevaluable specs fall back to one block and mark the estimate
    inexact."""
    blocks: set[tuple[str, int]] = set()
    exact = True
    fallback = 0
    for target in annot.targets:
        decl = program.arrays.get(target.array)
        if decl is None or len(target.specs) != len(decl.shape):
            # the interpreter raises on either when the directive runs
            exact = False
            fallback += 1
            continue
        per_dim: list[list[int]] = []
        evaluable = True
        for dim, spec in enumerate(target.specs):
            extent = decl.shape[dim]
            if isinstance(spec, RangeSpec):
                lo = evaluator.eval(spec.lo)
                hi = evaluator.eval(spec.hi)
                step = evaluator.eval(spec.step)
                if lo is None or hi is None or not step or step < 0:
                    evaluable = False
                    break
                values = [v for v in range(lo, hi + 1, step)
                          if 0 <= v < extent]
            else:
                value = evaluator.eval(spec)
                if value is None:
                    evaluable = False
                    break
                values = [value] if 0 <= value < extent else []
            if not values:
                per_dim = []
                break
            per_dim.append(values)
        if not evaluable:
            exact = False
            fallback += 1
            continue
        if not per_dim and len(target.specs):
            continue  # clipped to nothing: the machine ignores it too
        elem_size = decl.elem_size

        def flat_of(idx: tuple[int, ...]) -> int:
            flat = 0
            if decl.order == "C":
                for value, extent in zip(idx, decl.shape):
                    flat = flat * extent + value
            else:
                for value, extent in zip(reversed(idx), reversed(decl.shape)):
                    flat = flat * extent + value
            return flat

        import itertools

        for idx in itertools.product(*per_dim):
            block = (flat_of(idx) * elem_size) // block_size
            blocks.add((target.array, block))
    return len(blocks) + fallback, exact


def _walk(program, func_or_stmt, evaluator, multiplier, reachable, sites,
          block_size, elem_size) -> None:
    body = (
        func_or_stmt.body
        if isinstance(func_or_stmt, Function)
        else func_or_stmt
    )
    for stmt in body:
        if not reachable:
            return
        if isinstance(stmt, Annot):
            blocks, exact_blocks = _target_blocks(
                evaluator, stmt, program, block_size, elem_size
            )
            sites.append(
                SiteEstimate(
                    kind=stmt.kind,
                    target=", ".join(
                        _target_name(t) for t in stmt.targets
                    ),
                    pc=stmt.pc,
                    executions=multiplier,
                    blocks_per_execution=blocks,
                    exact=exact_blocks,
                )
            )
        elif isinstance(stmt, For):
            trips, _exact = _trip_count(evaluator, stmt)
            inner = multiplier * (trips if trips is not None else 1)
            saved = evaluator.loop_values.get(stmt.var)
            # Representative-iteration estimate: evaluate loop-var-dependent
            # targets at the first iteration (block counts per execution are
            # uniform across iterations for slice-shaped targets).
            evaluator.loop_values[stmt.var] = evaluator.eval(stmt.lo)
            _walk(program, stmt.body, evaluator, inner, True, sites,
                  block_size, elem_size)
            evaluator.loop_values[stmt.var] = saved
        elif isinstance(stmt, If):
            allows = _guard_allows(evaluator, stmt.cond)
            if allows is None or allows:
                _walk(program, stmt.then, evaluator, multiplier, True,
                      sites, block_size, elem_size)
            if allows is None or not allows:
                _walk(program, stmt.els, evaluator, multiplier, True,
                      sites, block_size, elem_size)
        else:
            for block in child_blocks(stmt):
                _walk(program, block, evaluator, multiplier, True, sites,
                      block_size, elem_size)


def _target_name(target) -> str:
    from repro.lang.unparse import target_str

    return target_str(target)
