"""Address -> program-variable mapping and annotation-target symbolization.

Two jobs (paper Section 4.3):

* resolve raw trace addresses to labelled array elements (via the trace's
  labelled-region table), and
* express per-node *sets* of elements as a single symbolic annotation target
  — ``U[Lip:Uip, Ljp:Ujp]`` rather than 32 different constant ranges — by
  matching each node's concrete bounds against that node's parameter
  environment.  The parameter environment is static information: it is the
  same per-node binding the SPMD program runs with.

Symbolization can fail (scattered sets, non-rectangular footprints, no
matching parameter): the caller then falls back to near-reference placement,
which is also what the paper does for pointer-based programs.

Symbolization is arithmetic: a dimension's index of flat index ``f`` is
``(f // stride) % extent``, so each dimension's index set comes from one
pass over the flat set, a footprint is a rectangle exactly when the
product of those sets' sizes equals its element count, and no element is
turned back into an index tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Callable

from repro.errors import CachierError
from repro.lang.ast import AnnotTarget, Const, Expr, Param, RangeSpec
from repro.mem.labels import ArrayLabel
from repro.util.intervals import sorted_progression


class ParamEnv:
    """Per-node parameter bindings (the SPMD environment)."""

    def __init__(self, params_fn: Callable[[int], dict], num_nodes: int):
        if num_nodes <= 0:
            raise CachierError(f"num_nodes must be positive, got {num_nodes}")
        self.num_nodes = num_nodes
        self.per_node: dict[int, dict[str, float]] = {}
        for node in range(num_nodes):
            env = {"me": node}
            env.update(params_fn(node))
            self.per_node[node] = env

    def value(self, node: int, name: str) -> float:
        try:
            env = self.per_node[node]
        except KeyError:
            raise CachierError(
                f"no parameter environment for node {node} "
                f"(have nodes 0..{self.num_nodes - 1})"
            ) from None
        try:
            return env[name]
        except KeyError:
            raise CachierError(
                f"node {node} has no parameter {name!r} "
                f"(available: {sorted(env)})"
            ) from None

    def eval_expr(self, node: int, expr: Expr) -> int | None:
        """Evaluate a Const/Param(+-Const) expression for one node."""
        from repro.lang.ast import Bin

        if isinstance(expr, Const):
            return int(expr.value)
        if isinstance(expr, Param):
            value = self.per_node[node].get(expr.name)
            return None if value is None else int(value)
        if isinstance(expr, Bin) and expr.op in ("+", "-"):
            left = self.eval_expr(node, expr.left)
            right = self.eval_expr(node, expr.right)
            if left is None or right is None:
                return None
            return left + right if expr.op == "+" else left - right
        return None

    # ------------------------------------------------------------- matching
    def match_values(self, values: dict[int, int]) -> Expr | None:
        """An expression equal to ``values[node]`` on every given node.

        Preference order: a constant (all equal), an exact parameter, then
        ``param + 1`` / ``param - 1`` (for inclusive/exclusive bound shifts).
        """
        if not values:
            return None
        distinct = set(values.values())
        if len(distinct) == 1:
            return Const(next(iter(distinct)))
        candidates = sorted(
            {
                name
                for node in values
                for name in self.per_node[node]
            }
        )
        from repro.lang.ast import Bin

        for name in candidates:
            if all(
                self.per_node[node].get(name) == value
                for node, value in values.items()
            ):
                return Param(name)
        for name in candidates:
            if all(
                self.per_node[node].get(name, None) is not None
                and self.per_node[node][name] + 1 == value
                for node, value in values.items()
            ):
                return Bin("+", Param(name), Const(1))
            if all(
                self.per_node[node].get(name, None) is not None
                and self.per_node[node][name] - 1 == value
                for node, value in values.items()
            ):
                return Bin("-", Param(name), Const(1))
        return None


@dataclass(frozen=True)
class SymbolizedTarget:
    target: AnnotTarget
    #: bytes covered per node (max over nodes) — for the capacity check
    max_bytes: int


def _strides(label: ArrayLabel) -> list[int]:
    """Per dimension, the flat-index distance between neighbouring indices."""
    shape = label.shape
    if label.order == "C":
        return [prod(shape[d + 1:]) for d in range(len(shape))]
    return [prod(shape[:d]) for d in range(len(shape))]


def symbolize(
    label: ArrayLabel,
    per_node_flats: dict[int, set[int]],
    env: ParamEnv,
) -> SymbolizedTarget | None:
    """Express per-node flat-index sets as one symbolic AnnotTarget.

    Requires every participating node's footprint to be a *rectangle* (the
    cartesian product of a per-dimension arithmetic progression), with each
    dimension's bounds either equal across nodes or matched by a parameter.
    A flat index outside the label raises :class:`LabelError`.
    """
    participating = {n: f for n, f in per_node_flats.items() if f}
    if not participating:
        return None
    ndim = len(label.shape)
    count = label.num_elements
    geometry = list(zip(_strides(label), label.shape))
    # Per node, per dim: (start, stop, step); plus rectangularity check.
    per_dim_progs: list[dict[int, tuple[int, int, int]]] = [
        {} for _ in range(ndim)
    ]
    max_elems = 0
    for node, flats in participating.items():
        if min(flats) < 0 or max(flats) >= count:
            # the first out-of-range index, named as unflatten names it
            label.unflatten(next(f for f in flats if not 0 <= f < count))
        if ndim == 1:
            dims = [sorted(flats)]
        else:
            dims = [sorted({(f // stride) % extent for f in flats})
                    for stride, extent in geometry]
        size = prod(len(vals) for vals in dims)
        if size != len(flats):
            return None  # not rectangular
        max_elems = max(max_elems, size)
        for d in range(ndim):
            prog = sorted_progression(dims[d])
            if prog is None:
                return None
            per_dim_progs[d][node] = prog
    specs: list[object] = []
    for d in range(ndim):
        progs = per_dim_progs[d]
        steps = {step for (_, _, step) in progs.values()}
        if len(steps) != 1:
            return None
        step = steps.pop()
        los = {node: lo for node, (lo, _, _) in progs.items()}
        # a progression's stop is (last element + 1): inclusive hi = stop - 1.
        his = {node: hi - 1 for node, (_, hi, _) in progs.items()}
        singleton = all(los[n] == his[n] for n in progs)
        lo_expr = env.match_values(los)
        if lo_expr is None:
            return None
        if singleton:
            specs.append(lo_expr)
            continue
        hi_expr = env.match_values(his)
        if hi_expr is None:
            return None
        specs.append(RangeSpec(lo=lo_expr, hi=hi_expr, step=Const(step)))
    return SymbolizedTarget(
        target=AnnotTarget(array=label.name, specs=tuple(specs)),
        max_bytes=max_elems * label.elem_size,
    )
