"""Property test: arithmetic symbolization against the per-element original.

:func:`repro.cachier.mapping.symbolize` derives each dimension's index set
as ``(flat // stride) % extent`` and tests rectangularity by counting.  The
reference below is the original: it turns every element back into an index
tuple with ``ArrayLabel.unflatten`` and checks every gap of a progression.  On 1-3-D labels in both storage
orders, with rectangular, strided and scattered footprints and
out-of-range flat indices, both must return the same target, or both
``None``, or raise the same :class:`LabelError`.
"""

from __future__ import annotations

from itertools import product
from math import prod

from hypothesis import given, settings, strategies as st

from repro.cachier.mapping import ParamEnv, SymbolizedTarget, symbolize
from repro.errors import LabelError
from repro.lang.ast import AnnotTarget, Const, RangeSpec
from repro.mem.labels import ArrayLabel
from repro.mem.layout import Region


def as_progression(indices):
    """The original progression test, checking every gap."""
    seq = sorted(set(int(i) for i in indices))
    if not seq:
        return None
    if len(seq) == 1:
        return seq[0], seq[0] + 1, 1
    step = seq[1] - seq[0]
    if step <= 0:
        return None
    for prev, cur in zip(seq, seq[1:]):
        if cur - prev != step:
            return None
    return seq[0], seq[-1] + 1, step


def reference_symbolize(label, per_node_flats, env):
    """The per-element implementation ``symbolize`` replaced."""
    participating = {n: f for n, f in per_node_flats.items() if f}
    if not participating:
        return None
    ndim = len(label.shape)
    per_dim_progs = [{} for _ in range(ndim)]
    max_elems = 0
    for node, flats in participating.items():
        tuples = [label.unflatten(f) for f in flats]
        dims = [sorted({t[d] for t in tuples}) for d in range(ndim)]
        size = 1
        for vals in dims:
            size *= len(vals)
        if size != len(set(tuples)):
            return None
        max_elems = max(max_elems, size)
        for d in range(ndim):
            prog = as_progression(dims[d])
            if prog is None:
                return None
            per_dim_progs[d][node] = prog
    specs = []
    for d in range(ndim):
        progs = per_dim_progs[d]
        steps = {step for (_, _, step) in progs.values()}
        if len(steps) != 1:
            return None
        step = steps.pop()
        los = {node: lo for node, (lo, _, _) in progs.items()}
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


@st.composite
def labels(draw):
    ndim = draw(st.integers(1, 3))
    longest = (40, 8, 5)[ndim - 1]  # room for long strided runs
    shape = tuple(draw(st.lists(st.integers(1, longest), min_size=ndim,
                                max_size=ndim)))
    order = draw(st.sampled_from(["C", "F"]))
    region = Region(name="A", base=4096, nbytes=prod(shape) * 8)
    return ArrayLabel(region=region, shape=shape, elem_size=8, order=order)


@st.composite
def footprint(draw, label):
    """One node's flat-index set: a (possibly strided) rectangle, one with
    an element moved by one, a scattered subset, or any of them with
    out-of-range indices mixed in."""
    count = label.num_elements
    style = draw(st.sampled_from(["rectangle", "nudged", "scattered"]))
    if style == "scattered":
        flats = set(draw(st.lists(st.integers(0, count - 1), max_size=12)))
    else:
        axes = []
        for extent in label.shape:
            lo = draw(st.integers(0, extent - 1))
            hi = draw(st.integers(lo, extent - 1))
            step = draw(st.integers(1, 3))
            axes.append(range(lo, hi + 1, step))
        flats = {label.flat_index(idx) for idx in product(*axes)}
        if style == "nudged":
            moved = draw(st.sampled_from(sorted(flats)))
            flats = (flats - {moved}) | {
                min(max(moved + draw(st.sampled_from([-1, 1])), 0), count - 1)
            }
    if draw(st.integers(0, 5)) == 0:
        flats |= set(draw(st.lists(
            st.one_of(st.integers(-4, -1), st.integers(count, count + 4)),
            min_size=1, max_size=2,
        )))
    return flats


@st.composite
def cases(draw):
    label = draw(labels())
    num_nodes = draw(st.integers(1, 3))
    per_node = {node: draw(footprint(label)) for node in range(num_nodes)}
    # parameters that sometimes name a node's bounds, sometimes miss them
    bound = max(label.shape)
    params = {
        node: {"L": draw(st.integers(0, bound)), "U": draw(st.integers(0, bound))}
        for node in range(num_nodes)
    }
    env = ParamEnv(lambda n: params[n], num_nodes)
    return label, per_node, env


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except LabelError as exc:
        return "LabelError", str(exc)


@settings(max_examples=400, deadline=None)
@given(cases())
def test_symbolize_matches_per_element_reference(case):
    label, per_node, env = case
    assert outcome(symbolize, label, per_node, env) == outcome(
        reference_symbolize, label, per_node, env
    )

