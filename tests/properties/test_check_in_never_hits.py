"""A check-in is never followed by a plain hit on the same block.

The online verifier looks for premature check-ins (a node touching a block
it checked in, with no check-out in between) only on misses and
prefetched hits; it reads no plain hit at all.  That is safe because a
check-in drops the node's line: its next reference to the block cannot
be a plain hit by :meth:`Dir1SWProtocol.hit_path`'s rule.  It is a read
miss, a write miss, a write fault, or — after a prefetch re-fetched the
block — a prefetched hit, and the verifier reads all of those.

Hypothesis drives a small protocol (2–3 nodes, 1–4 blocks, caches small
enough to evict) through random reads, writes, check-ins, check-outs and
prefetches, and checks the rule at every reference that follows a
check-in.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cache.state import LineState
from repro.coherence.protocol import AccessKind, Dir1SWProtocol

OPS = ("read", "write", "check_in", "check_out_S", "check_out_X",
       "prefetch_S", "prefetch_X")


@st.composite
def runs(draw):
    nodes = draw(st.integers(2, 3))
    blocks = draw(st.integers(1, 4))
    steps = draw(st.lists(
        st.tuples(st.sampled_from(OPS), st.integers(0, nodes - 1),
                  st.integers(0, blocks - 1), st.integers(0, 600)),
        min_size=1, max_size=60,
    ))
    return nodes, steps


def _plain_hit(rule, node: int, block: int, write: bool) -> bool:
    """Whether the machine would resolve this reference as a plain hit."""
    sets, mask, _stats, _proto_stats, pending, _hit = rule
    line = sets[node][block & mask].get(block)
    return (line is not None
            and (not write or line.state is LineState.EXCLUSIVE)
            and block not in pending[node])


@settings(max_examples=300, deadline=None)
@given(runs())
def test_reference_after_check_in_is_never_a_plain_hit(run):
    nodes, steps = run
    # one set of two ways per cache: four blocks evict one another
    proto = Dir1SWProtocol(num_nodes=nodes, cache_size=64, block_size=32,
                           assoc=2)
    rule = proto.hit_path()
    checked_in: set[tuple[int, int]] = set()  # no check-out since
    now = 0
    for op, node, block, gap in steps:
        now += gap
        pair = (node, block)
        if op in ("read", "write"):
            write = op == "write"
            if pair in checked_in:
                assert not _plain_hit(rule, node, block, write)
            result = (proto.write if write else proto.read)(node, block, now)
            if pair in checked_in:
                assert (result.kind is not AccessKind.HIT
                        or result.detail == "prefetched"), result
                checked_in.discard(pair)  # only the next reference counts
        elif op == "check_in":
            proto.check_in(node, block, now)
            checked_in.add(pair)
        elif op.startswith("check_out"):
            proto.check_out(node, block, op.endswith("X"), now)
            checked_in.discard(pair)
        else:
            proto.prefetch(node, block, op.endswith("X"), now)
