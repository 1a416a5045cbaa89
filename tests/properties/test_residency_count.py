"""The per-block residency count a protocol's caches share.

The per-write SWMR check reads ``proto.residency`` instead of walking
every cache, so the count must follow every way a line enters or leaves a
cache, and a count that drifts must be caught by the whole-state check.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, strategies as st

from repro.cache.state import LineState
from repro.coherence.protocol import Dir1SWProtocol
from repro.verify.invariants import check_state

NODES = 3
BLOCKS = 24  # more blocks than a cache holds: inserts evict


def _proto() -> Dir1SWProtocol:
    # 2 sets x 2 ways per cache
    return Dir1SWProtocol(num_nodes=NODES, cache_size=128, block_size=32,
                          assoc=2)


nodes = st.integers(0, NODES - 1)
blocks = st.integers(0, BLOCKS - 1)
lines = st.lists(
    st.tuples(blocks, st.sampled_from(["S", "X"]), st.booleans()).map(
        lambda line: (line[0], line[1], line[2] and line[1] == "X")),
    max_size=6,
)
cache_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), nodes, blocks,
              st.sampled_from([LineState.SHARED, LineState.EXCLUSIVE])),
    st.tuples(st.just("invalidate"), nodes, blocks),
    st.tuples(st.just("flush"), nodes),
    st.tuples(st.just("restore"), nodes, lines),
), max_size=60)


def _resident(proto) -> Counter:
    return Counter(line.block for cache in proto.caches
                   for line in cache.lines())


@given(cache_ops)
def test_count_follows_every_line_in_and_out(ops):
    proto = _proto()
    for op in ops:
        cache = proto.caches[op[1]]
        if op[0] == "insert":
            cache.insert(op[2], op[3])
        elif op[0] == "invalidate":
            cache.invalidate(op[2])
        elif op[0] == "flush":
            cache.flush_all()
        else:
            cache.restore_lines(op[2])
        assert proto.residency == _resident(proto)
        assert all(proto.residency.values())  # no key for an absent block


protocol_ops = st.lists(
    st.tuples(st.sampled_from(["read", "write", "check_in"]), nodes, blocks),
    min_size=1, max_size=40,
)


@given(protocol_ops, st.data())
def test_check_state_names_a_corrupted_count(ops, data):
    proto = _proto()
    for op, node, block in ops:
        getattr(proto, op)(node, block)
    assert check_state(proto) is None
    block = data.draw(blocks)
    held = proto.residency.get(block, 0)
    corrupted = data.draw(
        st.integers(0, NODES + 1).filter(lambda n: n != held))
    if corrupted:
        proto.residency[block] = corrupted
    else:
        del proto.residency[block]
    finding = check_state(proto)
    assert finding is not None
    assert finding.invariant == "residency-count"
    assert finding.block == block
    assert finding.message == (
        f"block {block} has a residency count of {corrupted} but {held} "
        f"cache(s) hold it"
    )
