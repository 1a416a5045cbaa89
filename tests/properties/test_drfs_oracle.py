"""Property test: DRFS detection against a brute-force oracle.

The annotator's safety hinges on race detection completeness: a raced block
that escapes DRFS gets boundary placement and a long cache residency, which
is exactly what the paper says must not happen.  Hypothesis generates random
per-epoch access patterns and the detector must agree with a direct
implementation of the paper's definitions.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cachier.drfs import detect_drfs
from repro.cachier.epochs import EpochTable
from repro.trace.records import MissKind, MissRecord, Trace

BS = 32

accesses = st.lists(
    st.tuples(
        st.integers(0, 3),  # node
        st.integers(0, 23),  # element index (6 blocks of 4)
        st.booleans(),  # is_write
    ),
    max_size=30,
)


def to_trace(pattern):
    misses = []
    for pc, (node, elem, is_write) in enumerate(pattern, start=1):
        kind = MissKind.WRITE_MISS if is_write else MissKind.READ_MISS
        misses.append(MissRecord(kind, elem * 8, pc, node, 0))
    return Trace(misses=misses, block_size=BS, num_nodes=4)


def oracle(pattern):
    """Paper definitions, directly."""
    by_addr: dict[int, list[tuple[int, bool]]] = {}
    for node, elem, is_write in pattern:
        by_addr.setdefault(elem * 8, []).append((node, is_write))
    race_blocks = set()
    for addr, touches in by_addr.items():
        nodes = {n for n, _ in touches}
        if len(nodes) >= 2 and any(w for _, w in touches):
            race_blocks.add(addr // BS)
    fs_blocks = set()
    blocks: dict[int, dict[int, set[int]]] = {}
    written_blocks = set()
    for node, elem, is_write in pattern:
        addr = elem * 8
        blocks.setdefault(addr // BS, {}).setdefault(addr, set()).add(node)
        if is_write:
            written_blocks.add(addr // BS)
    for block, addr_map in blocks.items():
        if block not in written_blocks:
            continue  # require_write=True semantics
        for addr, nodes in addr_map.items():
            for other, other_nodes in addr_map.items():
                if other == addr:
                    continue
                if other_nodes - nodes or (other_nodes and nodes - other_nodes):
                    fs_blocks.add(block)
    return race_blocks, fs_blocks


@settings(max_examples=120, deadline=None)
@given(accesses)
def test_race_detection_matches_oracle(pattern):
    trace = to_trace(pattern)
    info = detect_drfs(EpochTable(trace), 0)
    race_blocks, _ = oracle(pattern)
    got = {addr // BS for addr in info.races}
    assert got == race_blocks


@settings(max_examples=120, deadline=None)
@given(accesses)
def test_false_sharing_never_misses_oracle_positives(pattern):
    """Completeness: every oracle-positive block is flagged.  (The detector
    may flag a superset edge case where a node touches both addresses; the
    conservative direction is the safe one.)"""
    trace = to_trace(pattern)
    info = detect_drfs(EpochTable(trace), 0)
    _, fs_blocks = oracle(pattern)
    got = {addr // BS for addr in info.false_shared}
    assert fs_blocks <= got


def union_rule(pattern, require_write):
    """The detector's own false-sharing rule, spelled out per address: a
    raw address is flagged when the union of its block's *other* addresses'
    nodes holds a node it lacks, or it holds a node none of them has.
    Returns block base -> flagged addresses."""
    blocks: dict[int, dict[int, set[int]]] = {}
    written = set()
    for node, elem, is_write in pattern:
        addr = elem * 8
        blocks.setdefault(addr // BS * BS, {}).setdefault(addr, set()).add(node)
        if is_write:
            written.add(addr // BS * BS)
    out = {}
    for base, addr_map in blocks.items():
        if require_write and base not in written:
            continue
        for addr, mine in addr_map.items():
            others = set().union(*(nodes for other, nodes in addr_map.items()
                                   if other != addr))
            if others - mine or (others and mine - others):
                out.setdefault(base, set()).add(addr)
    return out


#: few nodes on two blocks: nodes share addresses as often as not
dense_accesses = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 7), st.booleans()),
    max_size=20,
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(accesses, dense_accesses), st.booleans())
def test_false_sharing_flags_exactly_the_union_rule(pattern, require_write):
    """The detector counts nodes per address instead of building each
    address's union of others; the flagged addresses must not change."""
    info = detect_drfs(EpochTable(to_trace(pattern)), 0,
                       require_write=require_write)
    want = union_rule(pattern, require_write)
    assert info.fs_addrs == want
    assert info.false_shared == set(want)


@settings(max_examples=80, deadline=None)
@given(accesses)
def test_drfs_sets_are_subsets_of_touched_blocks(pattern):
    trace = to_trace(pattern)
    table = EpochTable(trace)
    info = detect_drfs(table, 0)
    touched = set()
    for node in table.nodes_in(0):
        touched |= table.get(0, node).s
    assert info.races <= touched
    assert info.false_shared <= touched
