"""Property test: the one-pass epoch fold against the original fold.

:class:`repro.cachier.epochs.EpochTable` folds the misses in one pass with
the current epoch's maps hoisted out of the loop, and keeps each block's
records for the raw per-element view.  The reference below is the original
fold: a three-deep ``setdefault`` chain per record into per-node access
sets and per-address reader/writer sets.  On traces with unsorted epochs
and repeated addresses both must agree on every set and pc map, and on the
order in which epochs, nodes, blocks and addresses first appear (DRFS, the
report and placement iterate in that order).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cachier.epochs import EpochAccess, EpochTable, RawAccess
from repro.trace.records import MissKind, MissRecord, Trace


def reference_fold(trace: Trace, block_size: int | None = None):
    """The original fold: ``(epoch -> node -> EpochAccess,
    epoch -> block -> addr -> RawAccess)``."""
    bs = block_size or trace.block_size
    table: dict = {}
    raw: dict = {}
    for rec in trace.misses:
        base = (rec.addr // bs) * bs
        acc = table.setdefault(rec.epoch, {}).setdefault(rec.node, EpochAccess())
        touch = (
            raw.setdefault(rec.epoch, {})
            .setdefault(base, {})
            .setdefault(rec.addr, RawAccess())
        )
        if rec.kind is MissKind.READ_MISS:
            acc.sr.add(base)
            acc.read_pc.setdefault(base, rec.pc)
            touch.readers.add(rec.node)
        elif rec.kind is MissKind.WRITE_MISS:
            acc.sw.add(base)
            acc.write_pc.setdefault(base, rec.pc)
            touch.writers.add(rec.node)
        else:
            acc.wf.add(base)
            acc.write_pc.setdefault(base, rec.pc)
            touch.writers.add(rec.node)
    for per_node in table.values():
        for acc in per_node.values():
            acc.sw |= acc.wf
            acc.sr -= acc.sw
    return table, raw


def access_view(acc: EpochAccess):
    return (acc.sw, acc.sr, acc.wf, list(acc.read_pc.items()),
            list(acc.write_pc.items()))


def raw_view(by_block: dict):
    return [
        (base, [(addr, touch.readers, touch.writers)
                for addr, touch in by_addr.items()])
        for base, by_addr in by_block.items()
    ]


misses = st.lists(
    st.builds(
        MissRecord,
        kind=st.sampled_from(list(MissKind)),
        # a few blocks' worth of addresses, so addresses and blocks repeat
        addr=st.integers(0, 191),
        pc=st.integers(1, 9),
        node=st.integers(0, 3),
        epoch=st.integers(0, 4),  # drawn in any order
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(misses, st.sampled_from([8, 16, 32, 64]), st.sampled_from([None, 16]))
def test_fold_matches_reference(records, block_size, override):
    """``override`` is EpochTable's own block_size argument."""
    trace = Trace(misses=records, block_size=block_size, num_nodes=4)
    table = EpochTable(trace, block_size=override)
    want_table, want_raw = reference_fold(trace, override)

    assert table.epochs() == sorted(want_table)
    assert table.num_epochs == trace.num_epochs()
    for epoch, per_node in want_table.items():
        assert table.nodes_in(epoch) == sorted(per_node)
        assert list(table._table[epoch]) == list(per_node)
        for node, acc in per_node.items():
            assert access_view(table.get(epoch, node)) == access_view(acc)
    assert list(table._blocks) == list(want_raw)
    for epoch in range(-1, table.num_epochs + 1):
        assert raw_view(table.raw_in(epoch)) == raw_view(want_raw.get(epoch, {}))
