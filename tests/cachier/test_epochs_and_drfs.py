"""Tests for trace folding (epochs, block-granular) and DRFS detection."""

from __future__ import annotations

from repro.cachier.drfs import detect_all, detect_drfs
from repro.cachier.epochs import EpochTable
from repro.trace.records import MissKind, MissRecord, Trace

B = 32  # block size for these tests


def trace_of(records):
    return Trace(
        misses=[MissRecord(kind, addr, pc, node, epoch)
                for kind, addr, pc, node, epoch in records],
        block_size=B,
    )


class TestEpochTable:
    def test_write_fault_folding(self):
        """Paper Sec. 4: fault addresses move from SR into SW (and into WF)."""
        t = trace_of([
            (MissKind.READ_MISS, 96, 1, 0, 0),
            (MissKind.WRITE_FAULT, 96, 2, 0, 0),
            (MissKind.READ_MISS, 192, 3, 0, 0),
        ])
        acc = EpochTable(t).get(0, 0)
        assert acc.sw == {96}
        assert acc.sr == {192}
        assert acc.wf == {96}
        assert acc.s == {96, 192}

    def test_block_canonicalization(self):
        """Re-misses at different elements of one block collapse to its base."""
        t = trace_of([
            (MissKind.READ_MISS, 100, 1, 0, 0),  # block 96
            (MissKind.READ_MISS, 108, 2, 0, 0),  # same block
            (MissKind.READ_MISS, 132, 3, 0, 0),  # block 128
        ])
        acc = EpochTable(t).get(0, 0)
        assert acc.sr == {96, 128}
        assert acc.read_pc[96] == 1  # first record's pc wins

    def test_read_then_write_miss_same_block_counts_as_write(self):
        """A block both read-missed and write-missed is SW, not SR."""
        t = trace_of([
            (MissKind.READ_MISS, 96, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 0, 0),
        ])
        acc = EpochTable(t).get(0, 0)
        assert acc.sw == {96}
        assert acc.sr == set()
        assert acc.wf == set()  # a write MISS is not a fault

    def test_pcs_preserved(self):
        t = trace_of([
            (MissKind.READ_MISS, 96, 11, 0, 0),
            (MissKind.WRITE_FAULT, 96, 12, 0, 0),
            (MissKind.WRITE_MISS, 192, 13, 0, 0),
        ])
        acc = EpochTable(t).get(0, 0)
        assert acc.read_pc[96] == 11
        assert acc.write_pc[96] == 12
        assert acc.write_pc[192] == 13
        assert acc.pc_for(96) == 11  # read site preferred
        assert acc.pc_for(192) == 13

    def test_missing_epoch_is_empty(self):
        t = trace_of([(MissKind.READ_MISS, 96, 1, 0, 0)])
        table = EpochTable(t)
        assert table.get(5, 0).s == set()
        assert table.get(-1, 0).s == set()

    def test_sw_any_unions_processors(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 96, 1, 0, 0),
            (MissKind.WRITE_MISS, 192, 2, 1, 0),
            (MissKind.READ_MISS, 288, 3, 1, 0),
        ])
        assert EpochTable(t).sw_any(0) == {96, 192}

    def test_nodes_and_epochs_listing(self):
        t = trace_of([
            (MissKind.READ_MISS, 96, 1, 2, 0),
            (MissKind.READ_MISS, 96, 1, 0, 1),
        ])
        table = EpochTable(t)
        assert table.nodes_in(0) == [2]
        assert table.epochs() == [0, 1]
        assert table.num_epochs == 2

    def test_raw_access_tracking(self):
        t = trace_of([
            (MissKind.READ_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 108, 2, 1, 0),
        ])
        raw = EpochTable(t).raw_in(0)
        assert set(raw) == {96}
        assert raw[96][100].readers == {0}
        assert raw[96][108].writers == {1}


class TestDataRaces:
    def test_write_write_race(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 1, 0),
        ])
        info = detect_drfs(EpochTable(t), 0)
        assert info.races == {96}  # block base
        assert info.race_nodes[96] == {0, 1}
        assert info.race_addrs[96] == {100}

    def test_read_write_race(self):
        t = trace_of([
            (MissKind.READ_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 1, 0),
        ])
        assert detect_drfs(EpochTable(t), 0).races == {96}

    def test_read_read_not_a_race(self):
        t = trace_of([
            (MissKind.READ_MISS, 100, 1, 0, 0),
            (MissKind.READ_MISS, 100, 2, 1, 0),
        ])
        assert detect_drfs(EpochTable(t), 0).races == set()

    def test_same_node_write_not_a_race(self):
        t = trace_of([
            (MissKind.READ_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_FAULT, 100, 2, 0, 0),
        ])
        assert detect_drfs(EpochTable(t), 0).races == set()

    def test_race_across_epochs_not_flagged(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 1, 1),
        ])
        table = EpochTable(t)
        assert detect_drfs(table, 0).races == set()
        assert detect_drfs(table, 1).races == set()


class TestFalseSharing:
    def test_two_nodes_different_addrs_same_block(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.READ_MISS, 108, 2, 1, 0),  # same 32B block
        ])
        info = detect_drfs(EpochTable(t), 0)
        assert info.false_shared == {96}
        assert info.races == set()
        assert info.fs_addrs[96] == {100, 108}

    def test_different_blocks_not_false_shared(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.READ_MISS, 164, 2, 1, 0),  # different block
        ])
        assert detect_drfs(EpochTable(t), 0).false_shared == set()

    def test_read_only_block_not_flagged_by_default(self):
        t = trace_of([
            (MissKind.READ_MISS, 100, 1, 0, 0),
            (MissKind.READ_MISS, 108, 2, 1, 0),
        ])
        table = EpochTable(t)
        assert detect_drfs(table, 0).false_shared == set()
        literal = detect_drfs(table, 0, require_write=False)
        assert literal.false_shared == {96}

    def test_single_node_two_addrs_not_false_sharing(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 108, 2, 0, 0),
        ])
        assert detect_drfs(EpochTable(t), 0).false_shared == set()

    def test_nodes_sharing_every_address_are_not_false_sharing(self):
        """Both nodes touch both addresses: each address races, but no
        node is missing from, or alone on, either address."""
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.READ_MISS, 108, 2, 0, 0),
            (MissKind.READ_MISS, 100, 3, 1, 0),
            (MissKind.WRITE_MISS, 108, 4, 1, 0),
        ])
        info = detect_drfs(EpochTable(t), 0)
        assert info.race_addrs[96] == {100, 108}
        assert info.false_shared == set()

    def test_race_and_fs_can_coexist_on_a_block(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 1, 0),
            (MissKind.READ_MISS, 116, 3, 2, 0),
        ])
        info = detect_drfs(EpochTable(t), 0)
        assert 96 in info.races
        assert 96 in info.false_shared

    def test_set_functions(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 1, 0),
            (MissKind.READ_MISS, 192, 3, 0, 0),
        ])
        info = detect_drfs(EpochTable(t), 0)
        assert info.drfs({96, 192}) == {96}
        assert info.not_drfs({96, 192}) == {192}
        assert info.fs({96, 192}) == set()
        assert info.not_fs({96, 192}) == {96, 192}

    def test_detect_all_covers_every_epoch(self):
        t = trace_of([
            (MissKind.WRITE_MISS, 100, 1, 0, 0),
            (MissKind.WRITE_MISS, 100, 2, 1, 2),
        ])
        per_epoch = detect_all(EpochTable(t))
        assert set(per_epoch) == {0, 1, 2}
