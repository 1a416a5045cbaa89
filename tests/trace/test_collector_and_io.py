"""Tests for trace collection against a live machine, and file round-trips."""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.machine.config import MachineConfig
from repro.machine.events import EV_BARRIER, EV_REF
from repro.machine.machine import Machine
from repro.mem.labels import ArrayLabel, LabelTable
from repro.mem.layout import AddressSpace
from repro.trace.collector import TraceCollector
from repro.trace.file_io import (
    read_trace,
    trace_from_string,
    trace_to_string,
    write_trace,
)
from repro.trace.records import MissKind

BASE = 0x1000_0000


def run_traced(kernel, nodes=2):
    cfg = MachineConfig(num_nodes=nodes, cache_size=4096, block_size=32, assoc=2)
    collector = TraceCollector(block_size=32, num_nodes=nodes)
    machine = Machine(cfg, flush_at_barrier=True)
    collector.subscribe(machine.bus)
    machine.run(kernel)
    return collector.finish()


class TestCollector:
    def test_misses_grouped_per_epoch(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 10)
            yield (EV_BARRIER, 0, 99)
            if nid == 0:
                yield (EV_REF, 0, BASE, True, 20)

        trace = run_traced(kernel)
        assert trace.num_epochs() == 2
        epoch0 = trace.misses_in(0)
        assert len(epoch0) == 1 and epoch0[0].kind is MissKind.READ_MISS
        # After the flush, the write in epoch 1 is a write MISS (not a fault).
        epoch1 = trace.misses_in(1)
        assert len(epoch1) == 1 and epoch1[0].kind is MissKind.WRITE_MISS
        assert epoch1[0].pc == 20

    def test_write_fault_recorded_with_read_miss(self):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 10)
                yield (EV_REF, 0, BASE, True, 11)

        trace = run_traced(kernel)
        kinds = {rec.kind for rec in trace.misses_in(0)}
        assert kinds == {MissKind.READ_MISS, MissKind.WRITE_FAULT}

    def test_duplicate_misses_deduped_within_epoch(self):
        """The collector is a hash table: one record per (node, addr, kind)."""

        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 10)
                yield (EV_REF, 0, BASE + 64, False, 11)  # different block
                yield (EV_REF, 0, BASE, False, 12)  # hit: not reported anyway

        trace = run_traced(kernel)
        assert len(trace.misses_in(0)) == 2

    def test_barrier_records_per_node(self):
        def kernel(nid):
            yield (EV_BARRIER, 0, 77)

        trace = run_traced(kernel)
        assert len(trace.barriers) == 2
        assert {rec.node for rec in trace.barriers} == {0, 1}
        assert all(rec.barrier_pc == 77 for rec in trace.barriers)

    def test_epochs_ordered_by_vt(self):
        def kernel(nid):
            yield (EV_REF, 5, -1, False, -1)
            yield (EV_BARRIER, 0, 1)
            yield (EV_REF, 5, -1, False, -1)
            yield (EV_BARRIER, 0, 2)

        trace = run_traced(kernel)
        vts = [rec.vt for rec in trace.barriers]
        assert vts == sorted(vts)


class TestFileIO:
    def test_roundtrip_through_file(self, tmp_path):
        def kernel(nid):
            if nid == 0:
                yield (EV_REF, 0, BASE, False, 10)
            yield (EV_BARRIER, 0, 99)

        trace = run_traced(kernel)
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        back = read_trace(path)
        assert back.misses == trace.misses
        assert back.barriers == trace.barriers
        assert back.block_size == trace.block_size
        assert back.num_nodes == trace.num_nodes

    def test_roundtrip_with_labels(self):
        space = AddressSpace(block_size=32)
        table = LabelTable()
        region = space.allocate("A", 8 * 16)
        table.add(ArrayLabel(region=region, shape=(4, 4), elem_size=8, order="F"))

        collector = TraceCollector(labels=table, block_size=32, num_nodes=1)
        trace = collector.finish()
        back = trace_from_string(trace_to_string(trace))
        assert len(back.labels) == 1
        lab = back.label_table().get("A")
        assert lab.shape == (4, 4) and lab.order == "F"
        assert lab.region.base == region.base

    def test_bad_header_rejected(self):
        with pytest.raises(TraceError):
            trace_from_string("nonsense\n")

    def test_malformed_record_rejected(self):
        with pytest.raises(TraceError):
            trace_from_string("# cachier-trace v1\nmiss read_miss oops\n")

    @pytest.mark.parametrize("block_size", [0, -32, 24])
    def test_block_size_must_be_a_positive_power_of_two(self, tmp_path, block_size):
        path = tmp_path / "bad.trace"
        path.write_text(
            f"# cachier-trace v1\nmeta block_size {block_size}\nmeta num_nodes 2\n",
            encoding="ascii",
        )
        with pytest.raises(
            TraceError,
            match=f"^line 2: block_size must be a positive power of two, "
                  f"got {block_size}$",
        ):
            read_trace(path)

    def test_unknown_tag_rejected(self):
        with pytest.raises(TraceError):
            trace_from_string("# cachier-trace v1\nbogus 1 2 3\n")

    def test_comments_and_blanks_ignored(self):
        t = trace_from_string("# cachier-trace v1\n\n# comment\nmeta block_size 64\n")
        assert t.block_size == 64
