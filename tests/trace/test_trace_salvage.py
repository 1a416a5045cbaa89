"""Graceful degradation of the trace reader: ``salvage_trace``.

A truncated or corrupted trace file is salvaged down to its complete
epochs — never a partial epoch, which would silently yield *wrong*
annotations — with warnings describing what was dropped.  Undamaged files
round-trip identically to ``read_trace``; hopeless files are refused.
"""

from __future__ import annotations

import re

import pytest

from repro.errors import TraceError
from repro.trace.file_io import (
    read_trace,
    salvage_trace,
    trace_to_string,
    write_trace,
)
from repro.trace.records import (
    BarrierRecord,
    LabelInfo,
    MissKind,
    MissRecord,
    Trace,
)

EPOCHS = 3
NODES = 2
MISSES_PER_EPOCH = 4


def _trace() -> Trace:
    trace = Trace(block_size=32, num_nodes=NODES)
    trace.labels.append(
        LabelInfo(
            name="A", base=0x1000, nbytes=256, elem_size=8, order="C",
            shape=(32,),
        )
    )
    for epoch in range(EPOCHS):
        for i in range(MISSES_PER_EPOCH):
            trace.misses.append(
                MissRecord(
                    kind=MissKind.READ_MISS, addr=0x1000 + 8 * i,
                    pc=10 + i, node=i % NODES, epoch=epoch,
                )
            )
        for node in range(NODES):
            trace.barriers.append(
                BarrierRecord(
                    node=node, barrier_pc=99, vt=1000 * (epoch + 1),
                    epoch=epoch,
                )
            )
    return trace


def _epochs(trace: Trace) -> set[int]:
    return {rec.epoch for rec in trace.barriers}


def test_undamaged_file_round_trips_identically(tmp_path):
    path = tmp_path / "clean.trace"
    write_trace(_trace(), path)
    salvaged, warnings = salvage_trace(path)
    assert warnings == []
    assert salvaged == read_trace(path)
    assert _epochs(salvaged) == set(range(EPOCHS))


def test_records_interleaved_by_epoch():
    """The writer streams each epoch's misses then its barriers, so a
    truncated file still ends with whole epochs."""
    lines = trace_to_string(_trace()).splitlines()
    epochs_seen = []
    for line in lines:
        if line.startswith(("miss", "barrier")):
            epochs_seen.append(int(line.split()[-1]))
    assert epochs_seen == sorted(epochs_seen)
    # barriers of epoch 0 appear before misses of epoch 1
    first_e1_miss = next(
        i for i, ln in enumerate(lines)
        if ln.startswith("miss") and ln.endswith(" 1")
    )
    last_e0_barrier = max(
        i for i, ln in enumerate(lines)
        if ln.startswith("barrier") and ln.endswith(" 0")
    )
    assert last_e0_barrier < first_e1_miss


def test_truncated_mid_miss_keeps_only_complete_epochs(tmp_path):
    text = trace_to_string(_trace())
    lines = text.splitlines()
    # cut in the middle of epoch 2's miss block: keep its first miss plus
    # half of the second (unterminated final line)
    first_e2 = next(
        i for i, ln in enumerate(lines)
        if ln.startswith("miss") and ln.endswith(" 2")
    )
    damaged = "\n".join(lines[: first_e2 + 1]) + "\n" + lines[first_e2 + 1][:6]
    path = tmp_path / "truncated.trace"
    path.write_text(damaged, encoding="ascii")
    salvaged, warnings = salvage_trace(path)
    assert warnings
    assert any("damaged" in w for w in warnings)
    # only whole epochs survive, as a prefix from epoch 0
    kept = _epochs(salvaged)
    assert kept == set(range(len(kept)))
    assert 2 not in kept
    for epoch in kept:
        assert len(salvaged.misses_in(epoch)) == MISSES_PER_EPOCH
        assert sum(1 for b in salvaged.barriers if b.epoch == epoch) == NODES


def test_truncated_mid_barrier_block_drops_that_epoch(tmp_path):
    text = trace_to_string(_trace())
    lines = text.splitlines()
    first_e2_barrier = next(
        i for i, ln in enumerate(lines)
        if ln.startswith("barrier") and ln.endswith(" 2")
    )
    damaged = "\n".join(lines[: first_e2_barrier + 1])  # no trailing newline
    path = tmp_path / "midbarrier.trace"
    path.write_text(damaged, encoding="ascii")
    salvaged, warnings = salvage_trace(path)
    assert warnings
    assert 2 not in _epochs(salvaged)
    assert _epochs(salvaged) == set(range(max(_epochs(salvaged)) + 1))


def test_mid_file_corruption_drops_from_damage_point(tmp_path):
    text = trace_to_string(_trace())
    lines = text.splitlines()
    first_e1 = next(
        i for i, ln in enumerate(lines)
        if ln.startswith("miss") and ln.endswith(" 1")
    )
    lines[first_e1] = "miss read_miss GARBAGE 10 0 1"
    path = tmp_path / "corrupt.trace"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    salvaged, warnings = salvage_trace(path)
    assert any("skipped 1 malformed line" in w for w in warnings)
    # epoch 1 itself is damaged: everything from it on goes, epoch 0 stays
    assert _epochs(salvaged) == {0}
    assert len(salvaged.misses_in(0)) == MISSES_PER_EPOCH


def test_labels_and_geometry_survive_salvage(tmp_path):
    text = trace_to_string(_trace())
    path = tmp_path / "t.trace"
    path.write_text(text[: len(text) - 10], encoding="ascii")
    salvaged, _ = salvage_trace(path)
    assert salvaged.block_size == 32
    assert salvaged.num_nodes == NODES
    assert [lab.name for lab in salvaged.labels] == ["A"]


def test_bad_header_is_not_salvageable(tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("not a trace\nmiss read_miss 1 2 3 0\n", encoding="ascii")
    with pytest.raises(TraceError, match="header"):
        salvage_trace(path)


@pytest.mark.parametrize("block_size", [0, 24])
def test_bad_block_size_is_not_salvageable(tmp_path, block_size):
    """Every epoch is whole, but no record can be folded against a block
    size that is not a positive power of two."""
    trace = _trace()
    trace.block_size = block_size
    path = tmp_path / "bad.trace"
    write_trace(trace, path)
    with pytest.raises(
        TraceError,
        match=f"^{re.escape(str(path))}: line 2: block_size must be a "
              f"positive power of two, got {block_size} — nothing salvageable$",
    ):
        salvage_trace(path)


def test_missing_file_raises_trace_error(tmp_path):
    with pytest.raises(TraceError, match="cannot read"):
        salvage_trace(tmp_path / "nope.trace")


def test_no_complete_epoch_is_not_salvageable(tmp_path):
    path = tmp_path / "hopeless.trace"
    path.write_text(
        "# cachier-trace v1\nmeta block_size 32\nmeta num_nodes 2\n"
        "miss read_miss 4096 10 0 0\nmiss read_",
        encoding="ascii",
    )
    with pytest.raises(TraceError, match="no complete epoch"):
        salvage_trace(path)
