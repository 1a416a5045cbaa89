"""Property test: the trace readers against the line-at-a-time original.

``read_trace``, ``trace_from_string`` and ``salvage_trace`` share one
parser with a fast path for miss lines.  The reference below is the
original reader: every line through one general ``parse_line``, records
built by keyword.  On files that mix every record kind with comments,
blank lines, odd whitespace and malformed lines, each reader must produce
the same trace (and, for salvage, the same warnings) as its reference, or
raise a :class:`TraceError` with the same message, naming the same line.
"""

from __future__ import annotations

import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.trace.file_io import read_trace, salvage_trace, trace_from_string
from repro.trace.records import BarrierRecord, LabelInfo, MissKind, MissRecord, Trace

MAGIC = "# cachier-trace v1"


def reference_read(fh) -> Trace:
    first = fh.readline().rstrip("\n")
    if first != MAGIC:
        raise TraceError(f"bad trace header {first!r}")
    trace = Trace()
    for lineno, raw in enumerate(fh, start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parse_line(trace, line, lineno)
    return trace


def parse_line(trace: Trace, line: str, lineno: int) -> None:
    parts = line.split()
    tag = parts[0]
    try:
        if tag == "meta":
            if parts[1] == "block_size":
                trace.block_size = int(parts[2])
            elif parts[1] == "num_nodes":
                trace.num_nodes = int(parts[2])
            else:
                raise TraceError(f"line {lineno}: unknown meta {parts[1]!r}")
        elif tag == "label":
            name, base, nbytes, elem_size, order = parts[1:6]
            shape = tuple(int(x) for x in parts[6:])
            if not shape:
                raise TraceError(f"line {lineno}: label without shape")
            trace.labels.append(LabelInfo(
                name=name, base=int(base), nbytes=int(nbytes),
                elem_size=int(elem_size), order=order, shape=shape,
            ))
        elif tag == "miss":
            kind, addr, pc, node, epoch = parts[1:6]
            trace.misses.append(MissRecord(
                kind=MissKind(kind), addr=int(addr), pc=int(pc),
                node=int(node), epoch=int(epoch),
            ))
        elif tag == "barrier":
            node, pc, vt, epoch = parts[1:5]
            trace.barriers.append(BarrierRecord(
                node=int(node), barrier_pc=int(pc), vt=int(vt), epoch=int(epoch),
            ))
        else:
            raise TraceError(f"line {lineno}: unknown record {tag!r}")
    except (ValueError, IndexError) as exc:
        raise TraceError(f"line {lineno}: malformed record {line!r}") from exc


def reference_read_file(path) -> Trace:
    with open(path, "r", encoding="ascii") as fh:
        return reference_read(fh)


def reference_salvage(path) -> tuple[Trace, list[str]]:
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    lines = text.split("\n")
    damaged = bool(text) and not text.endswith("\n")
    if damaged:
        lines = lines[:-1] + [""]
    if not lines or lines[0].rstrip() != MAGIC:
        raise TraceError(f"{path}: bad trace header — nothing salvageable")
    warnings: list[str] = []
    trace = Trace()
    skipped = 0
    damage_epoch = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            parse_line(trace, line, lineno)
        except TraceError:
            skipped += 1
            damaged = True
            if damage_epoch is None:
                damage_epoch = max(
                    (rec.epoch for rec in trace.barriers), default=-1
                ) + 1
    if skipped:
        warnings.append(f"skipped {skipped} malformed line(s)")
    if not trace.barriers:
        raise TraceError(f"{path}: no complete epoch survives — nothing salvageable")
    if damaged:
        drop_from = max(rec.epoch for rec in trace.barriers)
        if damage_epoch is not None:
            drop_from = min(drop_from, damage_epoch)
        kept_b = [rec for rec in trace.barriers if rec.epoch < drop_from]
        kept_m = [rec for rec in trace.misses if rec.epoch < drop_from]
        if not kept_b:
            raise TraceError(
                f"{path}: no complete epoch survives — nothing salvageable"
            )
        dropped = (len(trace.barriers) - len(kept_b),
                   len(trace.misses) - len(kept_m))
        trace.barriers = kept_b
        trace.misses = kept_m
        warnings.append(
            f"file is damaged: dropped the trailing epoch(s) >= {drop_from} "
            f"({dropped[1]} miss / {dropped[0]} barrier records); "
            f"annotating from the {drop_from} complete epoch(s) only"
        )
    return trace, warnings


# ------------------------------------------------------------------ inputs
num = st.integers(0, 300).map(str)
sep = st.sampled_from([" ", " ", " ", "  ", "\t", " \t "])


@st.composite
def records(draw) -> list[list[str]]:
    """A well-formed file body as token lists: header, then per epoch its
    misses and its barriers, then the unterminated final epoch's misses."""
    out = [["meta", "block_size", draw(st.sampled_from(["16", "32", "64"]))],
           ["meta", "num_nodes", draw(num)]]
    for name in draw(st.lists(st.sampled_from(["A", "B2", "x_y"]), max_size=2)):
        shape = draw(st.lists(num, min_size=1, max_size=3))
        out.append(["label", name, draw(num), draw(num), "8",
                    draw(st.sampled_from(["C", "F"]))] + shape)
    epochs = draw(st.integers(0, 3))
    for epoch in range(epochs + 1):
        for _ in range(draw(st.integers(0, 4))):
            out.append(["miss", draw(st.sampled_from([k.value for k in MissKind])),
                        draw(num), draw(num), draw(num), str(epoch)])
        if epoch < epochs:
            for node in range(draw(st.integers(1, 2))):
                out.append(["barrier", str(node), draw(num), draw(num), str(epoch)])
    return out


@st.composite
def garbled(draw, tokens: list[str]) -> list[str]:
    """``tokens`` damaged the way a torn or corrupted line is."""
    how = draw(st.sampled_from(["cut", "field", "kind", "tag", "extra"]))
    if how == "cut":
        return tokens[:draw(st.integers(0, len(tokens) - 1))]
    if how == "field" and len(tokens) > 2:
        at = draw(st.integers(1, len(tokens) - 1))
        # a unicode digit parses as a number; as a block size it would
        # meet the header check the reference reader does not have
        digit = [] if tokens[1] == "block_size" else ["\u0663"]
        bad = draw(st.sampled_from(["x", "1.5", "-", "0x10"] + digit))
        return tokens[:at] + [bad] + tokens[at + 1:]
    if how == "kind" and tokens[0] in ("miss", "meta"):
        return tokens[:1] + [draw(st.sampled_from(["read", "MISS", "bogus"]))] + tokens[2:]
    if how == "tag":
        return [draw(st.sampled_from(["epoch", "MISS", "barrier:"]))] + tokens[1:]
    return tokens + [draw(num)]  # an extra trailing field


@st.composite
def trace_text(draw) -> str:
    lines = []
    for tokens in draw(records()):
        while draw(st.integers(0, 7)) == 7:
            lines.append(draw(st.sampled_from(["", "  ", "#", "# a note", " #miss"])))
        if draw(st.integers(0, 14)) == 14:
            tokens = draw(garbled(tokens))
        text = draw(sep).join(tokens)
        if draw(st.integers(0, 3)) == 3:
            text = draw(sep) + text + draw(sep)
        lines.append(text)
    head = draw(st.sampled_from([MAGIC] * 6 + [MAGIC + " ", "# cachier"]))
    text = "\n".join([head] + lines)
    if draw(st.integers(0, 3)) < 3:
        text += "\n"  # a cleanly terminated file, usually
    return text


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except TraceError as exc:
        return "TraceError", str(exc)


@settings(max_examples=400, deadline=None)
@given(trace_text())
def test_string_reader_matches_reference(text):
    assert outcome(trace_from_string, text) == outcome(
        lambda t: reference_read(io.StringIO(t)), text
    )


@settings(max_examples=200, deadline=None)
@given(trace_text())
def test_file_readers_match_reference(text):
    fd, path = tempfile.mkstemp(suffix=".trace")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        if text.isascii():
            assert outcome(read_trace, path) == outcome(
                reference_read_file, path
            )
        assert outcome(salvage_trace, path) == outcome(reference_salvage, path)
    finally:
        os.unlink(path)
