"""Trace file reader/writer.

A simple line-oriented text format mirroring Figure 3 of the paper, with a
header carrying machine geometry and the labelled-region table:

.. code-block:: text

    # cachier-trace v1
    meta block_size 32
    meta num_nodes 8
    label A 268435456 512 8 C 8 8
    miss read_miss 268435464 17 3 0
    barrier 0 42 1234 0

``miss`` fields: kind, addr, pc, node, epoch.
``barrier`` fields: node, barrier_pc, vt, epoch.
``label`` fields: name, base, nbytes, elem_size, order, shape...
``meta block_size`` must be a positive power of two.

One line parser serves :func:`read_trace`, :func:`trace_from_string` and
:func:`salvage_trace`; they differ only in what a malformed line does.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.errors import TraceError
from repro.trace.records import BarrierRecord, LabelInfo, MissKind, MissRecord, Trace

_MAGIC = "# cachier-trace v1"
#: miss-record kind field -> MissKind
_MISS_KINDS = {kind.value: kind for kind in MissKind}


class _HeaderError(TraceError):
    """A header value no record can be read against: even
    :func:`salvage_trace` refuses the file."""


def write_trace(trace: Trace, path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        _write(trace, fh)


def trace_to_string(trace: Trace) -> str:
    buf = io.StringIO()
    _write(trace, buf)
    return buf.getvalue()


def _write(trace: Trace, fh) -> None:
    fh.write(_MAGIC + "\n")
    fh.write(f"meta block_size {trace.block_size}\n")
    fh.write(f"meta num_nodes {trace.num_nodes}\n")
    for lab in trace.labels:
        shape = " ".join(str(n) for n in lab.shape)
        fh.write(
            f"label {lab.name} {lab.base} {lab.nbytes} {lab.elem_size} "
            f"{lab.order} {shape}\n"
        )
    # Stream records in epoch order — each epoch's misses, then its barrier
    # records — so a file truncated by a killed run still ends with whole
    # epochs that salvage_trace can recover.  Misses and barriers are
    # collected in simulation order (epochs are monotone), so this preserves
    # each list's order and read_trace round-trips identically.
    mi = bi = 0
    misses, barriers = trace.misses, trace.barriers
    while bi < len(barriers):
        epoch = barriers[bi].epoch
        while mi < len(misses) and misses[mi].epoch <= epoch:
            rec = misses[mi]
            fh.write(
                f"miss {rec.kind.value} {rec.addr} {rec.pc} {rec.node} {rec.epoch}\n"
            )
            mi += 1
        while bi < len(barriers) and barriers[bi].epoch == epoch:
            rec = barriers[bi]
            fh.write(f"barrier {rec.node} {rec.barrier_pc} {rec.vt} {rec.epoch}\n")
            bi += 1
    for rec in misses[mi:]:
        fh.write(f"miss {rec.kind.value} {rec.addr} {rec.pc} {rec.node} {rec.epoch}\n")


def read_trace(path: str | Path) -> Trace:
    with open(path, "r", encoding="ascii") as fh:
        return _read(fh)


def trace_from_string(text: str) -> Trace:
    return _read(iter(text.split("\n")))


def _read(lines: Iterator[str]) -> Trace:
    first = next(lines, "").rstrip("\n")
    if first != _MAGIC:
        raise TraceError(f"bad trace header {first!r}")
    trace = Trace()
    _parse(trace, lines)
    return trace


def salvage_trace(path: str | Path) -> tuple[Trace, list[str]]:
    """Best-effort read of a possibly truncated or corrupted trace file.

    Returns ``(trace, warnings)``.  Malformed lines are skipped (collected
    as warnings) instead of raising, and every epoch from the first point of
    damage onwards — a skipped line, or the unterminated final line of a run
    killed mid-write — is dropped: a damaged epoch's miss list cannot be
    known complete, and annotating from a partial epoch silently produces
    *wrong* annotations rather than merely fewer.  An undamaged file
    round-trips identically to :func:`read_trace`.

    Raises :class:`~repro.errors.TraceError` when nothing is salvageable
    (bad header, a header value no record can be read against, or no
    complete epoch survives).
    """
    try:
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            text = fh.read()
    except OSError as exc:
        raise TraceError(f"{path}: cannot read trace: {exc}") from exc
    lines = text.split("\n")
    damaged = bool(text) and not text.endswith("\n")
    if damaged:
        # the unterminated final line is by definition incomplete
        lines = lines[:-1] + [""]
    if not lines or lines[0].rstrip() != _MAGIC:
        raise TraceError(f"{path}: bad trace header — nothing salvageable")
    warnings: list[str] = []
    trace = Trace()
    skipped = 0
    # Epoch at the first point of damage: everything from it on is suspect.
    damage_epoch: int | None = None

    def skip(error: TraceError) -> None:
        nonlocal skipped, damage_epoch
        skipped += 1
        if damage_epoch is None:
            damage_epoch = max(
                (rec.epoch for rec in trace.barriers), default=-1
            ) + 1

    try:
        _parse(trace, lines[1:], skip)
    except _HeaderError as exc:
        raise TraceError(f"{path}: {exc} — nothing salvageable") from exc
    if skipped:
        damaged = True
        warnings.append(f"skipped {skipped} malformed line(s)")
    if not trace.barriers:
        raise TraceError(
            f"{path}: no complete epoch survives — nothing salvageable"
        )
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


def _parse(
    trace: Trace,
    lines: Iterable[str],
    on_error: Callable[[TraceError], None] | None = None,
) -> None:
    """Parse the record lines after the magic line (file line 2 on) into
    ``trace``: the one parser behind every reader.

    A malformed line raises a :class:`TraceError` naming it, or, when
    ``on_error`` is given, is handed to it and skipped.  A bad header value
    raises either way.  Miss lines, nearly all of a file, take a fast path:
    a dict lookup for the kind and a positional record, built by
    ``tuple.__new__`` without the Python-level ``MissRecord.__new__``.
    """
    add_miss = trace.misses.append
    kinds = _MISS_KINDS
    new_record = tuple.__new__
    for lineno, raw in enumerate(lines, start=2):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        try:
            if parts[0] == "miss":
                add_miss(new_record(MissRecord, (
                    kinds[parts[1]], int(parts[2]), int(parts[3]),
                    int(parts[4]), int(parts[5]),
                )))
            else:
                _parse_record(trace, parts, lineno)
            continue
        except (KeyError, ValueError, IndexError):
            error = TraceError(
                f"line {lineno}: malformed record {raw.strip()!r}"
            )
        except _HeaderError:
            raise
        except TraceError as exc:
            error = exc
        if on_error is None:
            raise error
        on_error(error)


def _parse_record(trace: Trace, parts: list[str], lineno: int) -> None:
    """Parse one meta, label or barrier line into ``trace``.  Raises
    TraceError for a line it understands but rejects, and ValueError or
    IndexError for a malformed one."""
    tag = parts[0]
    if tag == "meta":
        if parts[1] == "block_size":
            block_size = int(parts[2])
            if block_size <= 0 or block_size & (block_size - 1):
                raise _HeaderError(
                    f"line {lineno}: block_size must be a positive power "
                    f"of two, got {block_size}"
                )
            trace.block_size = block_size
        elif parts[1] == "num_nodes":
            trace.num_nodes = int(parts[2])
        else:
            raise TraceError(f"line {lineno}: unknown meta {parts[1]!r}")
    elif tag == "label":
        name, base, nbytes, elem_size, order = parts[1:6]
        shape = tuple(int(x) for x in parts[6:])
        if not shape:
            raise TraceError(f"line {lineno}: label without shape")
        trace.labels.append(
            LabelInfo(
                name=name,
                base=int(base),
                nbytes=int(nbytes),
                elem_size=int(elem_size),
                order=order,
                shape=shape,
            )
        )
    elif tag == "barrier":
        node, pc, vt, epoch = parts[1:5]
        trace.barriers.append(
            BarrierRecord(int(node), int(pc), int(vt), int(epoch))
        )
    else:
        raise TraceError(f"line {lineno}: unknown record {tag!r}")
