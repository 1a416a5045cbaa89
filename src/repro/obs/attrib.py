"""Source-level attribution: join dynamic cache events with program structure.

The paper's core move (Section 4.3) is joining *dynamic* cache behaviour
with *static* program structure: trace addresses are resolved through the
labelled-region table, and per-node footprints are re-expressed symbolically
through the parameter environment (:mod:`repro.cachier.mapping`).  This
module applies the same join to the live event stream of the obs bus, so a
run can answer "which array, which source line, which epoch is burning the
traffic?":

* :class:`AttributionProfiler` subscribes ``ACCESS`` / ``DIRECTIVE`` /
  ``TRAP`` / ``RECALL`` / ``MESSAGE`` / ``LOCK_ACQUIRE`` / ``BARRIER``
  events and attributes misses, stall cycles, invalidation traffic and trap
  counts to (data structure, source line, epoch) cells;
* the **annotation-effectiveness audit** tracks, per epoch, check-outs whose
  blocks were never re-referenced, check-ins immediately followed by a
  re-miss on the same node, and directive coverage of the epoch's misses;
* :func:`profile_trace` performs the same join *offline* on a stored
  :class:`~repro.trace.records.Trace` via its labelled-region table;
* :func:`render_profile` / :func:`folded_stacks` / :func:`render_heatmap`
  turn a report into the ``repro-obs profile`` text output, flamegraph
  folded-stack lines, and a per-epoch miss heatmap.

Attribution is read-only: handlers never mutate simulator state, so a
profiled run stays cycle-for-cycle identical to an unobserved one.

Traps and recalls are published by the protocol *inside* the access or
directive that caused them and carry no pc; the profiler holds them per
requesting node and folds them into that node's next access/directive
event, which recovers full source-line attribution for the slow paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.protocol import AccessKind
from repro.errors import ObsError
from repro.lang.ast import Barrier, Program, walk_stmts
from repro.lang.unparse import target_str, unparse_with_map
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIR_PREFETCH_S,
    DIR_PREFETCH_X,
)
from repro.mem.labels import ArrayLabel, LabelTable
from repro.obs.events import (
    AccessEvent,
    BarrierEvent,
    DirectiveEvent,
    EventBus,
    EventKind,
    LockEvent,
    MessageEvent,
    RecallEvent,
    TrapEvent,
)

ATTRIB_VERSION = 1

#: bucket for addresses outside every labelled region (should stay empty for
#: the built-in workloads — every shared array is labelled by SharedStore)
UNLABELLED = "<unlabelled>"

_CHECK_OUTS = (DIR_CHECK_OUT_S, DIR_CHECK_OUT_X, DIR_PREFETCH_S, DIR_PREFETCH_X)


class SourceMap:
    """pc -> source line join (what a compiler's line table would be).

    Built from a :class:`~repro.lang.ast.Program` via
    :func:`~repro.lang.unparse.unparse_with_map`; also indexes barrier
    labels so epochs can be named after the barrier that closed them
    (``jacobi``'s ``step``, ``matmul``'s ``init_done``, ...).
    """

    def __init__(self, program: Program):
        self.program_name = program.name
        text, self.pc_to_line = unparse_with_map(program)
        self.lines = text.splitlines()
        self.barrier_labels: dict[int, str] = {
            stmt.pc: stmt.label
            for func in program.functions.values()
            for stmt in walk_stmts(func.body)
            if isinstance(stmt, Barrier) and stmt.label
        }

    def line_no(self, pc: int) -> int | None:
        """1-based source line of ``pc``, or None for synthetic pcs."""
        return self.pc_to_line.get(pc)

    def line_text(self, pc: int) -> str:
        line = self.pc_to_line.get(pc)
        if line is None or not 1 <= line <= len(self.lines):
            return ""
        return self.lines[line - 1].strip()

    def epoch_label(self, barrier_pc: int) -> str:
        return self.barrier_labels.get(barrier_pc, "")


class _Cell:
    """One (array, pc, epoch) attribution cell."""

    __slots__ = (
        "hits", "read_miss", "write_miss", "write_fault", "stall",
        "dir_issues", "dir_cycles", "dir_blocks",
        "traps", "trap_copies", "recalls", "recalls_dirty",
        "lock_acquires", "lock_wait",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def misses(self) -> int:
        return self.read_miss + self.write_miss + self.write_fault


_HIT = AccessKind.HIT
_KIND_FIELD = {
    AccessKind.READ_MISS: "read_miss",
    AccessKind.WRITE_MISS: "write_miss",
    AccessKind.WRITE_FAULT: "write_fault",
}


@dataclass
class _EpochAudit:
    """Per-epoch annotation-effectiveness bookkeeping (reset at barriers)."""

    #: (node, block) -> [array, referenced?] for live check-outs/prefetches
    outstanding: dict[tuple[int, int], list] = field(default_factory=dict)
    #: (node, block) -> array for blocks checked in this epoch
    checked_in: dict[tuple[int, int], str] = field(default_factory=dict)
    missed_pairs: set[tuple[int, int]] = field(default_factory=set)
    covered_pairs: set[tuple[int, int]] = field(default_factory=set)
    useless_checkouts: int = 0
    premature_checkins: int = 0
    checkouts: int = 0
    checkins: int = 0
    messages: int = 0
    #: requesting node -> messages its transactions sent this epoch
    #: (node -1 collects traffic outside any transaction, e.g. flushes)
    messages_by_node: dict[int, int] = field(default_factory=dict)


class AttributionProfiler:
    """Join the event stream with the labelled-region table.

    Parameters
    ----------
    labels:
        The run's labelled-region table (``SharedStore.labels``, or
        ``Trace.label_table()`` when replaying a stored trace's join).
    block_size:
        Block size of the simulated machine (blocks in trap/recall/directive
        events are resolved through ``block * block_size``).
    source:
        Optional :class:`SourceMap` for pc -> line joining.
    env:
        Optional :class:`~repro.cachier.mapping.ParamEnv`; when given, each
        hot structure's per-node miss footprint is re-expressed as a
        symbolic range (``B[Lkp:Ukp, 0:15]``) exactly the way the annotator
        symbolizes annotation targets.
    """

    def __init__(
        self,
        labels: LabelTable,
        block_size: int = 32,
        source: SourceMap | None = None,
        env=None,
    ):
        if block_size <= 0 or block_size & (block_size - 1):
            raise ObsError(f"block_size must be a power of two, got {block_size}")
        self.labels = labels
        self.block_size = block_size
        self._shift = block_size.bit_length() - 1
        self.source = source
        self.env = env
        self._cells: dict[tuple[str, int, int], _Cell] = {}
        # block -> (label or None, array name); see _block_label
        self._blocks: dict[int, tuple[ArrayLabel | None, str]] = {}
        self._label_cache: dict[str, ArrayLabel | None] = {}
        # per-node trap/recall events awaiting their enclosing access/directive
        self._pending: dict[int, list] = {}
        self._epoch = 0
        self._prev_vt = 0
        self._audit = _EpochAudit()
        self._epoch_rows: list[dict] = []
        # (array, epoch) -> node -> missed flat element indices, expanded to
        # whole blocks (a miss acquires the full block)
        self._foot: dict[tuple[str, int], dict[int, set[int]]] = {}
        self._tokens: list[int] = []
        self._finalized = False

    # ------------------------------------------------------------ wiring
    def attach(self, bus: EventBus) -> list[int]:
        """Subscribe to ``bus``; returns the subscription tokens."""
        sub = bus.subscribe
        self._tokens = [
            sub((EventKind.ACCESS,), self._on_access),
            sub((EventKind.DIRECTIVE,), self._on_directive),
            sub((EventKind.TRAP, EventKind.RECALL), self._on_slow_path),
            sub((EventKind.MESSAGE,), self._on_message),
            sub((EventKind.LOCK_ACQUIRE,), self._on_lock),
            sub((EventKind.BARRIER,), self._on_barrier),
        ]
        return list(self._tokens)

    def detach(self, bus: EventBus) -> None:
        for token in self._tokens:
            bus.unsubscribe(token)
        self._tokens.clear()

    # ----------------------------------------------------------- resolve
    def _array_of_addr(self, addr: int) -> str:
        label = self.labels.find(addr)
        return label.name if label is not None else UNLABELLED

    def _block_label(self, block: int) -> tuple[ArrayLabel | None, str]:
        """The label covering ``block`` and its array name, memoized per
        block.  Exact: every region is allocated as whole blocks from a
        block-aligned base, so no block straddles two labels."""
        entry = self._blocks.get(block)
        if entry is None:
            label = self.labels.find(block << self._shift)
            name = label.name if label is not None else UNLABELLED
            entry = self._blocks[block] = (label, name)
        return entry

    def _array_of_block(self, block: int) -> str:
        return self._block_label(block)[1]

    def _block_flats(self, label: ArrayLabel, block: int) -> range:
        """Flat element indices of ``label`` covered by ``block``."""
        base = block << self._shift
        esz = label.elem_size
        lo = max(0, (base - label.region.base) // esz)
        hi = min(
            label.num_elements,
            (base + self.block_size - label.region.base + esz - 1) // esz,
        )
        return range(lo, hi)

    def _cell(self, array: str, pc: int, epoch: int) -> _Cell:
        key = (array, pc, epoch)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell()
        return cell

    def _fold_pending(self, node: int, pc: int, epoch: int) -> None:
        events = self._pending.pop(node, None)
        if not events:
            return
        for ev in events:
            # The slow-path event names its own block; the enclosing
            # access/directive supplies the source position.
            cell = self._cell(self._array_of_block(ev.block), pc, epoch)
            if isinstance(ev, TrapEvent):
                cell.traps += 1
                cell.trap_copies += ev.copies
            else:
                cell.recalls += 1
                if ev.dirty:
                    cell.recalls_dirty += 1

    # ---------------------------------------------------------- handlers
    def _on_access(self, ev: AccessEvent) -> None:
        node, epoch, addr, pc, _write, _t, result = ev
        block = addr >> self._shift
        label, array = self._blocks.get(block) or self._block_label(block)
        key = (array, pc, epoch)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _Cell()
        audit = self._audit
        if audit.outstanding:
            entry = audit.outstanding.get((node, block))
            if entry is not None:
                entry[1] = True  # the check-out's block got re-referenced
        kind = result.kind
        if kind is _HIT:
            cell.hits += 1
            return
        # only a miss's slow path publishes traps and recalls
        if self._pending:
            self._fold_pending(node, pc, epoch)
        field_name = _KIND_FIELD[kind]
        setattr(cell, field_name, getattr(cell, field_name) + 1)
        cell.stall += result.cycles
        pair = (node, block)
        audit.missed_pairs.add(pair)
        if audit.checked_in.pop(pair, None) is not None:
            audit.premature_checkins += 1
        if label is not None:
            self._foot.setdefault((array, epoch), {}).setdefault(
                node, set()
            ).update(self._block_flats(label, block))

    def _on_directive(self, ev: DirectiveEvent) -> None:
        audit = self._audit
        for block in ev.blockset:
            array = self._array_of_block(block)
            cell = self._cell(array, ev.pc, ev.epoch)
            cell.dir_issues += 1
            cell.dir_blocks += 1
            pair = (ev.node, block)
            if ev.dkind in _CHECK_OUTS:
                audit.checkouts += 1
                audit.covered_pairs.add(pair)
                audit.outstanding.setdefault(pair, [array, False])
            elif ev.dkind == DIR_CHECK_IN:
                audit.checkins += 1
                entry = audit.outstanding.pop(pair, None)
                if entry is not None and not entry[1]:
                    audit.useless_checkouts += 1
                audit.checked_in[pair] = array
        if ev.blockset:
            # Charge the issue cost to the first covered structure.
            first = self._array_of_block(ev.blockset[0])
            self._cell(first, ev.pc, ev.epoch).dir_cycles += ev.cycles
        self._fold_pending(ev.node, ev.pc, ev.epoch)

    def _on_slow_path(self, ev: TrapEvent | RecallEvent) -> None:
        self._pending.setdefault(ev.node, []).append(ev)

    def _on_message(self, ev: MessageEvent) -> None:
        audit = self._audit
        audit.messages += ev.count
        audit.messages_by_node[ev.node] = (
            audit.messages_by_node.get(ev.node, 0) + ev.count
        )

    def _on_lock(self, ev: LockEvent) -> None:
        cell = self._cell(self._array_of_addr(ev.addr), ev.pc, self._epoch)
        cell.lock_acquires += 1
        cell.lock_wait += ev.wait

    def _on_barrier(self, ev: BarrierEvent) -> None:
        label = ""
        if self.source is not None and ev.node_pcs:
            label = self.source.epoch_label(next(iter(ev.node_pcs.values())))
        self._close_epoch(ev.vt, label)
        self._epoch = ev.epoch + 1
        self._prev_vt = ev.vt

    # --------------------------------------------------------- lifecycle
    def _close_epoch(self, end_vt: int, label: str) -> None:
        audit = self._audit
        # Check-outs still unreferenced when the epoch ends were useless.
        audit.useless_checkouts += sum(
            1 for _, referenced in audit.outstanding.values() if not referenced
        )
        # Coverage: of every (node, block) acquisition this epoch — demand
        # miss or explicit directive — what share went through a directive?
        # 0 for an unannotated run, approaching 1 when every acquisition is
        # annotated (a checked-out block *hits* on the demand access, so
        # "misses covered by directives" would be the wrong denominator).
        acquired = len(audit.missed_pairs | audit.covered_pairs)
        covered = len(audit.covered_pairs)
        self._epoch_rows.append({
            "epoch": self._epoch,
            "label": label,
            "cycles": max(end_vt - self._prev_vt, 0),
            "messages": audit.messages,
            "messages_by_node": sorted(
                [n, c] for n, c in audit.messages_by_node.items()
            ),
            "missed_pairs": len(audit.missed_pairs),
            "directive_pairs": covered,
            "coverage": covered / acquired if acquired else None,
            "checkouts": audit.checkouts,
            "checkins": audit.checkins,
            "useless_checkouts": audit.useless_checkouts,
            "premature_checkins": audit.premature_checkins,
        })
        self._audit = _EpochAudit()

    def finalize(self, cycles: int | None = None) -> None:
        """Flush the trailing partial epoch and unconsumed slow-path events."""
        if self._finalized:
            return
        self._finalized = True
        for node in list(self._pending):
            self._fold_pending(node, -1, self._epoch)
        end = cycles if cycles is not None else self._prev_vt
        if (
            end > self._prev_vt
            or self._audit.messages
            or self._audit.missed_pairs
            or not self._epoch_rows
        ):
            self._close_epoch(max(end, self._prev_vt), "final")

    # ------------------------------------------------------------ report
    def _footprint(self, array: str) -> str | None:
        """Symbolize the per-node miss footprint of ``array`` in its hottest
        epoch — the same per-epoch, per-node rectangle matching the
        annotator uses to print symbolic targets (Section 4.3/4.4)."""
        if self.env is None or array == UNLABELLED:
            return None
        label = self._label_cache.get(array)
        if label is None:
            label = self.labels.get(array) if array in self.labels else None
            self._label_cache[array] = label
        if label is None:
            return None
        from repro.cachier.mapping import symbolize

        candidates = sorted(
            (
                (sum(len(f) for f in per_node.values()), epoch, per_node)
                for (name, epoch), per_node in self._foot.items()
                if name == array
            ),
            reverse=True,
        )
        for _, _, per_node in candidates:
            try:
                sym = symbolize(label, {n: set(f) for n, f in per_node.items()},
                                self.env)
            except Exception:  # scattered / non-rectangular footprints
                sym = None
            if sym is not None:
                return target_str(sym.target)
        return None

    def report(self, name: str = "run", mode: str = "run") -> dict:
        """Freeze the attribution into a JSON-serialisable report."""
        self.finalize()
        structures: dict[str, dict] = {}
        lines: dict[tuple[str, int], dict] = {}
        per_epoch_struct: dict[int, dict[str, int]] = {}
        cube: list[list] = []
        totals = _Cell()
        for (array, pc, epoch), cell in sorted(self._cells.items()):
            for slot in _Cell.__slots__:
                setattr(totals, slot, getattr(totals, slot) + getattr(cell, slot))
            srow = structures.setdefault(array, _zero_struct_row(array))
            lrow = lines.setdefault((array, pc), _zero_line_row(array, pc))
            for row in (srow, lrow):
                row["misses"] += cell.misses
                row["read_miss"] += cell.read_miss
                row["write_miss"] += cell.write_miss
                row["write_fault"] += cell.write_fault
                row["stall_cycles"] += cell.stall
                row["dir_issues"] += cell.dir_issues
                row["dir_cycles"] += cell.dir_cycles
                row["traps"] += cell.traps
                row["trap_copies"] += cell.trap_copies
                row["recalls"] += cell.recalls
                row["lock_acquires"] += cell.lock_acquires
                row["lock_wait_cycles"] += cell.lock_wait
            if cell.misses or cell.stall:
                per_epoch_struct.setdefault(epoch, {})
                per_epoch_struct[epoch][array] = (
                    per_epoch_struct[epoch].get(array, 0) + cell.misses
                )
                cube.append([
                    array, pc, epoch,
                    cell.read_miss, cell.write_miss, cell.write_fault,
                    cell.stall,
                ])
        if self.source is not None:
            for (array, pc), row in lines.items():
                row["line"] = self.source.line_no(pc)
                row["source"] = self.source.line_text(pc)
        for array, row in structures.items():
            row["footprint"] = self._footprint(array)
        epochs = []
        for erow in self._epoch_rows:
            epoch_misses = per_epoch_struct.get(erow["epoch"], {})
            epochs.append({
                **erow,
                "misses": sum(epoch_misses.values()),
                "per_structure": dict(sorted(epoch_misses.items())),
            })
        audit_totals = {
            "checkouts": sum(e["checkouts"] for e in epochs),
            "checkins": sum(e["checkins"] for e in epochs),
            "useless_checkouts": sum(e["useless_checkouts"] for e in epochs),
            "premature_checkins": sum(e["premature_checkins"] for e in epochs),
            "coverage_by_epoch": [e["coverage"] for e in epochs],
        }
        return {
            "version": ATTRIB_VERSION,
            "name": name,
            "mode": mode,
            "block_size": self.block_size,
            "totals": {
                "accesses": totals.hits + totals.misses,
                "hits": totals.hits,
                "misses": totals.misses,
                "read_miss": totals.read_miss,
                "write_miss": totals.write_miss,
                "write_fault": totals.write_fault,
                "stall_cycles": totals.stall,
                "dir_issues": totals.dir_issues,
                "dir_cycles": totals.dir_cycles,
                "traps": totals.traps,
                "trap_copies": totals.trap_copies,
                "recalls": totals.recalls,
                "recalls_dirty": totals.recalls_dirty,
                "lock_acquires": totals.lock_acquires,
                "lock_wait_cycles": totals.lock_wait,
                "messages": sum(e["messages"] for e in epochs),
            },
            "structures": sorted(
                structures.values(),
                key=lambda r: (-r["stall_cycles"], -r["misses"], r["array"]),
            ),
            "lines": sorted(
                (row for row in lines.values() if row["misses"] or
                 row["stall_cycles"] or row["dir_issues"] or row["lock_acquires"]),
                key=lambda r: (-r["stall_cycles"], -r["misses"], r["array"], r["pc"]),
            ),
            "epochs": epochs,
            "audit": audit_totals,
            "cells": cube,
        }


def _zero_struct_row(array: str) -> dict:
    return {
        "array": array, "misses": 0, "read_miss": 0, "write_miss": 0,
        "write_fault": 0, "stall_cycles": 0, "dir_issues": 0, "dir_cycles": 0,
        "traps": 0, "trap_copies": 0, "recalls": 0, "lock_acquires": 0,
        "lock_wait_cycles": 0, "footprint": None,
    }


def _zero_line_row(array: str, pc: int) -> dict:
    return {
        "array": array, "pc": pc, "line": None, "source": "", "misses": 0,
        "read_miss": 0, "write_miss": 0, "write_fault": 0, "stall_cycles": 0,
        "dir_issues": 0, "dir_cycles": 0, "traps": 0, "trap_copies": 0,
        "recalls": 0, "lock_acquires": 0, "lock_wait_cycles": 0,
    }


# ------------------------------------------------------------ offline join
def profile_trace(
    trace, program: Program | None = None, name: str = "trace", env=None
) -> dict:
    """Attribute a stored :class:`~repro.trace.records.Trace` offline.

    Uses the trace's own labelled-region table — the very join the annotator
    performs — so a ``cachier-annotate --trace-out`` artefact can be
    profiled without re-running the program.  Traces carry no latencies or
    traffic, so the report has miss counts only.  ``env`` is an optional
    :class:`~repro.cachier.mapping.ParamEnv` for footprint symbolization.
    """
    profiler = AttributionProfiler(
        labels=trace.label_table(),
        block_size=trace.block_size,
        source=SourceMap(program) if program is not None else None,
        env=env,
    )
    shift = trace.block_size.bit_length() - 1
    for rec in sorted(trace.misses, key=lambda r: (r.epoch, r.node, r.addr)):
        label = profiler.labels.find(rec.addr)
        array = label.name if label is not None else UNLABELLED
        cell = profiler._cell(array, rec.pc, rec.epoch)
        fieldname = {
            "read_miss": "read_miss",
            "write_miss": "write_miss",
            "write_fault": "write_fault",
        }[rec.kind.value]
        setattr(cell, fieldname, getattr(cell, fieldname) + 1)
        if label is not None:
            profiler._foot.setdefault((array, rec.epoch), {}).setdefault(
                rec.node, set()
            ).update(profiler._block_flats(label, rec.addr >> shift))
    seen: set[int] = set()
    for rec in sorted(trace.barriers, key=lambda r: (r.vt, r.epoch)):
        if rec.epoch in seen:
            continue
        seen.add(rec.epoch)
        profiler._epoch = rec.epoch
        label = ""
        if profiler.source is not None:
            label = profiler.source.epoch_label(rec.barrier_pc)
        profiler._close_epoch(rec.vt, label)
        profiler._prev_vt = rec.vt
        profiler._epoch = rec.epoch + 1
    if trace.num_epochs() > len(seen):
        profiler._close_epoch(profiler._prev_vt, "final")
    profiler._finalized = True
    return profiler.report(name=name, mode="trace")


# -------------------------------------------------------------- rendering
_HEAT_CHARS = " .:-=+*#%@"


def render_heatmap(report: dict, top: int = 10) -> str:
    """Per-epoch miss heatmap: one row per hot structure, one column per
    epoch, intensity scaled to the hottest cell."""
    structures = [r["array"] for r in report["structures"][:top] if r["misses"]]
    epochs = report["epochs"]
    if not structures or not epochs:
        return "(no misses recorded)\n"
    grid = [
        [e["per_structure"].get(array, 0) for e in epochs]
        for array in structures
    ]
    peak = max(max(row) for row in grid) or 1
    width = max(len(a) for a in structures)
    lines = ["miss heatmap (rows: structures, cols: epochs; scale 0..%d)" % peak]
    header = " " * width + "  " + "".join(
        str(e["epoch"] % 10) for e in epochs
    )
    lines.append(header)
    for array, row in zip(structures, grid):
        shades = "".join(
            _HEAT_CHARS[min(int(v * (len(_HEAT_CHARS) - 1) / peak +
                                (0 if v == 0 else 1)),
                            len(_HEAT_CHARS) - 1)]
            for v in row
        )
        lines.append(f"{array.ljust(width)}  {shades}")
    labels = [e["label"] for e in epochs if e["label"]]
    if labels:
        lines.append(
            "epoch labels: "
            + ", ".join(f"{e['epoch']}={e['label']}" for e in epochs if e["label"])
        )
    return "\n".join(lines) + "\n"


def folded_stacks(report: dict) -> str:
    """Flamegraph folded stacks, one ``name;array;L<line> <weight>`` per
    line — pipe into ``flamegraph.pl`` or load in speedscope.

    The weight is stall cycles when the report carries latencies (timing
    mode) and miss counts otherwise (offline trace mode).
    """
    name = report["name"].replace(";", "_").replace(" ", "_")
    out = []
    use_stall = report["totals"]["stall_cycles"] > 0
    for row in report["lines"]:
        weight = row["stall_cycles"] if use_stall else row["misses"]
        if not weight:
            continue
        line = row.get("line")
        frame = f"L{line}" if line is not None else f"pc{row['pc']}"
        out.append(f"{name};{row['array']};{frame} {weight}")
    return "\n".join(out)


def render_profile(report: dict, top: int = 10) -> str:
    """The ``repro-obs profile`` text output."""
    from repro.harness.reporting import render_table

    t = report["totals"]
    lines = [
        f"profile {report['name']}: {t['accesses']} shared accesses, "
        f"{t['misses']} misses, {t['stall_cycles']} stall cycles, "
        f"{t['traps']} traps, {t['recalls']} recalls, "
        f"{t['messages']} messages",
        "",
    ]
    struct_rows = [
        [
            r["array"], r["misses"], r["stall_cycles"], r["traps"],
            r["recalls"], r["dir_issues"], r["lock_wait_cycles"],
            r["footprint"] or "-",
        ]
        for r in report["structures"][:top]
    ]
    lines.append(render_table(
        ["array", "misses", "stall_cyc", "traps", "recalls", "directives",
         "lock_wait", "miss footprint"],
        struct_rows,
        title=f"hot structures (top {min(top, len(report['structures']))})",
    ))
    line_rows = [
        [
            r["array"],
            r["line"] if r["line"] is not None else f"pc{r['pc']}",
            r["misses"], r["stall_cycles"], r["traps"], r["recalls"],
            (r["source"][:48] if r["source"] else "-"),
        ]
        for r in report["lines"][:top]
    ]
    lines.append(render_table(
        ["array", "line", "misses", "stall_cyc", "traps", "recalls", "source"],
        line_rows,
        title=f"hot source lines (top {min(top, len(report['lines']))})",
    ))
    epoch_rows = [
        [
            e["epoch"], e["label"] or "-", e["cycles"], e["misses"],
            e["messages"],
            "-" if e["coverage"] is None else e["coverage"],
            e["useless_checkouts"], e["premature_checkins"],
        ]
        for e in report["epochs"]
    ]
    lines.append(render_table(
        ["epoch", "label", "cycles", "misses", "msgs", "coverage",
         "useless_co", "premature_ci"],
        epoch_rows,
        title="per-epoch attribution & annotation audit",
    ))
    lines.append(render_heatmap(report, top=top))
    audit = report["audit"]
    if audit["checkouts"] or audit["checkins"]:
        lines.append(
            f"annotation audit: {audit['checkouts']} check-outs "
            f"({audit['useless_checkouts']} never re-referenced), "
            f"{audit['checkins']} check-ins "
            f"({audit['premature_checkins']} followed by a re-miss)"
        )
    else:
        lines.append("annotation audit: no CICO directives in this run")
    return "\n".join(lines) + "\n"


__all__ = [
    "ATTRIB_VERSION",
    "UNLABELLED",
    "AttributionProfiler",
    "SourceMap",
    "folded_stacks",
    "profile_trace",
    "render_heatmap",
    "render_profile",
]
