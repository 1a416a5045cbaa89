"""Source-level attribution: join dynamic cache events with program structure.

The paper's core move (Section 4.3) is joining *dynamic* cache behaviour
with *static* program structure: trace addresses are resolved through the
labelled-region table, and per-node footprints are re-expressed symbolically
through the parameter environment (:mod:`repro.cachier.mapping`).  This
module applies the same join to the live event stream of the obs bus, so a
run can answer "which array, which source line, which epoch is burning the
traffic?":

* :class:`StallLedger` subscribes ``MISS`` / ``DIRECTIVE`` / ``TRAP`` /
  ``RECALL`` / ``LOCK_ACQUIRE`` / ``BARRIER`` / ``NODE_DONE`` (every
  access topic, ``ACCESS``, only while its audit waits for a checked-out
  block's first reference), reads each node's message count from the
  network, and keeps each epoch's stall spans keyed by
  (node, data structure, pc, cause), plus each epoch's length, barrier
  arrivals, messages per node and **annotation-effectiveness audit**:
  check-outs whose blocks were never re-referenced, check-ins immediately
  followed by a re-miss on the same node, and directive coverage of the
  epoch's acquisitions;
* :func:`attribution_report` sums the spans over nodes and causes into
  (data structure, source line, epoch) cells of misses, stall cycles,
  invalidation traffic and trap counts; :mod:`repro.obs.critpath` reads
  the same spans for the critical path;
* :func:`profile_trace` feeds a ledger *offline* from a stored
  :class:`~repro.trace.records.Trace` via its labelled-region table;
* :func:`render_profile` / :func:`folded_stacks` / :func:`render_heatmap`
  turn a report into the ``repro-obs profile`` text output, flamegraph
  folded-stack lines, and a per-epoch miss heatmap.

Attribution is read-only: handlers never mutate simulator state, so a
profiled run stays cycle-for-cycle identical to an unobserved one.

Traps and recalls are published by the protocol *inside* the access or
directive that caused them and carry no pc; the ledger holds them per
requesting node and folds them into that node's next access/directive
event, each at its own block's array, which recovers full source-line
attribution for the slow paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import LabelError, ObsError
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
    NodeDoneEvent,
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


#: span causes besides a miss's own (its protocol detail, or its kind when
#: the miss has none): a directive's issue cost and a lock acquire's wait
DIRECTIVE = "directive"
LOCK = "lock"

#: the attribution counts a span carries as they are
_SPAN_COUNTS = (
    "misses", "read_miss", "write_miss", "write_fault", "dir_issues",
    "traps", "trap_copies", "recalls", "recalls_dirty", "lock_acquires",
)
#: the attribution field a span's cycles count in, by cause
_CYCLES_FIELD = {DIRECTIVE: "dir_cycles", LOCK: "lock_wait_cycles"}
_CELL_FIELDS = _SPAN_COUNTS + ("stall_cycles", "dir_cycles", "lock_wait_cycles")
#: a structure row's and a line row's counts
_ROW_FIELDS = tuple(f for f in _CELL_FIELDS if f != "recalls_dirty")
#: the check-out audit's counts the report totals, and all its per-epoch keys
_AUDIT_TOTALS = ("checkouts", "checkins", "useless_checkouts", "premature_checkins")
_AUDIT_KEYS = ("missed_pairs", "directive_pairs", "coverage") + _AUDIT_TOTALS


@dataclass(slots=True)
class Span:
    """Stall at one (node, array, pc, cause) within one epoch.

    ``cycles`` is the stall and ``count`` the events that paid it (misses,
    directives, lock acquires that waited); the rest are attribution
    counts.  A directive's ``cycles`` and ``count`` land on its first
    block's array, and ``dir_issues`` counts the blocks it covered in each.
    """

    cycles: int = 0
    count: int = 0
    read_miss: int = 0
    write_miss: int = 0
    write_fault: int = 0
    dir_issues: int = 0
    lock_acquires: int = 0  # waited for or not
    traps: int = 0
    trap_copies: int = 0
    recalls: int = 0
    recalls_dirty: int = 0

    @property
    def misses(self) -> int:
        return self.read_miss + self.write_miss + self.write_fault


@dataclass
class _EpochAudit:
    """Per-epoch annotation-effectiveness bookkeeping (reset at barriers)."""

    #: (node, block) -> referenced? for live check-outs/prefetches
    outstanding: dict[tuple[int, int], bool] = field(default_factory=dict)
    #: (node, block) checked in this epoch
    checked_in: set[tuple[int, int]] = field(default_factory=set)
    missed_pairs: set[tuple[int, int]] = field(default_factory=set)
    covered_pairs: set[tuple[int, int]] = field(default_factory=set)
    useless_checkouts: int = 0
    premature_checkins: int = 0
    checkouts: int = 0
    checkins: int = 0
    #: requesting node -> messages its operations sent this epoch (the
    #: network's context node; -1 before any operation), booked at the
    #: epoch's close
    messages_by_node: dict[int, int] = field(default_factory=dict)


class StallLedger:
    """Each epoch's stall spans, keyed by (node, array, pc, cause).

    The one bus subscriber behind :func:`attribution_report` and
    :func:`repro.obs.critpath.critpath_report`.  Each closed epoch keeps
    its label, length, barrier arrivals, messages per node and check-out
    audit.  ``labels`` is the run's labelled-region table
    (``SharedStore.labels`` or ``Trace.label_table()``; without one every
    span lands in :data:`UNLABELLED`), ``source`` an optional
    :class:`SourceMap`, and ``env`` an optional
    :class:`~repro.cachier.mapping.ParamEnv`: with it each hot structure's
    per-node miss footprint is re-expressed as a symbolic range
    (``B[Lkp:Ukp, 0:15]``) exactly the way the annotator symbolizes
    annotation targets.

    With ``attribution`` the ledger also keeps what only
    :func:`attribution_report` reads: the check-out audit and each
    directive's covered blocks per array (``dir_issues``);
    :func:`repro.obs.critpath.critpath_report` reads neither.  Misses
    come from MISS either way, and a hit matters only to the audit, and
    only while a checked-out (node, block) pair is still unreferenced: the
    ledger reads ACCESS just while it holds such a pair (see
    :meth:`attach`).  ``hits`` is the run's hit total, handed to
    :meth:`finalize` by whoever reads the protocol's counters (the
    :class:`~repro.obs.session.Observer`).

    ``network`` is the run's :class:`~repro.network.model.Network`: each
    epoch's messages per node are the differences of its per-node
    counters (:meth:`~repro.network.model.Network.sent_by_node`), read at
    each barrier and at :meth:`finalize`, from where the run started or
    resumed (:meth:`resume`).  Without one the books stay empty.
    """

    def __init__(
        self,
        labels: LabelTable | None = None,
        block_size: int = 32,
        source: SourceMap | None = None,
        env=None,
        attribution: bool = True,
        network=None,
    ):
        if block_size <= 0 or block_size & (block_size - 1):
            raise ObsError(f"block_size must be a power of two, got {block_size}")
        self.labels = labels
        self.block_size = block_size
        self._shift = block_size.bit_length() - 1
        self.source = source
        self.env = env
        self._attribution = attribution
        #: epoch -> (node, array, pc, cause) -> Span
        self.spans: dict[int, dict[tuple[int, str, int, str], Span]] = {}
        self.epochs: list[dict] = []  # one per closed epoch, in order
        self.hits = 0  # set by finalize
        self.epoch = 0  # the open epoch
        self.start_vt = 0  # where it started: the previous barrier's vt
        self._resume = 0  # clock the nodes resumed from
        self._done: dict[int, int] = {}  # node -> completion clock
        # block -> (label or None, array name); see _block_label
        self._blocks: dict[int, tuple[ArrayLabel | None, str]] = {}
        # per-node trap/recall events awaiting their enclosing access/directive
        self._pending: dict[int, list] = {}
        self._audit = _EpochAudit()
        # checked-out pairs of the open epoch not referenced yet: the
        # False values of _audit.outstanding
        self._unreferenced = 0
        # (array, epoch) -> node -> missed flat element indices, expanded to
        # whole blocks (a miss acquires the full block); kept only with env
        self._foot: dict[tuple[str, int], dict[int, set[int]]] = {}
        self._finalized = False
        self._bus: EventBus | None = None
        self._tokens: list[int] = []
        self._hit_token: int | None = None  # the ACCESS subscription
        self._network = network
        self._sent: dict[int, int] = {}  # per-node counts at the last read
        self.resume()

    def attach(self, bus: EventBus) -> None:
        """Subscribe to ``bus`` until :meth:`detach`.

        The ledger reads misses from MISS.  With ``attribution`` it also
        subscribes to ACCESS, every access topic, when the count of
        unreferenced checked-out pairs rises from zero, and unsubscribes
        when the count falls back to zero and at each epoch close; a hit
        outside those windows cannot change the audit, and costs the
        ledger nothing.
        """
        self._bus = bus
        sub = bus.subscribe
        self._tokens = [
            sub((EventKind.MISS,), self._on_miss),
            sub((EventKind.DIRECTIVE,), self._on_directive),
            sub((EventKind.TRAP, EventKind.RECALL), self._on_slow_path),
            sub((EventKind.LOCK_ACQUIRE,), self._on_lock),
            sub((EventKind.BARRIER,), self._on_barrier),
            sub((EventKind.NODE_DONE,), self._on_node_done),
        ]

    def detach(self) -> None:
        """Drop every subscription the ledger holds, ACCESS included."""
        self._read_accesses(False)
        for token in self._tokens:
            self._bus.unsubscribe(token)
        self._tokens.clear()

    def resume(self) -> None:
        """Book messages from here on: the network's per-node counts now
        are where the next epoch's differences start."""
        if self._network is not None:
            self._sent = self._network.sent_by_node()

    def _book_messages(self) -> None:
        """Book each node's messages since the last read into the open
        epoch's audit."""
        if self._network is None:
            return
        sent = self._network.sent_by_node()
        last = self._sent
        books = self._audit.messages_by_node
        for node, count in sent.items():
            count -= last.get(node, 0)
            if count:
                books[node] = books.get(node, 0) + count
        self._sent = sent

    def _read_accesses(self, on: bool) -> None:
        """Subscribe to ACCESS (``on``) or drop that subscription."""
        if on:
            if self._hit_token is None and self._bus is not None:
                self._hit_token = self._bus.subscribe(
                    (EventKind.ACCESS,), self._on_access)
        elif self._hit_token is not None:
            self._bus.unsubscribe(self._hit_token)
            self._hit_token = None

    def _referenced(self, pair: tuple[int, int]) -> None:
        """An unreferenced checked-out ``pair`` was used."""
        self._audit.outstanding[pair] = True
        self._unreferenced -= 1
        if not self._unreferenced:
            self._read_accesses(False)

    # ----------------------------------------------------------- resolve
    def _block_label(self, block: int) -> tuple[ArrayLabel | None, str]:
        """The label covering ``block`` and its array name, memoized per
        block.  Exact: every region is allocated as whole blocks from a
        block-aligned base, so no block straddles two labels."""
        entry = self._blocks.get(block)
        if entry is None:
            label = None
            if self.labels is not None:
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

    def _span(self, epoch: int, node: int, array: str, pc: int,
              cause: str) -> Span:
        spans = self.spans.get(epoch)
        if spans is None:
            spans = self.spans[epoch] = {}
        key = (node, array, pc, cause)
        span = spans.get(key)
        if span is None:
            span = spans[key] = Span()
        return span

    def _fold(self, node: int, epoch: int, pc: int, cause: str) -> None:
        """Fold ``node``'s held traps and recalls into its access or
        directive at (pc, cause), each at its own block's array."""
        for ev in self._pending.pop(node, ()):
            span = self._span(epoch, node, self._array_of_block(ev.block),
                              pc, cause)
            if isinstance(ev, TrapEvent):
                span.traps += 1
                span.trap_copies += ev.copies
            else:
                span.recalls += 1
                span.recalls_dirty += ev.dirty

    def charge_miss(self, node: int, epoch: int, block: int, pc: int,
                    kind: str, cycles: int = 0, detail: str = "") -> None:
        """One miss of ``kind`` (an :class:`AccessKind` value) on ``block``,
        spanned under its ``detail`` (or its kind when it has none) and
        entered in the open epoch's audit."""
        label, array = self._blocks.get(block) or self._block_label(block)
        span = self._span(epoch, node, array, pc, detail or kind)
        span.cycles += cycles
        span.count += 1
        setattr(span, kind, getattr(span, kind) + 1)
        if self.env is not None and label is not None:
            self._foot.setdefault((array, epoch), {}).setdefault(
                node, set()
            ).update(self._block_flats(label, block))
        if self._attribution:
            pair = (node, block)
            audit = self._audit
            if audit.outstanding.get(pair) is False:
                self._referenced(pair)
            audit.missed_pairs.add(pair)
            if pair in audit.checked_in:
                audit.checked_in.remove(pair)
                audit.premature_checkins += 1

    # ---------------------------------------------------------- handlers
    def _on_access(self, ev: AccessEvent) -> None:
        # subscribed only while some checked-out pair is unreferenced; a
        # miss's reference is marked here or in charge_miss, whichever
        # comes first
        pair = (ev.node, ev.addr >> self._shift)
        if self._audit.outstanding.get(pair) is False:
            self._referenced(pair)

    def _on_miss(self, ev: AccessEvent) -> None:
        node, epoch, addr, pc, _write, _t, result = ev
        kind = result.kind.value
        self.charge_miss(node, epoch, addr >> self._shift, pc, kind,
                         result.cycles, result.detail)
        # only a miss's slow path publishes traps and recalls
        if self._pending:
            self._fold(node, epoch, pc, result.detail or kind)

    def _on_directive(self, ev: DirectiveEvent) -> None:
        node, epoch, pc, blockset = ev.node, ev.epoch, ev.pc, ev.blockset
        # the issue cost goes to the first covered structure
        first = self._array_of_block(blockset[0]) if blockset else UNLABELLED
        span = self._span(epoch, node, first, pc, DIRECTIVE)
        span.cycles += ev.cycles
        span.count += 1
        if self._attribution:
            for block in blockset:
                array = self._array_of_block(block)
                self._span(epoch, node, array, pc, DIRECTIVE).dir_issues += 1
            self._audit_directive(node, ev.dkind, blockset)
        self._fold(node, epoch, pc, DIRECTIVE)

    def _audit_directive(self, node: int, dkind: int,
                         blockset: tuple[int, ...]) -> None:
        audit = self._audit
        outstanding = audit.outstanding
        if dkind in _CHECK_OUTS:
            audit.checkouts += len(blockset)
            for block in blockset:
                pair = (node, block)
                audit.covered_pairs.add(pair)
                if pair not in outstanding:
                    outstanding[pair] = False
                    self._unreferenced += 1
        elif dkind == DIR_CHECK_IN:
            audit.checkins += len(blockset)
            for block in blockset:
                pair = (node, block)
                if outstanding.pop(pair, True) is False:
                    audit.useless_checkouts += 1
                    self._unreferenced -= 1
                audit.checked_in.add(pair)
        self._read_accesses(self._unreferenced > 0)

    def _on_slow_path(self, ev: TrapEvent | RecallEvent) -> None:
        self._pending.setdefault(ev.node, []).append(ev)

    def _on_lock(self, ev: LockEvent) -> None:
        span = self._span(self.epoch, ev.node,
                          self._array_of_block(ev.addr >> self._shift),
                          ev.pc, LOCK)
        span.lock_acquires += 1
        if ev.wait:
            span.cycles += ev.wait
            span.count += 1

    def _on_barrier(self, ev: BarrierEvent) -> None:
        self._book_messages()
        label = ""
        if self.source is not None and ev.node_pcs:
            label = self.source.epoch_label(next(iter(ev.node_pcs.values())))
        self.close_epoch(ev.epoch, ev.vt, label, resume=ev.resume,
                         arrivals=dict(ev.node_clocks))

    def _on_node_done(self, ev: NodeDoneEvent) -> None:
        self._done[ev.node] = ev.t

    # --------------------------------------------------------- lifecycle
    def close_epoch(self, epoch: int, end_vt: int, label: str,
                    resume: int | None = None,
                    arrivals: dict[int, int] | None = None) -> None:
        """Close ``epoch`` at ``end_vt``; the nodes arrived at ``arrivals``
        and resume the next epoch at ``resume``."""
        audit = self._audit
        # Coverage: of every (node, block) acquisition this epoch — demand
        # miss or explicit directive — what share went through a directive?
        # (A checked-out block *hits* on the demand access, so "misses
        # covered by directives" would be the wrong denominator.)
        acquired = len(audit.missed_pairs | audit.covered_pairs)
        covered = len(audit.covered_pairs)
        self.epochs.append({
            "epoch": epoch,
            "label": label,
            "start_vt": self.start_vt,
            "end_vt": end_vt,
            "cycles": max(end_vt - self.start_vt, 0),
            "barrier_overhead": max(self._resume - self.start_vt, 0),
            "arrivals": arrivals or {},
            "messages_by_node": audit.messages_by_node,
            "missed_pairs": len(audit.missed_pairs),
            "directive_pairs": covered,
            "coverage": covered / acquired if acquired else None,
            "checkouts": audit.checkouts,
            "checkins": audit.checkins,
            # check-outs still unreferenced when the epoch ends were useless
            "useless_checkouts": audit.useless_checkouts + self._unreferenced,
            "premature_checkins": audit.premature_checkins,
        })
        self._audit = _EpochAudit()
        self._unreferenced = 0
        self._read_accesses(False)
        self.epoch = epoch + 1
        self.start_vt = end_vt
        if resume is not None:
            self._resume = resume

    def finalize(self, cycles: int | None = None, hits: int = 0) -> None:
        """Fold unclaimed slow-path events and close the trailing epoch at
        ``cycles`` from the nodes' completion clocks (idempotent; mirrors
        ``RunResult.epoch_times``); ``hits`` is the run's hit total.  Call
        it before reading a report."""
        if self._finalized:
            return
        self._finalized = True
        self.hits = hits
        self._book_messages()
        for node in list(self._pending):
            self._fold(node, self.epoch, -1, "unclaimed")
        end = max(cycles or 0, self.start_vt)
        audit = self._audit
        if (end > self.start_vt or sum(audit.messages_by_node.values())
                or audit.missed_pairs or not self.epochs):
            arrivals = {
                node: max(t, self.start_vt)
                for node, t in self._done.items()
                if t >= self._resume
            }
            self.close_epoch(self.epoch, end, "final", arrivals=arrivals)

    def _footprint(self, array: str) -> str | None:
        """Symbolize the per-node miss footprint of ``array`` in its hottest
        epoch — the same per-epoch, per-node rectangle matching the
        annotator uses to print symbolic targets (Section 4.3/4.4)."""
        if self.env is None or array == UNLABELLED or array not in self.labels:
            return None
        from repro.cachier.mapping import symbolize

        label = self.labels.get(array)
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
            except LabelError:  # scattered / non-rectangular footprints
                sym = None
            if sym is not None:
                return target_str(sym.target)
        return None


def attribution_report(ledger: StallLedger, name: str = "run",
                       mode: str = "run") -> dict:
    """The attribution report of a finalized ledger: its spans summed over
    nodes and causes into (data structure, source line, epoch) cells of
    misses, stall cycles, invalidation traffic and trap counts, plus the
    per-epoch rows and the annotation audit."""
    cells: dict[tuple[str, int, int], dict] = {}
    for epoch, spans in ledger.spans.items():
        for (_node, array, pc, cause), s in spans.items():
            counts = {f: getattr(s, f) for f in _SPAN_COUNTS}
            counts[_CYCLES_FIELD.get(cause, "stall_cycles")] = s.cycles
            if any(counts.values()):  # else a directive that covered no block
                cell = cells.setdefault((array, pc, epoch),
                                        dict.fromkeys(_CELL_FIELDS, 0))
                for key, value in counts.items():
                    cell[key] += value
    structures: dict[str, dict] = {}
    lines: dict[tuple[str, int], dict] = {}
    per_epoch_struct: dict[int, dict[str, int]] = {}
    cube: list[list] = []
    totals = dict.fromkeys(_CELL_FIELDS, 0)
    zero = dict.fromkeys(_ROW_FIELDS, 0)
    for (array, pc, epoch), cell in sorted(cells.items()):
        rows = (
            structures.setdefault(
                array, {"array": array, **zero, "footprint": None}),
            lines.setdefault((array, pc), {
                "array": array, "pc": pc, "line": None, "source": "", **zero,
            }),
        )
        for key, value in cell.items():
            totals[key] += value
            for row in rows:
                if key in row:
                    row[key] += value
        if cell["misses"] or cell["stall_cycles"]:
            per_epoch = per_epoch_struct.setdefault(epoch, {})
            per_epoch[array] = per_epoch.get(array, 0) + cell["misses"]
            cube.append([
                array, pc, epoch, cell["read_miss"], cell["write_miss"],
                cell["write_fault"], cell["stall_cycles"],
            ])
    if ledger.source is not None:
        for (array, pc), row in lines.items():
            row["line"] = ledger.source.line_no(pc)
            row["source"] = ledger.source.line_text(pc)
    for array, row in structures.items():
        row["footprint"] = ledger._footprint(array)
    epochs = []
    for rec in ledger.epochs:
        epoch_misses = per_epoch_struct.get(rec["epoch"], {})
        by_node = rec["messages_by_node"]
        epochs.append({
            "epoch": rec["epoch"],
            "label": rec["label"],
            "cycles": rec["cycles"],
            "messages": sum(by_node.values()),
            "messages_by_node": sorted([n, c] for n, c in by_node.items()),
            **{key: rec[key] for key in _AUDIT_KEYS},
            "misses": sum(epoch_misses.values()),
            "per_structure": dict(sorted(epoch_misses.items())),
        })
    audit = {key: sum(e[key] for e in epochs) for key in _AUDIT_TOTALS}
    audit["coverage_by_epoch"] = [e["coverage"] for e in epochs]
    return {
        "version": ATTRIB_VERSION,
        "name": name,
        "mode": mode,
        "block_size": ledger.block_size,
        "totals": {
            "accesses": ledger.hits + totals["misses"],
            "hits": ledger.hits,
            **totals,
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
        "audit": audit,
        "cells": cube,
    }


# ------------------------------------------------------------ offline join
def profile_trace(
    trace, program: Program | None = None, name: str = "trace", env=None
) -> dict:
    """Attribute a stored :class:`~repro.trace.records.Trace` offline.

    Feeds the trace's misses and barriers to a :class:`StallLedger` over
    the trace's own labelled-region table — the very join the annotator
    performs — so a ``cachier-annotate --trace-out`` artefact can be
    profiled without re-running the program.  Traces carry no latencies or
    traffic, so the report has miss counts only.  ``env`` is as for
    :class:`StallLedger`.
    """
    ledger = StallLedger(
        labels=trace.label_table(),
        block_size=trace.block_size,
        source=SourceMap(program) if program is not None else None,
        env=env,
    )
    shift = trace.block_size.bit_length() - 1
    misses = sorted(trace.misses, key=lambda r: (r.epoch, r.node, r.addr))
    charged = 0

    def charge_through(epoch: float) -> None:
        """Charge the misses up to ``epoch`` while it is the open one, so
        each lands in its own epoch's audit."""
        nonlocal charged
        while charged < len(misses) and misses[charged].epoch <= epoch:
            rec = misses[charged]
            ledger.charge_miss(rec.node, rec.epoch, rec.addr >> shift,
                               rec.pc, rec.kind.value)
            charged += 1

    seen: set[int] = set()
    for rec in sorted(trace.barriers, key=lambda r: (r.vt, r.epoch)):
        if rec.epoch in seen:
            continue
        seen.add(rec.epoch)
        label = ""
        if ledger.source is not None:
            label = ledger.source.epoch_label(rec.barrier_pc)
        charge_through(rec.epoch)
        ledger.close_epoch(rec.epoch, rec.vt, label)
    charge_through(math.inf)
    if trace.num_epochs() > len(seen):
        ledger.close_epoch(ledger.epoch, ledger.start_vt, "final")
    return attribution_report(ledger, name=name, mode="trace")


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
    labels = ", ".join(f"{e['epoch']}={e['label']}" for e in epochs if e["label"])
    if labels:
        lines.append("epoch labels: " + labels)
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
        ["array", "misses", "stall_cyc", "traps", "recalls", "dir_blocks",
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
    "DIRECTIVE",
    "LOCK",
    "UNLABELLED",
    "SourceMap",
    "Span",
    "StallLedger",
    "attribution_report",
    "folded_stacks",
    "profile_trace",
    "render_heatmap",
    "render_profile",
]
