"""Trace collection (paper Section 3.3).

During a trace run, WWT kept per-epoch miss information in a hash table and
dumped it to the trace file at each synchronisation barrier, flushing every
node's shared-data cache so the next epoch's first touches would miss again.
:class:`TraceCollector` reproduces that.  It consumes the machine's event
bus — call :meth:`TraceCollector.subscribe` on the bus of a
``Machine(..., flush_at_barrier=True)``.

As in the paper, at most one record is kept per (node, address, kind) per
epoch — it is a hash table keyed by the access, not an ordered log — and
within an epoch no ordering is preserved.
"""

from __future__ import annotations

from repro.mem.labels import LabelTable
from repro.obs.events import AccessEvent, BarrierEvent, EventBus, EventKind
from repro.trace.records import BarrierRecord, LabelInfo, MissKind, MissRecord, Trace


class TraceCollector:
    def __init__(self, labels: LabelTable | None = None, block_size: int = 32,
                 num_nodes: int = 0):
        self._labels = labels
        self.block_size = block_size
        self.num_nodes = num_nodes
        # Hash table of the current epoch: (node, addr, kind) -> pc of first miss.
        self._epoch_table: dict[tuple[int, int, MissKind], int] = {}
        self._current_epoch = 0
        self._misses: list[MissRecord] = []
        self._barriers: list[BarrierRecord] = []

    @property
    def labels(self) -> LabelTable | None:
        """The labelled-region table addresses are joined against — the same
        table a stall ledger on this bus should be given, so the two agree
        on structure names."""
        return self._labels

    # --------------------------------------------------------------- bus API
    def subscribe(self, bus: EventBus) -> list[int]:
        """Attach to a machine's event bus; returns the subscription tokens."""
        return [
            bus.subscribe((EventKind.MISS,), self._on_miss_event),
            bus.subscribe((EventKind.BARRIER,), self._on_barrier_event),
        ]

    def _on_miss_event(self, event: AccessEvent) -> None:
        self._current_epoch = event.epoch
        self._epoch_table.setdefault(
            (event.node, event.addr, MissKind.from_access(event.result.kind)),
            event.pc,
        )

    def _on_barrier_event(self, event: BarrierEvent) -> None:
        epoch = event.epoch
        self._dump_epoch(epoch)
        for node, pc in sorted(event.node_pcs.items()):
            self._barriers.append(
                BarrierRecord(node, pc, event.vt, epoch)
            )
        self._current_epoch = epoch + 1

    # ------------------------------------------------------------- finishing
    def _dump_epoch(self, epoch: int) -> None:
        for (node, addr, kind), pc in self._epoch_table.items():
            self._misses.append(
                MissRecord(kind, addr, pc, node, epoch)
            )
        self._epoch_table.clear()

    def finish(self) -> Trace:
        """Flush the final (unterminated) epoch and build the Trace."""
        self._dump_epoch(self._current_epoch)
        labels = (
            [LabelInfo.from_label(lab) for lab in self._labels]
            if self._labels is not None
            else []
        )
        return Trace(
            misses=list(self._misses),
            barriers=list(self._barriers),
            labels=labels,
            block_size=self.block_size,
            num_nodes=self.num_nodes,
        )
