"""Trace record types (paper Figure 3).

The trace file contains, per epoch, one record per shared-data cache miss —
its type (shared read miss / shared write miss / shared write fault), the
address, the program counter, the node — plus one barrier record per node per
epoch boundary carrying the barrier PC and the barrier virtual time.  Within
an epoch records carry **no ordering**; epochs are ordered by barrier VT.

The trace also carries the labelling information (Section 4.3's labelled
regions) so the annotator can map raw addresses back to program data
structures without re-running the program.

:class:`MissRecord` and :class:`BarrierRecord` are immutable
:class:`~typing.NamedTuple` records, built positionally: a trace holds one
per miss, and the reader and the epoch fold touch each one once, so a
record costs one tuple allocation and its fields unpack like a tuple's.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.coherence.protocol import AccessKind
from repro.errors import TraceError
from repro.mem.labels import ArrayLabel, LabelTable
from repro.mem.layout import Region


class MissKind(enum.Enum):
    READ_MISS = "read_miss"
    WRITE_MISS = "write_miss"
    WRITE_FAULT = "write_fault"

    @classmethod
    def from_access(cls, kind: AccessKind) -> "MissKind":
        try:
            return _FROM_ACCESS[kind]
        except KeyError:
            raise TraceError(f"access kind {kind} is not a miss") from None


_FROM_ACCESS = {
    AccessKind.READ_MISS: MissKind.READ_MISS,
    AccessKind.WRITE_MISS: MissKind.WRITE_MISS,
    AccessKind.WRITE_FAULT: MissKind.WRITE_FAULT,
}


class MissRecord(NamedTuple):
    kind: MissKind
    addr: int
    pc: int
    node: int
    epoch: int


class BarrierRecord(NamedTuple):
    node: int
    barrier_pc: int
    vt: int
    epoch: int  # the epoch this barrier *closed*


@dataclass(slots=True)
class LabelInfo:
    """Serializable description of one labelled region."""

    name: str
    base: int
    nbytes: int
    elem_size: int
    order: str
    shape: tuple[int, ...]

    @classmethod
    def from_label(cls, label: ArrayLabel) -> "LabelInfo":
        return cls(
            name=label.name,
            base=label.region.base,
            nbytes=label.region.nbytes,
            elem_size=label.elem_size,
            order=label.order,
            shape=label.shape,
        )

    def to_label(self) -> ArrayLabel:
        region = Region(name=self.name, base=self.base, nbytes=self.nbytes)
        return ArrayLabel(
            region=region, shape=self.shape, elem_size=self.elem_size, order=self.order
        )


@dataclass
class Trace:
    """A complete program trace: misses + barriers + labels."""

    misses: list[MissRecord] = field(default_factory=list)
    barriers: list[BarrierRecord] = field(default_factory=list)
    labels: list[LabelInfo] = field(default_factory=list)
    block_size: int = 32
    num_nodes: int = 0

    def num_epochs(self) -> int:
        """Epochs are numbered from 0; the final epoch may lack a barrier."""
        last = max((rec.epoch for rec in self.misses), default=-1)
        return max(last, max((rec.epoch for rec in self.barriers), default=-1)) + 1

    def misses_in(self, epoch: int) -> list[MissRecord]:
        return [rec for rec in self.misses if rec.epoch == epoch]

    def closing_pcs(self) -> dict[int, int]:
        """Epoch -> the barrier PC that closed it (its first barrier record;
        the same for all nodes in SPMD), from one scan of the barriers."""
        out: dict[int, int] = {}
        for rec in self.barriers:
            out.setdefault(rec.epoch, rec.barrier_pc)
        return out

    def barrier_pc_closing(self, epoch: int) -> int | None:
        """Barrier PC that closed ``epoch`` (same for all nodes in SPMD)."""
        return self.closing_pcs().get(epoch)

    def label_table(self) -> LabelTable:
        table = LabelTable()
        for info in self.labels:
            table.add(info.to_label())
        return table

    def static_epoch_key(
        self, epoch: int, closing: dict[int, int] | None = None
    ) -> tuple[int, int]:
        """(opening barrier pc, closing barrier pc) identifying the *static*
        epoch; -1 stands for program start / program end.  Dynamic epochs with
        equal keys are re-executions of the same program region.  Pass
        :meth:`closing_pcs` as ``closing`` to key many epochs from one scan."""
        if closing is None:
            closing = self.closing_pcs()
        opening = closing.get(epoch - 1, -1) if epoch > 0 else -1
        return opening, closing.get(epoch, -1)
