"""Per-(epoch, node) access sets from the trace.

Section 4's trace processing: *"removing addresses involved in shared write
faults from the list of shared read misses, updating the list of shared
write misses to include addresses involved in shared write faults"*.
Concretely, for epoch *i* and processor *p*:

* ``SW`` = shared write misses + shared write faults,
* ``SR`` = shared read misses - shared write faults,
* ``S``  = ``SW`` + ``SR``,
* ``WF`` = the write-fault addresses alone (Performance CICO needs them:
  they are the read-then-written locations whose upgrade a ``check_out_X``
  would eliminate).

Granularity: check-out/check-in operate on *cache blocks* ("the cache block
containing a specified address"), and a trace miss record names whichever
element of the block happened to fault first — re-misses on a ping-ponging
block can record several different elements of one block.  The sets above
are therefore canonicalized to **block base addresses**.  Each block's
miss records are retained, raw element addresses included, for two
consumers that need them:

* DRFS classification — a *data race* is two processors on the same raw
  address, *false sharing* is two processors on different raw addresses of
  the same block (Section 4);
* the programmer-facing sharing report.

Most blocks have one record in an epoch, so who read and who wrote each raw
address (:func:`raw_access`) is derived only for the blocks DRFS asks about.

PCs are retained per block so the placement stage can find the referencing
statements: ``read_pc`` maps a block address to the pc of its first read
miss, ``write_pc`` to the pc of its first write miss or fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.trace.records import MissKind, MissRecord, Trace


@dataclass
class RawAccess:
    """Who touched one raw element address within an epoch."""

    readers: set[int] = field(default_factory=set)
    writers: set[int] = field(default_factory=set)

    @property
    def nodes(self) -> set[int]:
        return self.readers | self.writers


def raw_access(records: list[MissRecord]) -> dict[int, RawAccess]:
    """Raw addr -> who read and who wrote it, over one block's records."""
    out: dict[int, RawAccess] = {}
    read = MissKind.READ_MISS
    for kind, addr, _pc, node, _epoch in records:
        touch = out.get(addr)
        if touch is None:
            touch = out[addr] = RawAccess()
        if kind is read:
            touch.readers.add(node)
        else:
            touch.writers.add(node)
    return out


@dataclass
class EpochAccess:
    """One processor's shared accesses within one epoch (block granular)."""

    sw: set[int] = field(default_factory=set)
    sr: set[int] = field(default_factory=set)
    wf: set[int] = field(default_factory=set)
    read_pc: dict[int, int] = field(default_factory=dict)
    write_pc: dict[int, int] = field(default_factory=dict)

    @property
    def s(self) -> set[int]:
        return self.sw | self.sr

    def pc_for(self, addr: int) -> int:
        """Best-known pc referencing ``addr``: prefer the read site (a
        check-out must precede the first read), else the write site."""
        pc = self.read_pc.get(addr)
        if pc is None:
            pc = self.write_pc.get(addr, -1)
        return pc


_EMPTY = EpochAccess()


class EpochTable:
    """All epochs of a trace: ``table[epoch][node] -> EpochAccess``."""

    def __init__(self, trace: Trace, block_size: int | None = None):
        self.trace = trace
        self.block_size = block_size or trace.block_size
        self.num_epochs = trace.num_epochs()
        self._table: dict[int, dict[int, EpochAccess]] = {}
        self._touches: dict[int, list[tuple[int, int]]] | None = None
        #: epoch -> block base -> the block's miss records, in trace order
        #: (the raw element addresses, for DRFS and the reports)
        self._blocks: dict[int, dict[int, list[MissRecord]]] = {}
        # One pass over the misses.  Records arrive grouped by epoch, so the
        # current epoch's node and block maps are looked up only when the
        # epoch changes (any order is still folded correctly).
        bs = self.block_size
        table, by_epoch = self._table, self._blocks
        read, write = MissKind.READ_MISS, MissKind.WRITE_MISS
        current = None
        nodes: dict[int, EpochAccess] = {}
        blocks: dict[int, list[MissRecord]] = {}
        for rec in trace.misses:
            kind, addr, pc, node, epoch = rec
            if epoch != current:
                current = epoch
                nodes = table.setdefault(epoch, {})
                blocks = by_epoch.setdefault(epoch, {})
            acc = nodes.get(node)
            if acc is None:
                acc = nodes[node] = EpochAccess()
            base = (addr // bs) * bs
            records = blocks.get(base)
            if records is None:
                blocks[base] = [rec]
            else:
                records.append(rec)
            if kind is read:
                acc.sr.add(base)
                acc.read_pc.setdefault(base, pc)
            elif kind is write:
                acc.sw.add(base)
                acc.write_pc.setdefault(base, pc)
            else:  # WRITE_FAULT
                acc.wf.add(base)
                acc.write_pc.setdefault(base, pc)
        # Write-fault folding: faults join SW and leave SR.
        for per_node in table.values():
            for acc in per_node.values():
                acc.sw |= acc.wf
                acc.sr -= acc.sw

    def get(self, epoch: int, node: int) -> EpochAccess:
        """Access sets (empty outside the trace — SW[-1] = S[n] = {})."""
        return self._table.get(epoch, {}).get(node, _EMPTY)

    def nodes_in(self, epoch: int) -> list[int]:
        return sorted(self._table.get(epoch, {}))

    def epochs(self) -> list[int]:
        return sorted(self._table)

    def blocks_in(self, epoch: int) -> dict[int, list[MissRecord]]:
        """Block base -> the block's miss records in ``epoch``."""
        return self._blocks.get(epoch, {})

    def raw_in(self, epoch: int) -> dict[int, dict[int, RawAccess]]:
        """Block base -> raw addr -> who read and who wrote it in ``epoch``."""
        return {base: raw_access(records)
                for base, records in self.blocks_in(epoch).items()}

    def sw_any(self, epoch: int) -> set[int]:
        """Union of SW over all processors in ``epoch`` (Performance CICO's
        "will be written by *some* processor in the next epoch")."""
        out: set[int] = set()
        for acc in self._table.get(epoch, {}).values():
            out |= acc.sw
        return out

    def touched_later_by_other(self, epoch: int, node: int, addrs: set[int]) -> set[int]:
        """Subset of ``addrs`` that some processor other than ``node``
        touches in any epoch after ``epoch``.

        A check-in only pays off if another processor will want the block:
        it spares that processor a recall or an invalidation.  Flushing a
        block only its owner ever touches just forces the owner to re-fetch
        it.  The whole trace is available to Cachier, so this is ordinary
        dynamic information."""
        touches = self._touches
        if touches is None:
            touches = {}
            for ep, per_node in self._table.items():
                for nd, acc in per_node.items():
                    for addr in acc.s:
                        touches.setdefault(addr, []).append((ep, nd))
            self._touches = touches
        out: set[int] = set()
        for addr in addrs:
            for ep, nd in touches.get(addr, ()):
                if ep > epoch and nd != node:
                    out.add(addr)
                    break
        return out
