"""Data-race and false-sharing detection (the DRFS / FS functions).

Section 4: *"A potential data race exists if two or more processors access
the same address within the same epoch and at least one access is a write.
False sharing results from two or more processors accessing different
addresses in the same cache block."*

Because the trace keeps no ordering inside an epoch, any such overlap is a
*potential* race — exactly what Cachier reports and what forces the
conservative check-out/check-in-immediately placement.

Classification happens over the *raw* element addresses the trace recorded,
but the resulting sets name cache-block base addresses, matching the block
granularity of the annotation equations (a raced element contends for its
whole block, and check-out/check-in operate on blocks anyway).

For false sharing we additionally require (by default) that at least one
access to the block is a write: read-only blocks never ping-pong, so
flagging them would add annotations with no communication behind them.  Pass
``require_write=False`` for the paper's literal definition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cachier.epochs import EpochTable, raw_access


@dataclass
class DrfsInfo:
    """Per-epoch DRFS classification (block-base granularity)."""

    races: set[int] = field(default_factory=set)  # blocks with a data race
    false_shared: set[int] = field(default_factory=set)  # blocks with FS
    race_nodes: dict[int, set[int]] = field(default_factory=dict)
    #: raw racing element addresses per block (for the report)
    race_addrs: dict[int, set[int]] = field(default_factory=dict)
    #: raw falsely-shared element addresses per block (for the report)
    fs_addrs: dict[int, set[int]] = field(default_factory=dict)

    @property
    def drfs_addrs(self) -> set[int]:
        return self.races | self.false_shared

    # The DRFS / FS set functions of Section 4.1.
    def drfs(self, addrs: set[int]) -> set[int]:
        return addrs & self.drfs_addrs

    def not_drfs(self, addrs: set[int]) -> set[int]:
        return addrs - self.drfs_addrs

    def fs(self, addrs: set[int]) -> set[int]:
        return addrs & self.false_shared

    def not_fs(self, addrs: set[int]) -> set[int]:
        return addrs - self.false_shared


def detect_drfs(
    table: EpochTable,
    epoch: int,
    *,
    require_write: bool = True,
) -> DrfsInfo:
    """Classify epoch ``epoch``'s blocks.

    Most blocks are touched by one node alone, which can neither race nor
    falsely share; only the others are classified per raw address.  False
    sharing compares an address's nodes with those of the block's *other*
    addresses.  Every raw address has at least one node, so with two or
    more addresses those others are never empty, and they follow from
    per-node address counts: an address is falsely shared unless every
    node touching the block touches it and each of those nodes also
    touches another address of the block.
    """
    info = DrfsInfo()
    for base, records in table.blocks_in(epoch).items():
        if len(records) == 1 or len({rec.node for rec in records}) == 1:
            continue
        any_write = False
        counts: dict[int, int] = {}
        touched: list[tuple[int, set[int]]] = []
        for addr, raw in raw_access(records).items():
            nodes = raw.nodes
            touched.append((addr, nodes))
            if raw.writers:
                any_write = True
                # Data race: one raw address, >= 2 nodes, >= 1 writer.
                if len(nodes) >= 2:
                    info.races.add(base)
                    info.race_nodes.setdefault(base, set()).update(nodes)
                    info.race_addrs.setdefault(base, set()).add(addr)
            for node in nodes:
                counts[node] = counts.get(node, 0) + 1
        # False sharing: different raw addresses of one block touched by
        # different nodes.
        if len(touched) < 2 or (require_write and not any_write):
            continue
        flagged = {
            addr for addr, nodes in touched
            if len(nodes) < len(counts)
            or any(counts[node] == 1 for node in nodes)
        }
        if flagged:
            info.false_shared.add(base)
            info.fs_addrs.setdefault(base, set()).update(flagged)
    return info


def detect_all(
    table: EpochTable, *, require_write: bool = True
) -> dict[int, DrfsInfo]:
    return {
        epoch: detect_drfs(table, epoch, require_write=require_write)
        for epoch in range(table.num_epochs)
    }
