"""Finite, set-associative, LRU shared-data cache.

The evaluation machine (Section 6) uses a 256 KB, 4-way set-associative cache
with 32-byte blocks per node; this class models exactly that geometry
(any power-of-two geometry is accepted).  Replacement is LRU within a set.

The cache stores *state only* — data values live in the functional backing
store owned by the machine — so lookups and insertions are cheap dict
operations, which matters because every shared reference of every simulated
node passes through here.

Caches may share a *residency count*: a dict mapping each block to the
number of those caches holding it (blocks held nowhere have no key).  Each
cache updates it wherever a line enters or leaves — :meth:`insert` and its
eviction, :meth:`invalidate`, :meth:`flush_all`, :meth:`restore_lines` —
so "how many caches hold block b" is one lookup.  A protocol hands its
caches one shared dict; the per-write SWMR check reads it.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.cache.state import CacheLine, LineState
from repro.errors import CacheConfigError
from repro.mem.address import check_power_of_two


class SetAssociativeCache:
    """LRU set-associative cache over block numbers."""

    def __init__(self, size_bytes: int, block_size: int, assoc: int,
                 residency: dict[int, int] | None = None):
        check_power_of_two(size_bytes, "size_bytes")
        check_power_of_two(block_size, "block_size")
        if assoc <= 0:
            raise CacheConfigError(f"associativity must be positive, got {assoc}")
        if size_bytes < block_size * assoc:
            raise CacheConfigError(
                f"cache of {size_bytes}B cannot hold one set of "
                f"{assoc} x {block_size}B blocks"
            )
        self.size_bytes = size_bytes
        self.block_size = block_size
        self.assoc = assoc
        self.num_sets = size_bytes // (block_size * assoc)
        check_power_of_two(self.num_sets, "number of sets")
        self._mask = self.num_sets - 1
        #: One OrderedDict per set: block -> CacheLine, LRU order = insertion
        #: order with move_to_end on touch.  Read-only outside this class;
        #: ``block in sets[set_index(block)]`` is the cheapest residency test.
        self.sets: list[OrderedDict[int, CacheLine]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        #: block -> caches holding it, shared with the caches it was
        #: handed to (see the module doc); read-only outside this class
        self.residency: dict[int, int] = {} if residency is None else residency

    # -- geometry ------------------------------------------------------------
    def set_index(self, block: int) -> int:
        return block & self._mask

    @property
    def capacity_blocks(self) -> int:
        return self.num_sets * self.assoc

    # -- lookups ---------------------------------------------------------------
    def lookup(self, block: int) -> CacheLine | None:
        """Return the resident line for ``block`` (no LRU update)."""
        return self.sets[block & self._mask].get(block)

    def touch(self, block: int) -> CacheLine | None:
        """Lookup and mark most-recently-used."""
        cset = self.sets[block & self._mask]
        line = cset.get(block)
        if line is not None:
            cset.move_to_end(block)
        return line

    def __contains__(self, block: int) -> bool:
        return block in self.sets[self.set_index(block)]

    def __len__(self) -> int:
        return sum(len(s) for s in self.sets)

    def lines(self) -> list[CacheLine]:
        """All resident lines (unspecified order)."""
        return [line for cset in self.sets for line in cset.values()]

    # -- mutation ------------------------------------------------------------
    def insert(self, block: int, state: LineState, dirty: bool = False) -> CacheLine | None:
        """Insert ``block``; return the victim line if one was evicted.

        Inserting a block that is already resident replaces its state in
        place (used for upgrades) and evicts nothing.
        """
        cset = self.sets[self.set_index(block)]
        existing = cset.get(block)
        if existing is not None:
            existing.state = state
            existing.dirty = dirty
            cset.move_to_end(block)
            return None
        victim: CacheLine | None = None
        if len(cset) >= self.assoc:
            _, victim = cset.popitem(last=False)  # least recently used
            self._left(victim.block)
        cset[block] = CacheLine(block=block, state=state, dirty=dirty)
        residency = self.residency
        residency[block] = residency.get(block, 0) + 1
        return victim

    def _left(self, block: int) -> None:
        """Count one copy of ``block`` out of the residency count."""
        residency = self.residency
        held = residency[block] - 1
        if held:
            residency[block] = held
        else:
            del residency[block]

    def invalidate(self, block: int) -> CacheLine | None:
        """Remove ``block`` if resident; return the removed line."""
        line = self.sets[self.set_index(block)].pop(block, None)
        if line is not None:
            self._left(block)
        return line

    def downgrade(self, block: int) -> bool:
        """EXCLUSIVE -> SHARED; return whether the line was dirty."""
        line = self.lookup(block)
        if line is None or line.state is not LineState.EXCLUSIVE:
            return False
        was_dirty = line.dirty
        line.state = LineState.SHARED
        line.dirty = False
        return was_dirty

    def snapshot_lines(self) -> list[tuple[int, str, bool]]:
        """Resident lines as ``(block, state, dirty)`` tuples, per-set LRU
        order (least recently used first), for barrier checkpoints."""
        return [
            (line.block, line.state.value, line.dirty)
            for cset in self.sets
            for line in cset.values()
        ]

    def restore_lines(self, lines: list[tuple[int, str, bool]]) -> None:
        """Rebuild residency from :meth:`snapshot_lines` output.  Inserting
        in snapshot order reproduces the per-set LRU order exactly."""
        self.flush_all()
        for block, state, dirty in lines:
            self.insert(int(block), LineState(state), bool(dirty))

    def flush_all(self) -> list[CacheLine]:
        """Invalidate everything; return the flushed lines (for writebacks).

        Trace mode flushes every node's shared cache at each barrier
        (Section 3.3) so that each epoch's first touches appear as misses.
        """
        flushed = [line for cset in self.sets for line in cset.values()]
        for cset in self.sets:
            cset.clear()
        for line in flushed:
            self._left(line.block)
        return flushed
