"""The coherence invariants, defined once.

Pure predicates over a live protocol's caches and directory, shared by
every place that checks coherence:

* :class:`~repro.verify.InvariantChecker`, online on real runs — after
  each access or directive, and at every barrier;
* :class:`~repro.mc.model.ProtocolModel`, after every model-checker
  transition;
* :meth:`Dir1SWProtocol.invariant_check`, the protocol's self-check, which
  raises a finding as a :class:`~repro.errors.ProtocolError`.

There are two entry points.  :func:`check_state` checks a whole state at
rest; :func:`check_op` checks the post-condition of one operation.  Each
returns a :class:`Finding` (invariant name, message, node, block) or
``None``, and reads nothing but the state it is handed.

The invariant names, the same in every consumer:

``dir-cache-agreement``
    Every directory entry is well formed and agrees with the caches in
    both directions: each listed sharer holds the block in the entry's
    state, and each cached line is listed by its entry.  After a read the
    reader holds the block.
``swmr``
    Single writer, multiple readers.  After a write the writer holds the
    block EXCLUSIVE, the directory records it as the owner, and no other
    cache holds a copy; at rest, no EXCLUSIVE copy sits beside another.
``directive-postcondition``
    After ``check_out_S``/``check_out_X`` the issuer holds the block
    (EXCLUSIVE for X); after ``check_in`` it no longer does.  Prefetches
    are non-binding hints and have no post-condition.
``residency-count``
    At rest, the protocol's per-block residency count
    (``proto.residency``, kept by the caches) equals the number of caches
    holding each block.  The per-write SWMR check reads that count, so a
    count that drifts is a finding of its own.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cache.state import LineState
from repro.coherence.directory import DirState
from repro.errors import ProtocolError
from repro.verify.format import format_cache_line, format_dir_entry

__all__ = ["Finding", "check_op", "check_state"]


class Finding(NamedTuple):
    """One broken invariant: its name, what was wrong, and where."""

    invariant: str
    message: str
    node: int | None = None
    block: int | None = None


def check_state(proto) -> Finding | None:
    """The whole-state check: every directory entry well formed and
    agreeing with the caches in both directions, then no EXCLUSIVE copy
    beside another copy, then every residency count matching the lines
    the caches hold."""
    caches = proto.caches
    directory = proto.directory
    for block, entry in directory.entries().items():
        try:
            entry.check()
        except ProtocolError as exc:
            return Finding("dir-cache-agreement", str(exc), None, block)
        want = (
            LineState.EXCLUSIVE if entry.state is DirState.RW
            else LineState.SHARED
        )
        for holder in entry.sharers:
            line = caches[holder].lookup(block)
            if line is None:
                return Finding(
                    "dir-cache-agreement",
                    f"directory lists node {holder} for block {block} "
                    f"but its cache has no line",
                    holder, block,
                )
            if line.state is not want:
                return Finding(
                    "dir-cache-agreement",
                    f"block {block}: node {holder} line is {line.state}, "
                    f"directory says {entry.state}",
                    holder, block,
                )
    holders: dict[int, list[tuple[int, LineState]]] = {}
    for node, cache in enumerate(caches):
        for line in cache.lines():
            entry = directory.peek(line.block)
            if entry is None or node not in entry.sharers:
                return Finding(
                    "dir-cache-agreement",
                    f"node {node} caches block {line.block} unknown to "
                    f"directory",
                    node, line.block,
                )
            holders.setdefault(line.block, []).append((node, line.state))
    for block, held in holders.items():
        if len(held) > 1 and any(
            state is LineState.EXCLUSIVE for _, state in held
        ):
            nodes = sorted(node for node, _ in held)
            return Finding(
                "swmr",
                f"block {block} held EXCLUSIVE while nodes {nodes} all have "
                f"copies",
                nodes[0], block,
            )
    residency = proto.residency
    for block in (*holders, *residency):
        counted = residency.get(block, 0)
        held = len(holders.get(block, ()))
        if counted != held:
            return Finding(
                "residency-count",
                f"block {block} has a residency count of {counted} but "
                f"{held} cache(s) hold it",
                None, block,
            )
    return None


def check_op(
    proto, op: str, node: int, block: int, *, may_be_evicted: bool = False
) -> Finding | None:
    """The post-condition of ``node`` performing ``op`` on ``block``.

    ``op`` is one of ``read``, ``write``, ``check_out_S``, ``check_out_X``,
    ``check_in``, ``prefetch_S`` or ``prefetch_X``.  ``may_be_evicted``
    says that later operations may have evicted the block since ``op`` ran,
    as when a check-out covers a block set and is checked after its last
    block: a check-out then only requires a still-cached line to be in the
    right state.
    """
    line = proto.caches[node].lookup(block)
    if op == "write":
        if line is None or line.state is not LineState.EXCLUSIVE:
            return Finding(
                "swmr",
                f"after a write the writer must hold the block EXCLUSIVE, "
                f"found {format_cache_line(line)}",
                node, block,
            )
        entry = proto.directory.peek(block)
        if entry is None or entry.state is not DirState.RW or entry.ptr != node:
            return Finding(
                "swmr",
                f"after a write the directory must record the writer as "
                f"exclusive owner, found {format_dir_entry(entry)}",
                node, block,
            )
        # The writer holds the block (checked above), so a residency
        # count of one means no other copy; only a second holder needs
        # the caches walked, to name it.  A count that disagrees with
        # the caches is caught by check_state at the next barrier.
        if proto.residency.get(block, 0) == 1:
            return None
        for other, cache in enumerate(proto.caches):
            if other != node and cache.lookup(block) is not None:
                return Finding(
                    "swmr",
                    f"node {other} still holds a copy "
                    f"({format_cache_line(cache.lookup(block))}) of a block "
                    f"node {node} just wrote",
                    node, block,
                )
    elif op == "read":
        if line is None:
            return Finding(
                "dir-cache-agreement",
                "after a read the reader's cache must hold the block, "
                "found absent",
                node, block,
            )
    elif op in ("check_out_S", "check_out_X"):
        if line is None:
            if may_be_evicted:
                return None
            return Finding(
                "directive-postcondition",
                f"after {op} the issuer must hold the block, found absent",
                node, block,
            )
        if op == "check_out_X" and line.state is not LineState.EXCLUSIVE:
            return Finding(
                "directive-postcondition",
                f"after check_out_X the held line must be EXCLUSIVE, found "
                f"{format_cache_line(line)}",
                node, block,
            )
    elif op == "check_in":
        if line is not None:
            return Finding(
                "directive-postcondition",
                f"after check_in the issuer must no longer hold the block, "
                f"found {format_cache_line(line)}",
                node, block,
            )
    return None
