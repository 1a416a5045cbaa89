"""Constant-latency interconnect with traffic accounting.

The Wisconsin Wind Tunnel modelled the network as a constant-latency,
contention-free interconnect (100 cycles per message in the configuration the
CICO papers used); we default to the same.  What the CICO annotations change
is *how many* protocol messages are sent and *how many* of them sit on an
access's critical path — both are counted here.

Message context
---------------
Every ``send`` happens inside some protocol operation; the protocol calls
:meth:`Network.begin` at the start of each one to stamp the context — the
requesting ``node``, the operation's start clock ``t`` and its transaction
id ``txn`` — onto the :class:`~repro.obs.events.MessageEvent`\\ s the sends
publish.  ``epoch`` is advanced by the machine at every barrier.  The
context is bookkeeping only; it never changes latencies or traffic counts.
It also keys the per-node counts (:meth:`Network.sent_by_node`) from which
the stall ledger books each epoch's messages per node, so that nobody has
to subscribe to MESSAGE for them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from collections import Counter
from dataclasses import dataclass, field

from repro.coherence.messages import MessageKind
from repro.obs.events import EventBus, EventKind, MessageEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector


@dataclass
class Network:
    """Contention-free interconnect: every hop costs ``hop_latency`` cycles."""

    hop_latency: int = 100
    bus: EventBus | None = None  # publishes per-message MessageEvents
    #: optional fault injector (repro.faults); consulted on every send so a
    #: seeded run replays the same fault tape with or without observers
    faults: "FaultInjector | None" = None
    # context of the protocol operation currently sending (see module doc)
    node: int = -1
    epoch: int = 0
    t: int = 0
    txn: int = -1
    #: node ids an operation may run for, 0 .. nodes - 1 (the protocol
    #: passes its node count)
    nodes: int = 0
    _traffic: Counter = field(default_factory=Counter)
    # messages per context node, a list so that a send costs one indexed
    # add; its last slot is node -1's (sends outside any operation)
    _by_node: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._by_node = [0] * (self.nodes + 1)

    def begin(self, node: int, t: int, txn: int = -1) -> None:
        """Stamp the context for the sends of one protocol operation."""
        if not 0 <= node < self.nodes:
            raise ValueError(
                f"node {node} is not one of the network's {self.nodes}")
        self.node = node
        self.t = t
        self.txn = txn

    def send(self, kind: MessageKind, count: int = 1) -> None:
        """Record ``count`` messages of ``kind`` (traffic accounting only).

        With a fault injector attached, messages may additionally be
        delayed, reordered (both land in the sender's barrier-deferred
        stall) or duplicated (the duplicates are accounted as extra traffic
        of the same kind and context).
        """
        faults = self.faults
        if faults is not None:
            count += faults.on_message(
                self.node, kind, count, self.hop_latency
            )
        self._traffic[kind] += count
        self._by_node[self.node] += count
        bus = self.bus
        if bus is not None and EventKind.MESSAGE in bus.subscribed:
            # tuple.__new__ skips the NamedTuple's generated Python __new__
            bus.publish(tuple.__new__(MessageEvent, (
                kind, count, self.node, self.epoch, self.t, self.txn,
            )))

    def hops(self, n: int) -> int:
        """Latency of ``n`` sequential message hops on the critical path."""
        return n * self.hop_latency

    @property
    def total_messages(self) -> int:
        return sum(self._traffic.values())

    def messages(self, kind: MessageKind) -> int:
        return self._traffic[kind]

    def traffic_by_kind(self) -> dict[MessageKind, int]:
        return dict(self._traffic)

    def sent_by_node(self) -> dict[int, int]:
        """Messages sent per context node (-1 before any operation), since
        the network was built or last :meth:`reset`.  Checkpoints do not
        carry these counts: a reader takes differences, starting where a
        run started or resumed."""
        *nodes, outside = self._by_node
        return {**dict(enumerate(nodes)), -1: outside}

    def reset(self) -> None:
        self._traffic.clear()
        self._by_node = [0] * (self.nodes + 1)

    # ----------------------------------------------------------- checkpoint
    def snapshot_traffic(self) -> dict[str, int]:
        """Traffic counters keyed by message-kind value (JSON-able)."""
        return {kind.value: count for kind, count in self._traffic.items()}

    def restore_traffic(self, traffic: dict[str, int]) -> None:
        self._traffic.clear()
        for kind, count in traffic.items():
            self._traffic[MessageKind(kind)] = int(count)
