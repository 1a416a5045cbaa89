"""Event vocabulary and the publish/subscribe bus of the obs subsystem.

Everything the simulator can *see* flows through here: the machine publishes
access outcomes, directive issues, barrier crossings and lock hand-offs; the
protocol publishes its slow-path events (Dir1SW software traps, recalls);
the network publishes per-message traffic.  Consumers — the trace collector,
the metrics/timeline layer, the Chrome-trace recorder, ad-hoc test probes —
subscribe to the :class:`EventKind`\\ s they care about.

Access topics
-------------
Each shared reference is published once, as one :class:`AccessEvent`, on
the topic its outcome names (:func:`access_topic`): READ_HIT and WRITE_HIT
for a plain hit, PREFETCH_HIT for a hit on a line whose prefetch was in
flight, MISS for a read miss, a write miss or a write fault.  A consumer
subscribes to the outcomes it reads and is never called for the others —
above all not for the plain read hits that make up most references.
ACCESS is not published on: subscribing to it subscribes to all four
access topics, for a tap that wants every access, and ``ACCESS in
bus.subscribed`` says that such a tap is listening.

Cheap when enabled, free when disabled
--------------------------------------
Publishers test ``kind in bus.subscribed`` inline — a membership test on
the bus's live view of its subscribed kinds, with no call — and only
*then* build the event, so a run with no subscribers pays a few branch
instructions and nothing else.  Do not put work on the publishing side
that is not behind such a test.  Every event but :class:`BarrierEvent` is
an immutable :class:`~typing.NamedTuple` record, built positionally: one
tuple allocation per event, with no per-field ``__setattr__``.  The
hottest two — :class:`AccessEvent` and :class:`MessageEvent` — are built
as ``tuple.__new__(Type, (...))``, which
skips the NamedTuple's generated Python ``__new__`` (and its defaults:
such a call must pass every field, in order).  An event's ``kind`` is a
class attribute, except on :class:`LockEvent`, which serves three kinds
and carries ``kind`` as a field.  :class:`BarrierEvent`, one per epoch and
carrying dicts, is a frozen dataclass.

Timestamps are node virtual-time cycles.  ``t`` is the clock at which the
event *starts* (for spans, the duration is carried separately), so events
map directly onto Chrome trace-event ``ts``/``dur`` fields.

Transaction ids
---------------
Every slow-path coherence transaction — a demand miss, a write fault, an
explicit directive that performs an acquisition, a prefetch or check-in —
is assigned a machine-unique ``txn`` id by the protocol when it begins.
The :class:`TrapEvent`\\ s, :class:`RecallEvent`\\ s and
:class:`MessageEvent`\\ s raised *inside* the transaction carry that id, and
the transaction's outcome carries it on ``AccessResult.txn``, so the whole
causal chain (miss -> Dir1SW trap -> recall -> network messages ->
completion) is joinable after the fact.  ``txn == -1`` means "not part of
a slow-path transaction" (hits, flushes).  The Perfetto flow arrows of the
Chrome exporter are built on this join.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable, NamedTuple

from repro.coherence.messages import MessageKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (protocol imports us)
    from repro.coherence.protocol import AccessResult


class EventKind(enum.IntEnum):
    """Topics of the bus; subscribe to any subset."""

    ACCESS = enum.auto()  # subscribe-only: the four access topics below
    DIRECTIVE = enum.auto()  # one CICO directive issue (possibly many blocks)
    BARRIER = enum.auto()  # a barrier crossing / epoch boundary
    LOCK_ACQUIRE = enum.auto()  # lock granted (immediately or after a wait)
    LOCK_CONTEND = enum.auto()  # lock requested while held: node blocks
    LOCK_RELEASE = enum.auto()  # lock released
    TRAP = enum.auto()  # Dir1SW software trap (broadcast invalidation)
    RECALL = enum.auto()  # directory recalled an exclusive owner's copy
    MESSAGE = enum.auto()  # protocol network message(s)
    NODE_DONE = enum.auto()  # a node's kernel finished
    MISS = enum.auto()  # a read miss, write miss or write fault
    READ_HIT = enum.auto()  # a plain read hit
    WRITE_HIT = enum.auto()  # a plain write hit
    PREFETCH_HIT = enum.auto()  # a hit on a line whose prefetch was in flight


#: the topics an access is published on, one per outcome; subscribing to
#: ACCESS subscribes to all of them
ACCESS_TOPICS = (
    EventKind.READ_HIT, EventKind.WRITE_HIT, EventKind.PREFETCH_HIT,
    EventKind.MISS,
)


class AccessEvent(NamedTuple):
    """Outcome of one shared reference (the machine's EV_REF).

    Published once, on the topic :func:`access_topic` names; its ``kind``
    is ACCESS whatever the topic, so a tap on several topics tells an
    access from other events by ``kind`` and its outcome by ``result``.
    """

    node: int
    epoch: int
    addr: int
    pc: int
    write: bool
    t: int  # node clock when the access started
    result: "AccessResult"  # cycles / AccessKind / detail

    kind = EventKind.ACCESS


def access_topic(event: AccessEvent) -> EventKind:
    """The topic an access is published on, named by its outcome."""
    # imported here: the protocol imports this module
    from repro.coherence.protocol import AccessKind

    result = event.result
    if result.kind is not AccessKind.HIT:
        return EventKind.MISS
    if result.detail == "prefetched":
        return EventKind.PREFETCH_HIT
    return EventKind.WRITE_HIT if event.write else EventKind.READ_HIT


class DirectiveEvent(NamedTuple):
    """One CICO directive issue (check_out / check_in / prefetch).

    ``blockset`` carries the distinct block numbers the directive covered
    (sorted); ``blocks`` is kept as the count for cheap consumers.  The
    stall ledger needs the identities to audit annotation effectiveness
    (was a checked-out block ever re-referenced?).
    """

    node: int
    epoch: int
    dkind: int  # repro.machine.events.DIR_* code
    blocks: int  # distinct blocks the directive covered
    pc: int
    t: int
    cycles: int
    blockset: tuple[int, ...] = ()

    kind = EventKind.DIRECTIVE


@dataclass(frozen=True, slots=True)
class BarrierEvent:
    """All live nodes crossed a barrier; the epoch counter advances.

    ``node_clocks`` carries each waiter's arrival clock at the barrier —
    the raw material of straggler analysis: the epoch's length is the max
    over these, the per-node *slack* is ``vt - node_clocks[n]``, and the
    node with zero slack is the epoch's critical node.
    """

    kind: ClassVar[EventKind] = EventKind.BARRIER
    epoch: int  # the epoch that just ended
    vt: int  # virtual time of the crossing (max waiter clock)
    node_pcs: dict[int, int]
    resume: int  # clock the released nodes restart from
    node_clocks: dict[int, int] = field(default_factory=dict)


class LockEvent(NamedTuple):
    """A lock acquire / contend / release.

    ``wait`` is nonzero only on an acquire that followed a contend: the
    cycles the node spent blocked in the lock queue.
    """

    kind: EventKind  # LOCK_ACQUIRE | LOCK_CONTEND | LOCK_RELEASE
    node: int
    addr: int
    pc: int
    t: int
    wait: int = 0


class TrapEvent(NamedTuple):
    """Dir1SW software trap: broadcast invalidation of ``copies`` sharers.

    ``holders`` names the nodes whose copies the broadcast killed, so the
    trace exporter can draw flow arrows from the trapping access to every
    invalidated node's track.
    """

    node: int  # the requester whose access trapped
    block: int
    copies: int  # sharers invalidated by the broadcast
    upgrade: bool  # True when raised on a write fault (S -> X)
    t: int = -1  # clock the enclosing transaction started
    txn: int = -1  # enclosing slow-path transaction id
    holders: tuple[int, ...] = ()  # nodes invalidated by the broadcast

    kind = EventKind.TRAP


class RecallEvent(NamedTuple):
    """The directory recalled the exclusive owner's copy for a requester."""

    node: int  # requester
    owner: int  # node that held the block RW
    block: int
    dirty: bool  # owner's copy was dirty (writeback on the recall path)
    exclusive: bool  # requester wanted an exclusive copy
    t: int = -1  # clock the enclosing transaction started
    txn: int = -1  # enclosing slow-path transaction id

    kind = EventKind.RECALL


class MessageEvent(NamedTuple):
    """``count`` protocol messages of one kind entered the network.

    ``node`` is the requester whose transaction sent the messages (the
    network context set by the protocol at operation start), ``epoch``/``t``
    place the traffic on the run's timeline, and ``txn`` joins it to the
    enclosing slow-path transaction (-1 outside one, e.g. barrier flushes).
    """

    msg: MessageKind
    count: int = 1
    node: int = -1
    epoch: int = 0
    t: int = 0
    txn: int = -1

    kind = EventKind.MESSAGE


class NodeDoneEvent(NamedTuple):
    """A node's kernel ran to completion."""

    node: int
    t: int

    kind = EventKind.NODE_DONE


Event = (
    AccessEvent
    | DirectiveEvent
    | BarrierEvent
    | LockEvent
    | TrapEvent
    | RecallEvent
    | MessageEvent
    | NodeDoneEvent
)

Handler = Callable[[object], None]


class EventBus:
    """Synchronous publish/subscribe dispatch keyed by :class:`EventKind`.

    Handlers run inline on the publishing (simulation) thread in
    subscription order; they must not mutate simulator state.  ``subscribe``
    returns a token for ``unsubscribe``.  ``subscribed`` is a live,
    read-only view of the kinds somebody listens to: hot publishers test
    ``kind in bus.subscribed`` inline and skip building the event when
    nobody is listening; (un)subscribing mid-run shows in the view at once.
    A subscription to ACCESS is one to every access topic as well (see the
    module doc), so a handler on ACCESS and MISS still gets a miss once.
    """

    __slots__ = ("_subs", "_seq", "_next_token", "subscribed")

    def __init__(self) -> None:
        self._subs: dict[EventKind, dict[int, Handler]] = {}
        # per-kind delivery order, precomputed at (un)subscribe time so
        # publish does not re-tuple the handler dict on every event
        self._seq: dict[EventKind, tuple[Handler, ...]] = {}
        self._next_token = 0
        self.subscribed = self._subs.keys()

    # ------------------------------------------------------------- queries
    @property
    def active(self) -> bool:
        """True when at least one subscription exists."""
        return bool(self._subs)

    def subscribers(self, kind: EventKind) -> int:
        return len(self._subs.get(kind, ()))

    # -------------------------------------------------------- subscription
    def subscribe(
        self, kinds: Iterable[EventKind] | None, handler: Handler
    ) -> int:
        """Register ``handler`` for ``kinds`` (None = every kind).

        Returns an opaque token accepted by :meth:`unsubscribe`.
        """
        token = self._next_token
        self._next_token += 1
        for kind in EventKind if kinds is None else kinds:
            kind = EventKind(kind)
            topics = (kind,)
            if kind is EventKind.ACCESS:
                topics += ACCESS_TOPICS
            for topic in topics:
                self._subs.setdefault(topic, {})[token] = handler
                self._seq[topic] = tuple(self._subs[topic].values())
        return token

    def unsubscribe(self, token: int) -> None:
        """Remove every subscription registered under ``token``."""
        for kind in list(self._subs):
            handlers = self._subs[kind]
            if handlers.pop(token, None) is None:
                continue
            if handlers:
                self._seq[kind] = tuple(handlers.values())
            else:
                del self._subs[kind]
                del self._seq[kind]

    # ----------------------------------------------------------- publishing
    def publish(self, event, kind: EventKind | None = None) -> None:
        """Deliver ``event`` to every subscriber of ``kind``, in order.

        ``kind`` defaults to the event's own; an :class:`AccessEvent`
        goes on its outcome's topic.  The machine names the topic itself
        (from the shared HIT result a plain hit returns and the write
        flag), which saves the string test :func:`access_topic` makes.
        """
        if kind is None:
            kind = event.kind
            if kind is EventKind.ACCESS:
                kind = access_topic(event)
        for handler in self._seq.get(kind, ()):
            handler(event)
