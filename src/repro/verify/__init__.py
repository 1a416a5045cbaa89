"""Online coherence invariant checker (the robustness counterpart of obs).

:class:`InvariantChecker` subscribes to a run's
:class:`~repro.obs.events.EventBus` and checks, *while the run executes*,
that the simulated machine never leaves its legal envelope:

* **coherence** — the invariants of :mod:`repro.verify.invariants`, the
  one definition the model checker and the protocol's self-check share:
  each write leaves the writer with the only copy (SWMR), each read miss
  and each directive leaves its post-condition, and at every barrier the
  directory's sharer sets, counts and states match what the caches hold
  (a full bidirectional scan plus a cache-side exclusive-copy scan);
* **CICO discipline** — under Performance CICO a checked-in block should not
  be touched again before a new check-out, and an explicit check-out should
  be balanced by a check-in before the epoch's barrier.  Violations are
  *performance* bugs, not correctness bugs (the paper's Performance policy
  makes annotations hints), so they are collected as warnings by default and
  only raise under ``strict_cico``;
* **barrier epoch consistency** — epochs arrive in order 0,1,2,..., virtual
  time is monotone, the resume clock is ``vt + barrier_cycles``, and every
  not-yet-finished node participates in every barrier;
* **event/metric conservation** — at finalize, the events the bus delivered
  must reconcile exactly with the run's counters: traps, recalls, messages,
  barriers, node completions, and each access topic the checker reads
  (write hits, prefetched hits, misses) with the protocol's count of that
  outcome.  A mismatch means an event was dropped or double-counted
  somewhere between the protocol and the bus.

The checker reads the access topics where a check can fail and nothing
else: a plain read hit changes no coherence state, so it neither needs a
check nor gets an event.  Its count in the report comes from the protocol
(``CacheStats.hits`` less ``ProtocolStats.write_hits``).

Failures raise :class:`~repro.errors.VerifyError` carrying the node, epoch
and block involved plus the recent event chain — per-node ring buffers
joined with the slow-path transaction ids of PR 3 — so a violation names
the history that led to it, not just the instant it was noticed.

The checker reads the protocol's state as ground truth but never mutates
it, and costs nothing when not subscribed (publishers test the bus's
``subscribed`` view before building an event).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.cache.state import LineState
from repro.coherence.directory import DirState
from repro.errors import VerifyError
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIRECTIVE_NAMES,
)
from repro.obs.events import EventBus, EventKind
from repro.verify.invariants import Finding, check_op, check_state

__all__ = ["InvariantChecker", "VerifyReport"]

_OUT = "out"
_IN = "in"
_EXCLUSIVE = LineState.EXCLUSIVE
_RW = DirState.RW

#: events each node's ring buffer keeps as a VerifyError's evidence chain
CHAIN_DEPTH = 24


# ------------------------------------------------------- lazy event records
#
# The evidence-chain ring buffers are written on *every* bus event but read
# only when a violation is raised — which is never, on a healthy run.  So
# the hot path stores the events themselves (immutable records, safe to
# retain) and the formatting below runs only inside ``_chain``.  This is
# most of what makes always-on ``--verify`` affordable.

def _fmt_access(ev, shift: int) -> str:
    result = ev.result
    text = (
        f"t={ev.t} node={ev.node} {'WRITE' if ev.write else 'READ'} "
        f"addr={ev.addr:#x} block={ev.addr >> shift} pc={ev.pc} "
        f"-> {result.kind.value}"
    )
    if result.detail:
        text += f"/{result.detail}"
    if result.txn >= 0:
        text += f" txn={result.txn}"
    return text


def _fmt_lock(ev) -> str:
    return f"t={ev.t} node={ev.node} {ev.kind.name} addr={ev.addr:#x}"


_RECORD_FORMATS = {
    EventKind.TRAP: lambda ev: (
        f"t={ev.t} node={ev.node} TRAP block={ev.block} "
        f"copies={ev.copies} txn={ev.txn}"
    ),
    EventKind.RECALL: lambda ev: (
        f"t={ev.t} node={ev.node} RECALL block={ev.block} "
        f"owner={ev.owner} txn={ev.txn}"
    ),
    EventKind.MESSAGE: lambda ev: (
        f"t={ev.t} node={ev.node} MSG {ev.msg.value} "
        f"x{ev.count} txn={ev.txn}"
    ),
    EventKind.NODE_DONE: lambda ev: f"t={ev.t} node={ev.node} DONE",
    EventKind.LOCK_ACQUIRE: _fmt_lock,
    EventKind.LOCK_CONTEND: _fmt_lock,
    EventKind.LOCK_RELEASE: _fmt_lock,
    EventKind.DIRECTIVE: lambda ev: (
        f"t={ev.t} node={ev.node} DIRECTIVE {_directive_name(ev.dkind)} "
        f"blocks={list(ev.blockset)} pc={ev.pc}"
    ),
}


def _directive_name(dkind: int) -> str:
    return DIRECTIVE_NAMES.get(dkind, str(dkind))


def _format_record(ev, shift: int) -> str:
    if ev.kind is EventKind.ACCESS:
        return _fmt_access(ev, shift)
    return _RECORD_FORMATS[ev.kind](ev)


def _record_txn(ev) -> int:
    """The slow-path transaction a logged event belongs to (cold path)."""
    if ev.kind is EventKind.ACCESS:
        return ev.result.txn
    return getattr(ev, "txn", -1)


@dataclass
class VerifyReport:
    """Outcome of one checked run (JSON-able via :meth:`as_dict`)."""

    label: str = ""
    ok: bool = True
    error: str | None = None
    #: how many of each check actually executed (a clean report with zero
    #: checks means the checker was never wired up — treat as suspicious)
    checks: dict[str, int] = field(default_factory=dict)
    #: events seen on the bus, by kind
    events: dict[str, int] = field(default_factory=dict)
    #: CICO discipline findings (warnings unless strict_cico)
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "ok": self.ok,
            "error": self.error,
            "checks": dict(self.checks),
            "events": dict(self.events),
            "warnings": list(self.warnings),
        }


class InvariantChecker:
    """Subscribe me to a machine's bus *before* the run starts.

    ``finalize(result)`` must be called with the finished
    :class:`~repro.machine.machine.RunResult` to run the conservation
    checks and obtain the :class:`VerifyReport`.
    """

    def __init__(
        self,
        protocol,
        *,
        strict_cico: bool = False,
        label: str = "",
    ):
        self.protocol = protocol
        self.strict_cico = strict_cico
        self.label = label
        self._shift = protocol.block_size.bit_length() - 1
        # what a write hit's SWMR check reads: the writer's set, the
        # directory entries and the residency count
        self._sets, self._set_mask, *_ = protocol.hit_path()
        self._entries = protocol.directory.entries()
        self._residency = protocol.residency
        n = protocol.num_nodes
        # CICO discipline state, reset at every barrier: block -> _OUT | _IN
        self._cico: list[dict[int, str]] = [{} for _ in range(n)]
        self._done: set[int] = set()
        self._epoch = 0
        self._last_vt = 0
        # recent-event ring buffers: per node, plus one global bounded log
        # of txn-tagged records (filtered by txn id on failure — a flat
        # deque append is far cheaper per event than per-txn dict upkeep)
        self._recent: list[deque] = [deque(maxlen=CHAIN_DEPTH) for _ in range(n)]
        self._txn_log: deque = deque(maxlen=16 * CHAIN_DEPTH)
        # event counts (VerifyReport.events), plain ints: the access and
        # message handlers bump them on every event.  Each access count
        # starts from the protocol's count at the resume point (zero on a
        # fresh run); _read_hits0 is the plain read hits there.
        self._write_hits = 0
        self._prefetch_hits = 0
        self._misses = 0
        self._write_hits0 = 0
        self._prefetch_hits0 = 0
        self._misses0 = 0
        self._read_hits0 = 0
        self._traps = 0
        self._recalls = 0
        self._messages = 0
        self._barriers = 0
        self._directives = 0
        self._node_done = 0
        # checks run (VerifyReport.checks)
        self._swmr = 0
        self._agreement = 0
        self._cico_checks = 0
        self._epoch_checks = 0
        self._conservation = 0
        self.warnings: list[str] = []
        self._tokens: list[int] = []
        self._bus: EventBus | None = None

    # -------------------------------------------------------------- wiring
    def subscribe(self, bus: EventBus) -> None:
        """Listen until :meth:`detach` to every event kind but READ_HIT.

        Each access topic read — WRITE_HIT, PREFETCH_HIT, MISS — and
        MESSAGE get a handler of their own that skips the dispatch chain.
        READ_HIT is left out (see the module doc), so the machine builds
        no event for a plain read hit unless somebody else reads them.
        """
        own = (EventKind.ACCESS, EventKind.READ_HIT, EventKind.WRITE_HIT,
               EventKind.PREFETCH_HIT, EventKind.MISS, EventKind.MESSAGE)
        rest = [kind for kind in EventKind if kind not in own]
        self._bus = bus
        self._tokens += [
            bus.subscribe((EventKind.WRITE_HIT,), self._on_write_hit),
            bus.subscribe((EventKind.PREFETCH_HIT,), self._on_prefetch_hit),
            bus.subscribe((EventKind.MISS,), self._on_miss),
            bus.subscribe((EventKind.MESSAGE,), self._on_message),
            bus.subscribe(rest, self._handle),
        ]

    def detach(self) -> None:
        """Drop every subscription :meth:`subscribe` made, so a bus that
        outlives the run (one a caller shares across runs) stops feeding
        this checker."""
        for token in self._tokens:
            self._bus.unsubscribe(token)
        self._tokens.clear()

    def resume(self, snapshot: dict) -> None:
        """Continue checking a run resumed from barrier ``snapshot``.

        Call after the machine restored it (the protocol is then the
        ground truth of the resume point).  The epoch, the last barrier's
        virtual time and the finished nodes come from the snapshot; the
        conservation counters start from the restored protocol's totals,
        so conservation covers exactly the events published after the
        resume point.  ``accesses`` and ``directives`` count only those.
        """
        proto = self.protocol
        stats = proto.proto_stats
        self._epoch = int(snapshot["epoch"])
        vts = snapshot["barrier_vts"]
        self._last_vt = int(vts[-1]) if vts else 0
        self._done = {int(node) for node in snapshot["done"]}
        self._traps = stats.sw_traps
        self._recalls = stats.recalls
        self._messages = proto.network.total_messages
        self._barriers = self._epoch
        self._node_done = len(self._done)
        self._write_hits = self._write_hits0 = stats.write_hits
        self._prefetch_hits = self._prefetch_hits0 = stats.prefetch_hits
        self._misses = self._misses0 = stats.demand_misses
        self._read_hits0 = self._read_hits()

    def _read_hits(self) -> int:
        """Plain read hits so far, by the protocol's count."""
        proto = self.protocol
        return proto.totals().hits - proto.proto_stats.write_hits

    def _on_message(self, event) -> None:
        # One call per protocol message — second-hottest path.  Count for
        # conservation, log for txn evidence.
        self._messages += event.count
        if event.txn >= 0:
            self._txn_log.append(event)

    def _handle(self, event) -> None:
        kind = event.kind
        if kind is EventKind.DIRECTIVE:
            self._on_directive(event)
        elif kind is EventKind.BARRIER:
            self._on_barrier(event)
        elif kind is EventKind.TRAP:
            self._traps += 1
            self._remember(event.node, event.txn, event)
        elif kind is EventKind.RECALL:
            self._recalls += 1
            self._remember(event.node, event.txn, event)
        elif kind is EventKind.NODE_DONE:
            self._node_done += 1
            self._done.add(event.node)
            self._remember(event.node, -1, event)
        # lock events only feed the ring buffers
        elif kind in (EventKind.LOCK_ACQUIRE, EventKind.LOCK_CONTEND,
                      EventKind.LOCK_RELEASE):
            self._remember(event.node, -1, event)

    # ------------------------------------------------------- event history
    def _remember(self, node: int, txn: int, event) -> None:
        if 0 <= node < len(self._recent):
            self._recent[node].append(event)
        if txn >= 0:
            self._txn_log.append(event)

    def _chain(self, node: int | None, txn: int = -1) -> tuple[str, ...]:
        """The evidence attached to a VerifyError: the node's recent events
        plus, when the violation sits in a slow-path transaction, every
        recent event that transaction raised (possibly on other nodes).
        Records are rendered here, on failure — never on the hot path."""
        shift = self._shift
        chain: list[str] = []
        if node is not None and 0 <= node < len(self._recent):
            chain.extend(_format_record(ev, shift) for ev in self._recent[node])
        if txn >= 0:
            for ev in self._txn_log:
                if _record_txn(ev) != txn:
                    continue
                text = _format_record(ev, shift)
                if text not in chain:
                    chain.append(text)
        return tuple(chain)

    # ------------------------------------------------------------- access
    def _on_write_hit(self, ev) -> None:
        # The hottest handler (one per plain write hit).  SWMR, checked
        # inline from what it reads: the writer's line is EXCLUSIVE, the
        # directory records the writer as owner, and the residency count
        # says nobody else holds the block.  check_op decides (and words)
        # anything else, as for every other write.
        node, epoch, addr, _pc, _write, _t, result = ev
        self._write_hits += 1
        self._swmr += 1
        self._recent[node].append(ev)
        block = addr >> self._shift
        line = self._sets[node][block & self._set_mask].get(block)
        entry = self._entries.get(block)
        if (line is None or line.state is not _EXCLUSIVE or entry is None
                or entry.state is not _RW or entry.ptr != node
                or self._residency.get(block) != 1):
            finding = check_op(self.protocol, "write", node, block)
            if finding is not None:
                self._fail(finding, epoch, result.txn)

    def _on_prefetch_hit(self, ev) -> None:
        # A read of a prefetched line only consumed its arrival; a write
        # claims SWMR like any other.
        self._prefetch_hits += 1
        self._remember_access(ev)
        if ev.write:
            self._check_op(ev, "write")
        self._check_cico(ev)

    def _on_miss(self, ev) -> None:
        # The slow path installed the line, so every miss is checked.
        self._misses += 1
        self._remember_access(ev)
        self._check_op(ev, "write" if ev.write else "read")
        self._check_cico(ev)

    def _remember_access(self, ev) -> None:
        self._recent[ev.node].append(ev)
        if ev.result.txn >= 0:
            self._txn_log.append(ev)

    def _check_op(self, ev, op: str) -> None:
        if op == "write":
            self._swmr += 1
        finding = check_op(self.protocol, op, ev.node, ev.addr >> self._shift)
        if finding is not None:
            self._fail(finding, ev.epoch, ev.result.txn)

    def _check_cico(self, ev) -> None:
        """Performance-CICO discipline: touching a block this node
        explicitly checked in earlier means a premature check-in.  A
        check-in drops the node's line, so its next reference to the block
        is a miss or, after a prefetch, a prefetched hit — never a plain
        hit, which is why plain hits need no lookup."""
        node = ev.node
        marks = self._cico[node]
        block = ev.addr >> self._shift
        if marks and marks.get(block) == _IN:
            self._cico_checks += 1
            self._cico_finding(
                f"node {node} accessed block {block} (pc {ev.pc}) "
                f"after checking it in — premature check-in",
                node=node, epoch=ev.epoch, block=block, txn=ev.result.txn,
            )
            del marks[block]  # the access implicitly re-checked it out

    def _fail(self, finding: Finding, epoch: int, txn: int = -1) -> None:
        raise VerifyError(
            finding.invariant, finding.message,
            node=finding.node, epoch=epoch, block=finding.block,
            chain=self._chain(finding.node, txn),
        )

    # ---------------------------------------------------------- directives
    def _on_directive(self, ev) -> None:
        self._directives += 1
        self._remember(ev.node, -1, ev)
        if ev.dkind in (DIR_CHECK_OUT_S, DIR_CHECK_OUT_X):
            mark = _OUT
        elif ev.dkind == DIR_CHECK_IN:
            mark = _IN
        else:
            return  # prefetches are non-binding hints: no post-condition
        name = _directive_name(ev.dkind)
        marks = self._cico[ev.node]
        for block in ev.blockset:
            marks[block] = mark
            # The machine publishes a directive after its whole block set,
            # so a later block may have evicted an earlier one.
            finding = check_op(
                self.protocol, name, ev.node, block, may_be_evicted=True
            )
            if finding is not None:
                self._fail(finding, ev.epoch)

    def _cico_finding(self, message, *, node, epoch, block, txn=-1) -> None:
        if self.strict_cico:
            raise VerifyError(
                "cico-discipline", message,
                node=node, epoch=epoch, block=block,
                chain=self._chain(node, txn),
            )
        self.warnings.append(f"epoch {epoch}: {message}")

    # -------------------------------------------------------------- barrier
    def _on_barrier(self, ev) -> None:
        self._barriers += 1
        self._epoch_checks += 1
        if ev.epoch != self._epoch:
            raise VerifyError(
                "epoch-consistency",
                f"barrier carries epoch {ev.epoch}, expected {self._epoch}",
                epoch=ev.epoch, chain=self._chain(None),
            )
        if ev.vt < self._last_vt:
            raise VerifyError(
                "epoch-consistency",
                f"barrier virtual time went backwards: {ev.vt} after "
                f"{self._last_vt}",
                epoch=ev.epoch,
            )
        expected_resume = ev.vt + self.protocol.cost.barrier_cycles
        if ev.resume != expected_resume:
            raise VerifyError(
                "epoch-consistency",
                f"barrier resume clock is {ev.resume}, expected vt + "
                f"barrier_cycles = {expected_resume}",
                epoch=ev.epoch,
            )
        if ev.node_clocks and max(ev.node_clocks.values()) != ev.vt:
            raise VerifyError(
                "epoch-consistency",
                f"barrier vt {ev.vt} is not the max waiter clock "
                f"{max(ev.node_clocks.values())}",
                epoch=ev.epoch,
            )
        expected_waiters = set(range(self.protocol.num_nodes)) - self._done
        if set(ev.node_pcs) != expected_waiters:
            missing = sorted(expected_waiters - set(ev.node_pcs))
            raise VerifyError(
                "epoch-consistency",
                f"nodes {missing} did not participate in the barrier",
                epoch=ev.epoch,
                node=missing[0] if missing else None,
            )
        self._last_vt = ev.vt
        self._epoch = ev.epoch + 1
        self._scan_state(ev.epoch)
        # Performance CICO: explicit check-outs should be balanced by a
        # check-in before the barrier (Section 4.1's whole point — keeping
        # the sharer counter low is what dodges the Dir1SW trap).
        for node, marks in enumerate(self._cico):
            for block, mark in marks.items():
                if mark == _OUT:
                    self._cico_checks += 1
                    self._cico_finding(
                        f"node {node} checked out block {block} but never "
                        f"checked it in before the barrier",
                        node=node, epoch=ev.epoch, block=block,
                    )
            marks.clear()

    def _scan_state(self, epoch: int) -> None:
        """The whole-state check: directory/cache cross-check + SWMR scan."""
        self._agreement += 1
        self._swmr += 1
        finding = check_state(self.protocol)
        if finding is not None:
            self._fail(finding, epoch)

    # ------------------------------------------------------------- finalize
    def finalize(self, result) -> VerifyReport:
        """Conservation checks against the finished run's counters."""
        self._conservation += 1
        stats = self.protocol.proto_stats
        pairs = (
            ("software traps", self._traps, result.sw_traps),
            ("recalls", self._recalls, result.recalls),
            ("network messages", self._messages, result.total_messages),
            ("barriers", self._barriers, result.epochs),
            ("node completions", self._node_done, self.protocol.num_nodes),
            ("write hits", self._write_hits, stats.write_hits),
            ("prefetched hits", self._prefetch_hits, stats.prefetch_hits),
            ("misses", self._misses, stats.demand_misses),
        )
        for what, observed, counted in pairs:
            if observed != counted:
                raise VerifyError(
                    "conservation",
                    f"bus delivered {observed} {what} but the run counted "
                    f"{counted} — an event was dropped or double-counted",
                )
        return self.report()

    def report(self) -> VerifyReport:
        read_hits = self._read_hits()
        accesses = (
            read_hits - self._read_hits0
            + self._write_hits - self._write_hits0
            + self._prefetch_hits - self._prefetch_hits0
            + self._misses - self._misses0
        )
        return VerifyReport(
            label=self.label,
            ok=True,
            checks={
                "swmr": self._swmr,
                "dir-cache-agreement": self._agreement,
                "cico-discipline": self._cico_checks,
                "epoch-consistency": self._epoch_checks,
                "conservation": self._conservation,
            },
            events={
                "accesses": accesses,
                "hits": read_hits + self._write_hits,
                "traps": self._traps,
                "recalls": self._recalls,
                "messages": self._messages,
                "barriers": self._barriers,
                "directives": self._directives,
                "node_done": self._node_done,
            },
            warnings=list(self.warnings),
        )

    def failure_report(self, exc: VerifyError) -> VerifyReport:
        rep = self.report()
        rep.ok = False
        rep.error = str(exc)
        return rep
