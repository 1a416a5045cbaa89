"""The simulated multiprocessor.

:class:`Machine` drives one generator ("kernel") per node, interleaving them
by per-node virtual time: at each step the ready node with the smallest clock
advances by one event.  This gives a deterministic but realistic interleaving
— cross-node races resolve in virtual-time order, the way they would on the
execution-driven WWT.

The ready heap holds one int per ready node, ``clock << bits | node`` with
``bits = (num_nodes - 1).bit_length()``: it pops the smallest clock first
and, on a tie, the lower node id — the order ``(clock, node)`` tuples give,
without building a tuple per step.  A node's compute cycles are charged
before its action, and the action is deferred behind the heap only when the
new clock is strictly past the smallest ready clock (``heap[0] < clock <<
bits``): an equal clock acts at once, whatever the node ids.  A node is in
the heap at most once, and only while it is ready; a barrier release, a
lock hand-off and a checkpoint resume push it back with the same encoding.

Responsibilities:

* charge compute cycles and memory-system latencies to node clocks,
* resolve plain cache hits in the step loop (the rule is
  :meth:`Dir1SWProtocol.hit_path`'s) and run the Dir1SW protocol for every
  other shared reference and every CICO directive,
* implement barrier synchronisation (the paper's program model, Fig. 2:
  epochs are the intervals between barriers) and the per-barrier epoch
  counter / virtual-time stamps,
* implement simple queued locks,
* publish every observable event — access outcomes, directives, barrier
  crossings, lock traffic, node completion — on an
  :class:`~repro.obs.events.EventBus` (Section 3.3's trace collector is one
  subscriber; so are the metrics/timeline/Chrome-trace layers of
  ``repro.obs``).  Each access is published once, on the topic its outcome
  names; the step loop picks the topic only when somebody subscribes, so
  an unobserved run pays nothing for it.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

from repro.cache.state import LineState
from repro.cache.stats import CacheStats
from repro.coherence.messages import MessageKind
from repro.coherence.protocol import AccessKind, Dir1SWProtocol
from repro.errors import BarrierError, CheckpointError, MachineError, WatchdogError
from repro.machine.config import MachineConfig
from repro.machine.events import (
    DIR_CHECK_IN,
    DIR_CHECK_OUT_S,
    DIR_CHECK_OUT_X,
    DIR_PREFETCH_S,
    DIR_PREFETCH_X,
    EV_BARRIER,
    EV_DIRECTIVE,
    EV_LOCK,
    EV_REF,
    EV_UNLOCK,
)
from repro.obs.events import (
    AccessEvent,
    BarrierEvent,
    DirectiveEvent,
    EventBus,
    EventKind,
    LockEvent,
    NodeDoneEvent,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults import FaultInjector
    from repro.obs.session import Observation

#: snapshot format version written by :meth:`Machine.snapshot`
SNAPSHOT_VERSION = 1


@dataclass
class RunResult:
    """Outcome of one program execution."""

    cycles: int  # max node virtual time at completion
    epochs: int  # number of barrier crossings
    stats: CacheStats  # machine-wide totals
    per_node: list[CacheStats]
    traffic: dict[MessageKind, int]
    sw_traps: int
    recalls: int
    extra: dict = field(default_factory=dict)
    #: attached by Observer.finalize when the run was observed
    obs: "Observation | None" = None

    @property
    def total_messages(self) -> int:
        return sum(self.traffic.values())

    def epoch_times(self) -> list[int]:
        """Cycles spent in each epoch (deltas of the barrier virtual times,
        plus the final epoch up to program completion)."""
        vts = self.extra.get("barrier_vts", [])
        out = []
        prev = 0
        for vt in vts:
            out.append(vt - prev)
            prev = vt
        if self.cycles > prev:
            out.append(self.cycles - prev)
        return out


Kernel = Iterator[tuple]
KernelFactory = Callable[[int], Kernel]


@dataclass(slots=True)
class _NodeState:
    kernel: Kernel
    clock: int = 0
    at_barrier: bool = False
    barrier_pc: int = -1
    waiting_lock: int | None = None
    done: bool = False
    pending: tuple | None = None  # action deferred until its clock is minimal
    last_pc: int = -1  # pc of the most recent event (watchdog diagnostics)


class Machine:
    def __init__(self, config: MachineConfig, *, flush_at_barrier: bool = False,
                 bus: EventBus | None = None,
                 faults: "FaultInjector | None" = None):
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        if config.protocol == "fullmap":
            from repro.coherence.fullmap import FullMapProtocol

            protocol_cls = FullMapProtocol
        else:
            protocol_cls = Dir1SWProtocol
        self.protocol = protocol_cls(
            num_nodes=config.num_nodes,
            cache_size=config.cache_size,
            block_size=config.block_size,
            assoc=config.assoc,
            cost=config.cost,
            bus=self.bus,
            faults=faults,
        )
        self.faults = faults
        self.flush_at_barrier = flush_at_barrier
        self.epoch = 0
        self._block_shift = config.block_size.bit_length() - 1
        # ready-heap keys are ``clock << _id_bits | node``
        self._id_bits = (config.num_nodes - 1).bit_length()
        self._lock_holders: dict[int, int] = {}  # lock addr -> node
        # lock addr -> FIFO of (node, pc, enqueue clock)
        self._lock_queues: dict[int, deque[tuple[int, int, int]]] = {}
        self._barrier_vts: list[int] = []  # virtual time at each barrier
        self._nodes: list[_NodeState] = []  # populated by run()

    # ------------------------------------------------------------------ run
    def run(
        self,
        kernel_factory: KernelFactory,
        *,
        checkpoint: Callable[[dict], None] | None = None,
        resume_from: dict | None = None,
        on_resume: Callable[[], None] | None = None,
    ) -> RunResult:
        """Execute ``kernel_factory(node_id)`` on every node to completion.

        ``checkpoint``, if given, is called with :meth:`snapshot` after every
        barrier release.  ``resume_from`` fast-forwards a fresh machine to a
        previously snapshotted barrier (see :meth:`restore`) before the main
        loop starts; ``on_resume`` fires once after the fast-forward, letting
        the caller restore ambient state (e.g. shared-store values) that the
        machine itself does not own.
        """
        cfg = self.config
        nodes = [_NodeState(kernel=kernel_factory(i)) for i in range(cfg.num_nodes)]
        self._nodes = nodes
        bits = self._id_bits
        if resume_from is not None:
            self.restore(nodes, resume_from)
            if on_resume is not None:
                on_resume()
            live = sum(1 for n in nodes if not n.done)
            heap = [n.clock << bits | i for i, n in enumerate(nodes)
                    if not n.done]
        else:
            live = cfg.num_nodes
            heap = list(range(cfg.num_nodes))  # every clock is 0
        heapq.heapify(heap)
        barrier_waiters: list[int] = []
        # per-run constants, hoisted out of the step loop
        id_mask = (1 << bits) - 1
        # the watchdog fires on a key past every key of clock max_cycles
        max_key = (math.inf if cfg.max_cycles is None
                   else cfg.max_cycles << bits | id_mask)
        bus = self.bus
        subscribed = bus.subscribed
        publish = bus.publish
        faults = self.faults
        compute_cycles = cfg.cost.compute_cycles
        shift = self._block_shift
        read = self.protocol.read
        write = self.protocol.write
        # the hit rule's inputs, taken after restore() (which rebinds them)
        sets, set_mask, node_stats, proto_stats, pending, hit = (
            self.protocol.hit_path())
        heappop = heapq.heappop
        heappushpop = heapq.heappushpop
        heapreplace = heapq.heapreplace
        READ_HIT = EventKind.READ_HIT
        WRITE_HIT = EventKind.WRITE_HIT
        PREFETCH_HIT = EventKind.PREFETCH_HIT
        MISS = EventKind.MISS
        HIT = AccessKind.HIT
        EXCLUSIVE = LineState.EXCLUSIVE
        # hot events skip the NamedTuple's generated Python __new__
        new = tuple.__new__

        # Each step ends by fetching the next key.  A node that stays
        # ready goes back in with heappushpop, which returns exactly the
        # key that push-then-pop would, so the interleaving is unchanged;
        # a node that leaves the heap (done, at a barrier, waiting on a
        # lock) is followed by a plain pop.
        key = heappop(heap) if heap else None
        while key is not None:
            nid = key & id_mask
            state = nodes[nid]
            if key > max_key:
                raise WatchdogError(
                    f"node {nid} passed {cfg.max_cycles} cycles (last pc "
                    f"{state.last_pc}); workload livelocked or max_cycles "
                    f"too low for this run",
                    node=nid,
                    pc=state.last_pc,
                )
            event = state.pending
            if event is not None:
                state.pending = None
            else:
                try:
                    event = next(state.kernel)
                except StopIteration:
                    if faults is not None:
                        state.clock += faults.final_stall(nid)
                    state.done = True
                    live -= 1
                    if EventKind.NODE_DONE in subscribed:
                        publish(NodeDoneEvent(nid, state.clock))
                    if barrier_waiters and live == len(barrier_waiters):
                        raise BarrierError(
                            f"deadlock: node {nid} finished while nodes "
                            f"{sorted(barrier_waiters)} wait at a barrier"
                        ) from None
                    key = heappop(heap) if heap else None
                    continue
                # Charge the event's compute cycles first; if that pushes this
                # node past another ready node, defer the *action* so that
                # cross-node ordering reflects the virtual time of the action
                # itself, not of the preceding computation.  Only a clock
                # strictly past the smallest ready clock defers: an equal
                # clock acts now, whatever the two node ids.
                compute = event[1]
                if compute:
                    clock = state.clock + compute * compute_cycles
                    state.clock = clock
                    if heap and heap[0] < clock << bits:
                        state.pending = event
                        key = heapreplace(heap, clock << bits | nid)
                        continue

            code = event[0]
            state.last_pc = event[-1]  # every kernel event ends with its pc
            if code == EV_REF:
                _, _compute, addr, is_write, pc = event
                if addr >= 0:
                    started = state.clock
                    block = addr >> shift
                    # A plain hit (see Dir1SWProtocol.hit_path) is resolved
                    # here, as the protocol would; the rest go through it.
                    cset = sets[nid][block & set_mask]
                    line = cset.get(block)
                    if (line is not None
                            and (not is_write or line.state is EXCLUSIVE)
                            and block not in pending[nid]):
                        cset.move_to_end(block)
                        if is_write:
                            line.dirty = True
                            proto_stats.write_hits += 1
                        node_stats[nid].hits += 1
                        result = hit
                    elif is_write:
                        result = write(nid, block, started)
                    else:
                        result = read(nid, block, started)
                    state.clock = started + result.cycles
                    if subscribed:
                        # one event per access, on its outcome's topic
                        # (the shared HIT result is a plain hit's, whoever
                        # resolved it)
                        if result is hit:
                            topic = WRITE_HIT if is_write else READ_HIT
                        elif result.kind is HIT:
                            topic = PREFETCH_HIT
                        else:
                            topic = MISS
                        if topic in subscribed:
                            publish(new(AccessEvent, (
                                nid, self.epoch, addr, pc, is_write, started,
                                result,
                            )), topic)

            elif code == EV_BARRIER:
                _, _compute, pc = event
                if faults is not None:
                    # All fault latency owed by this node lands here, at the
                    # barrier — never mid-epoch — so the intra-epoch
                    # interleaving stays identical to the fault-free run.
                    state.clock += faults.barrier_stall(nid)
                state.at_barrier = True
                state.barrier_pc = pc
                barrier_waiters.append(nid)
                if len(barrier_waiters) == live:
                    self._release_barrier(nodes, barrier_waiters, heap)
                    barrier_waiters = []
                    if checkpoint is not None:
                        checkpoint(self.snapshot())
                # else: node stays off the heap until the barrier opens
                key = heappop(heap) if heap else None
                continue

            elif code == EV_DIRECTIVE:
                _, _compute, kind, addrs, pc = event
                started = state.clock
                blocks = tuple(sorted({a >> shift for a in addrs if a >= 0}))
                cycles = self._issue_directive(nid, kind, blocks, started)
                state.clock += cycles
                if EventKind.DIRECTIVE in subscribed:
                    publish(DirectiveEvent(
                        nid, self.epoch, kind, len(blocks), pc, started,
                        cycles, blocks,
                    ))

            elif code == EV_LOCK:
                _, _compute, addr, pc = event
                holder = self._lock_holders.get(addr)
                if holder is not None:
                    state.waiting_lock = addr
                    self._lock_queues.setdefault(addr, deque()).append(
                        (nid, pc, state.clock)
                    )
                    if EventKind.LOCK_CONTEND in subscribed:
                        publish(LockEvent(
                            EventKind.LOCK_CONTEND, nid, addr, pc, state.clock,
                        ))
                    # off the heap until the lock is granted
                    key = heappop(heap) if heap else None
                    continue
                self._lock_holders[addr] = nid
                started = state.clock
                state.clock += cfg.lock_cycles
                if EventKind.LOCK_ACQUIRE in subscribed:
                    publish(LockEvent(
                        EventKind.LOCK_ACQUIRE, nid, addr, pc, started,
                    ))

            elif code == EV_UNLOCK:
                _, _compute, addr, pc = event
                if self._lock_holders.get(addr) != nid:
                    raise MachineError(
                        f"node {nid} unlocked {addr:#x} it does not hold"
                    )
                del self._lock_holders[addr]
                if EventKind.LOCK_RELEASE in subscribed:
                    publish(LockEvent(
                        EventKind.LOCK_RELEASE, nid, addr, pc, state.clock,
                    ))
                queue = self._lock_queues.get(addr)
                if queue:
                    waiter, wpc, enqueued = queue.popleft()
                    wstate = nodes[waiter]
                    wstate.waiting_lock = None
                    granted = max(wstate.clock, state.clock)
                    wstate.clock = granted + cfg.lock_cycles
                    self._lock_holders[addr] = waiter
                    if EventKind.LOCK_ACQUIRE in subscribed:
                        publish(LockEvent(
                            EventKind.LOCK_ACQUIRE, waiter, addr, wpc, granted,
                            granted - enqueued,
                        ))
                    heapq.heappush(heap, wstate.clock << bits | waiter)

            else:
                raise MachineError(f"unknown kernel event {event!r}")
            key = heappushpop(heap, state.clock << bits | nid)

        if barrier_waiters:
            raise BarrierError(
                f"program ended with nodes {sorted(barrier_waiters)} at a barrier"
            )
        if self._lock_holders:
            raise MachineError(f"program ended holding locks {self._lock_holders}")

        cycles = max((n.clock for n in nodes), default=0)
        totals = self.protocol.totals()
        return RunResult(
            cycles=cycles,
            epochs=self.epoch,
            stats=totals,
            per_node=self.protocol.stats,
            traffic=self.protocol.network.traffic_by_kind(),
            sw_traps=self.protocol.proto_stats.sw_traps,
            recalls=self.protocol.proto_stats.recalls,
            extra={"barrier_vts": list(self._barrier_vts)},
        )

    # ---------------------------------------------------------------- internals
    def _release_barrier(
        self, nodes: list[_NodeState], waiters: list[int], heap: list
    ) -> None:
        vt = max(nodes[nid].clock for nid in waiters)
        self._barrier_vts.append(vt)
        resume = vt + self.config.cost.barrier_cycles
        if EventKind.BARRIER in self.bus.subscribed:
            self.bus.publish(BarrierEvent(
                epoch=self.epoch, vt=vt,
                node_pcs={nid: nodes[nid].barrier_pc for nid in waiters},
                resume=resume,
                node_clocks={nid: nodes[nid].clock for nid in waiters},
            ))
        if self.flush_at_barrier:
            for nid in waiters:
                self.protocol.flush_node(nid, now=vt)
        self.epoch += 1
        self.protocol.set_epoch(self.epoch)
        bits = self._id_bits
        for nid in waiters:
            nodes[nid].at_barrier = False
            nodes[nid].clock = resume
            heapq.heappush(heap, resume << bits | nid)

    def _issue_directive(self, node: int, kind: int, blocks, now: int) -> int:
        """Issue one protocol operation per block of the sorted distinct
        ``blocks``; return cycles."""
        proto = self.protocol
        cycles = 0
        if kind == DIR_CHECK_IN:
            for block in blocks:
                cycles += proto.check_in(node, block, now + cycles)
            return cycles
        if kind == DIR_CHECK_OUT_S or kind == DIR_CHECK_OUT_X:
            op = proto.check_out
        elif kind == DIR_PREFETCH_S or kind == DIR_PREFETCH_X:
            op = proto.prefetch
        else:
            raise MachineError(f"unknown directive kind {kind}")
        exclusive = kind == DIR_CHECK_OUT_X or kind == DIR_PREFETCH_X
        for block in blocks:
            cycles += op(node, block, exclusive, now + cycles)
        return cycles

    # ------------------------------------------------------------ checkpoint
    def snapshot(self) -> dict:
        """The machine's full state at a just-released barrier (JSON-able).

        Only barrier instants are snapshot-able: every node's clock is the
        common resume time, no protocol operation is in flight, and the
        kernels are at a program point the resume path can fast-forward to
        deterministically.  Refuses to snapshot while locks are held (a lock
        spanning a barrier would need queue state the fast-forward replay
        cannot reconstruct).
        """
        if not self._nodes:
            raise CheckpointError("snapshot() is only valid during run()")
        if self._lock_holders:
            raise CheckpointError(
                f"cannot checkpoint while locks are held: "
                f"{sorted(self._lock_holders)}"
            )
        nodes = self._nodes
        faults = self.faults
        return {
            "version": SNAPSHOT_VERSION,
            "num_nodes": self.config.num_nodes,
            "flush_at_barrier": self.flush_at_barrier,
            "epoch": self.epoch,
            "barrier_vts": list(self._barrier_vts),
            "node_clocks": [n.clock for n in nodes],
            "done": [i for i, n in enumerate(nodes) if n.done],
            "barrier_pcs": {
                str(i): n.barrier_pc for i, n in enumerate(nodes) if not n.done
            },
            "protocol": self.protocol.snapshot_state(),
            "faults": None if faults is None else faults.snapshot_state(),
        }

    def restore(self, nodes: list[_NodeState], snap: dict) -> None:
        """Fast-forward fresh kernels to the snapshot's barrier and restore
        all architectural state.

        Kernels are Python generators and cannot be serialised, so resume
        re-runs them *epoch-synchronously*: for each checkpointed epoch, each
        node's kernel is drained to its next barrier (in node-id order), its
        events discarded — shared-store writes re-execute as side effects of
        generation, which is what keeps later epochs' control flow honest.
        Architectural state (caches, directory, stats, traffic, fault tape)
        is then restored from the snapshot verbatim, and the replayed barrier
        pcs are checked against the checkpoint: any divergence (changed
        workload, nondeterministic kernel) raises
        :class:`~repro.errors.CheckpointError` rather than silently
        continuing a corrupted run.
        """
        cfg = self.config
        if snap.get("version") != SNAPSHOT_VERSION:
            raise CheckpointError(
                f"unsupported snapshot version {snap.get('version')!r} "
                f"(this build writes {SNAPSHOT_VERSION})"
            )
        if snap.get("num_nodes") != cfg.num_nodes:
            raise CheckpointError(
                f"snapshot is for {snap.get('num_nodes')} nodes, machine has "
                f"{cfg.num_nodes}"
            )
        if bool(snap.get("flush_at_barrier")) != self.flush_at_barrier:
            raise CheckpointError(
                "snapshot and machine disagree on flush_at_barrier "
                "(trace-mode vs timing-mode runs cannot resume each other)"
            )
        fstate = snap.get("faults")
        if (fstate is None) != (self.faults is None):
            raise CheckpointError(
                "snapshot and machine disagree on fault injection; resume "
                "with the same --faults seed the checkpointed run used"
            )
        target_epoch = int(snap["epoch"])
        done_set = {int(i) for i in snap.get("done", ())}
        finished: set[int] = set()
        last_barrier_pc = [-1] * cfg.num_nodes
        for _epoch in range(target_epoch):
            for nid, state in enumerate(nodes):
                if nid in finished:
                    continue
                while True:  # drain this node to its next barrier
                    try:
                        event = next(state.kernel)
                    except StopIteration:
                        finished.add(nid)
                        break
                    if event[0] == EV_BARRIER:
                        last_barrier_pc[nid] = event[-1]
                        break
        if finished != done_set:
            raise CheckpointError(
                f"replay divergence: nodes {sorted(finished)} finished during "
                f"fast-forward but the checkpoint records {sorted(done_set)} "
                f"done at epoch {target_epoch}"
            )
        for key, pc in (snap.get("barrier_pcs") or {}).items():
            nid = int(key)
            if last_barrier_pc[nid] != int(pc):
                raise CheckpointError(
                    f"replay divergence at node {nid}: reached barrier pc "
                    f"{last_barrier_pc[nid]} but the checkpoint records pc "
                    f"{pc} at epoch {target_epoch}"
                )
        node_clocks = snap["node_clocks"]
        for nid, state in enumerate(nodes):
            state.clock = int(node_clocks[nid])
            state.done = nid in done_set
            state.at_barrier = False
            state.barrier_pc = last_barrier_pc[nid]
        self.protocol.restore_state(snap["protocol"])
        self.epoch = target_epoch
        self.protocol.set_epoch(target_epoch)
        if fstate is not None:
            self.faults.restore_state(fstate)
        self._barrier_vts = list(snap["barrier_vts"])
