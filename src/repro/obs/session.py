"""Standard wiring: bus -> metrics -> timeline -> trace-event recording.

:class:`Observer` is the one-stop object the harness and CLIs use: it owns
an :class:`~repro.obs.events.EventBus`, populates a
:class:`~repro.obs.metrics.MetricsRegistry` from the simulator's events
(and its hit and message counts from the protocol's counters),
snapshots it per epoch into an :class:`~repro.obs.timeline.EpochTimeline`,
and, when asked to (``chrome=True``), records Chrome trace events — one
timeline track per node, epoch markers at every barrier, spans for misses,
directives and lock waits.  After the run, :meth:`Observer.finalize`
freezes everything into an :class:`Observation` and attaches it to the
:class:`RunResult`.

Observation never perturbs the simulation: handlers only read event fields,
so an observed run is cycle-for-cycle identical to an unobserved one (there
is a regression test for exactly that).

Track layout and flow arrows
----------------------------
Chrome spans use a process-per-node layout (``pid == tid == node``) plus a
synthetic "network" process (:data:`NETWORK_PID`), so Perfetto can order
node tracks numerically via ``process_sort_index`` metadata (emitted by
:func:`~repro.obs.export.chrome_trace`).  In chrome mode the observer also
draws one Perfetto flow chain per slow-path transaction id: the arrow
starts at the miss/directive span on the requester's track, steps through
the recall-service / invalidation spans it caused on *other* nodes'
tracks, and finishes at the transaction's message span on the network
track — the causal chain miss -> trap/recall -> messages made visible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.coherence.messages import MessageKind
from repro.coherence.protocol import AccessKind
from repro.errors import ObsError
from repro.machine.events import DIRECTIVE_NAMES
from repro.obs.events import (
    AccessEvent,
    BarrierEvent,
    DirectiveEvent,
    EventBus,
    EventKind,
    LockEvent,
    MessageEvent,
    NodeDoneEvent,
    RecallEvent,
    TrapEvent,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import EpochSample, EpochTimeline

#: Miss-latency buckets sized to the default cost model: hits (1), directive
#: overheads, 2-hop memory misses (~230), 4-hop recalls (~430), software
#: traps (500+), and a tail for contended/queued accesses.
MISS_LATENCY_BUCKETS = (1, 10, 50, 100, 230, 300, 430, 600, 1000, 2500, 10000)
#: Lock-wait buckets; bucket 1 absorbs uncontended acquires (wait == 0).
LOCK_WAIT_BUCKETS = (0, 10, 40, 100, 400, 1000, 4000, 20000)
#: Epoch-length buckets (cycles between consecutive barriers).
EPOCH_LENGTH_BUCKETS = (100, 1_000, 10_000, 100_000, 1_000_000, 10_000_000)
#: pid of the synthetic network track (far above any real node id).
NETWORK_PID = 1 << 20

_HIT = AccessKind.HIT


@dataclass
class Observation:
    """Frozen outcome of observing one run."""

    metrics: dict  # final cumulative MetricsRegistry.snapshot()
    timeline: list[EpochSample]
    #: Chrome trace events (without metadata); None when the run was
    #: observed without ``Observer(chrome=True)``
    trace_events: list[dict] | None
    num_nodes: int
    cycles: int
    epochs: int
    meta: dict = field(default_factory=dict)  # workload/variant/config info
    #: attribution report (repro.obs.attrib) when the run was profiled
    attrib: dict | None = None
    #: critical-path report (repro.obs.critpath) when requested
    critpath: dict | None = None

    def metric(self, name: str, default=0):
        return self.metrics.get(name, default)


class Observer:
    """Subscribe the standard instrumentation to an event bus.

    Parameters
    ----------
    bus, registry:
        Bring your own to share them across runs; fresh ones by default.
    chrome:
        Record Chrome trace events.  Opt-in: each span costs a dict that
        only a trace writer reads, so the callers that write a trace turn
        it on — ``repro-obs run``/``critpath --trace-out``,
        ``repro-obs bench --trace-dir``, ``cachier-annotate --trace-out``
        and the sweep pool's ``run`` task with an obs dir (``figure6
        --obs-dir`` and the service's figure6 job).
        Exporting an observation recorded without it raises
        :class:`~repro.errors.ObsError`.
    include_hits:
        With ``chrome``, also record cache *hits* as trace spans (an
        :class:`~repro.errors.ObsError` without it).  Off by default — hits
        are one cycle each and drown every other track.
    meta:
        Free-form run description copied into the Observation and exported
        manifests (workload name, variant, config, ...).
    profile:
        Report source-level attribution on ``Observation.attrib``.
    critpath:
        Report the per-epoch straggler / what-if analysis on
        ``Observation.critpath``.

    Either flag attaches one :class:`~repro.obs.attrib.StallLedger` when
    the run is bound (the harness calls :meth:`bind_run` with the program,
    the labelled-region table and the machine's protocol); both reports
    read it.  It keeps what only attribution reads (the check-out audit
    and the directives' per-array block counts) only for ``profile``.

    Who reads the hit topics (READ_HIT, WRITE_HIT, PREFETCH_HIT), the
    ones with an event per hit: the observer only with ``include_hits``
    (hit spans); its metrics and miss spans read MISS.  The ledger reads
    every access topic only with ``profile``, and only while a
    checked-out (node, block) pair is still unreferenced.
    ``accesses.hit``, ``messages`` and ``messages.<kind>`` come from the
    protocol bound by :meth:`bind_run` (``Dir1SWProtocol.hits()``,
    prefetched hits included, and its network's
    ``traffic_by_kind()``), read at every barrier before the timeline
    samples and at :meth:`finalize`; they count from the start of the
    run, or from the checkpoint a run resumed from (:meth:`resume`), as
    the miss counters do.  The observer reads MESSAGE only with
    ``chrome``, for the flow arrows.  An observer whose run was never
    bound to a protocol reports no hits and no messages.

    A shared bus and registry are safe across runs: :meth:`finalize`
    detaches the observer, and each run's counters add to what the
    registry held when its run was bound.
    """

    def __init__(
        self,
        bus: EventBus | None = None,
        registry: MetricsRegistry | None = None,
        chrome: bool = False,
        include_hits: bool = False,
        meta: dict | None = None,
        profile: bool = False,
        critpath: bool = False,
    ):
        if include_hits and not chrome:
            raise ObsError(
                "include_hits shapes the Chrome trace only: pass it with "
                "Observer(chrome=True)"
            )
        self.bus = bus if bus is not None else EventBus()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.include_hits = include_hits
        self.meta = dict(meta or {})
        self.trace_events: list[dict] = []
        self.observation: Observation | None = None  # set by finalize()
        self._chrome = chrome
        self._profile = profile
        self._critpath = critpath
        self.ledger = None  # StallLedger, set by bind_run
        self._tokens: list[int] = []
        # accesses.hit and the message counters are the protocol's counts
        # since resume(), on top of what the registry held then: hits are
        # _hits0 plus the hits since _proto_hits0, messages.<kind> is
        # _kinds0[kind] plus the kind's traffic since _traffic0
        self._protocol = None
        self._hits0 = 0
        self._proto_hits0 = 0
        self._messages0 = 0
        self._kinds0: dict[MessageKind, int] = {}
        self._traffic0: dict[MessageKind, int] = {}
        # chrome-mode flow bookkeeping: slow-path events by requesting node,
        # consumed by the enclosing access/directive span (the protocol
        # publishes them synchronously inside the operation)
        self._pend_coh: dict[int, list] = {}
        self._pend_msgs: dict[int, list[MessageEvent]] = {}

        reg = self.registry
        # Eagerly create the standard instruments so every snapshot carries
        # the full, stable key set (epoch deltas need aligned keys).
        self._c_access = {
            kind: reg.counter(f"accesses.{kind.value}") for kind in AccessKind
        }
        self._c_hits = self._c_access[_HIT]
        self._h_miss = reg.histogram("miss_latency", MISS_LATENCY_BUCKETS)
        self._c_directives = {
            code: reg.counter(f"directives.{name}")
            for code, name in DIRECTIVE_NAMES.items()
        }
        self._c_directive_blocks = reg.counter("directives.blocks")
        self._c_barriers = reg.counter("barriers")
        self._h_epoch = reg.histogram("epoch_length", EPOCH_LENGTH_BUCKETS)
        self._c_lock_acq = reg.counter("locks.acquired")
        self._c_lock_con = reg.counter("locks.contended")
        self._c_lock_rel = reg.counter("locks.released")
        self._h_lock_wait = reg.histogram("lock_wait", LOCK_WAIT_BUCKETS)
        self._c_traps = reg.counter("traps")
        self._c_trap_copies = reg.counter("traps.copies_invalidated")
        self._c_recalls = reg.counter("recalls")
        self._c_recalls_dirty = reg.counter("recalls.dirty")
        self._c_messages = reg.counter("messages")
        # messages.<kind> counters are created when a kind is first sent
        self._c_nodes_done = reg.counter("nodes_done")

        sub = self.bus.subscribe
        self._tokens += [
            sub((EventKind.MISS,), self._on_miss),
            sub((EventKind.DIRECTIVE,), self._on_directive),
            sub((EventKind.LOCK_ACQUIRE, EventKind.LOCK_CONTEND,
                 EventKind.LOCK_RELEASE), self._on_lock),
            sub((EventKind.TRAP,), self._on_trap),
            sub((EventKind.RECALL,), self._on_recall),
            sub((EventKind.NODE_DONE,), self._on_node_done),
            sub((EventKind.BARRIER,), self._on_barrier),
        ]
        if chrome:  # the flow arrows join each transaction's messages
            self._tokens.append(sub((EventKind.MESSAGE,), self._on_message))
        if include_hits:
            self._tokens.append(sub(
                (EventKind.READ_HIT, EventKind.WRITE_HIT,
                 EventKind.PREFETCH_HIT), self._record_access))
        # The timeline subscribes *after* the metric handlers so each epoch
        # sample includes the barrier that closed it.
        self.timeline = EpochTimeline(self.registry)
        self._tokens.append(self.timeline.attach(self.bus))

    # ------------------------------------------------------------- handlers
    def _on_miss(self, ev: AccessEvent) -> None:
        result = ev.result
        self._c_access[result.kind].inc()
        self._h_miss.observe(result.cycles)
        if self._chrome:
            self._record_access(ev)

    def _record_access(self, ev: AccessEvent) -> None:
        """One access's Chrome span, with the flows its slow path ran (a
        hit's, with ``include_hits``, or a miss's)."""
        result = ev.result
        args = {
            "addr": f"{ev.addr:#x}",
            "pc": ev.pc,
            "write": ev.write,
            "epoch": ev.epoch,
            "detail": result.detail,
        }
        if result.txn >= 0:
            args["txn"] = result.txn
        self.trace_events.append({
            "name": result.kind.value,
            "cat": "mem",
            "ph": "X",
            "ts": ev.t,
            "dur": result.cycles,
            "pid": ev.node,
            "tid": ev.node,
            "args": args,
        })
        self._emit_flows(ev.node, ev.t, result.cycles)

    def _on_directive(self, ev: DirectiveEvent) -> None:
        # directives are the busiest topic the observer reads: bump the
        # counters in place, as Counter.inc would
        self._c_directives[ev.dkind].value += 1
        self._c_directive_blocks.value += ev.blocks
        if self._chrome:
            self.trace_events.append({
                "name": DIRECTIVE_NAMES[ev.dkind],
                "cat": "cico",
                "ph": "X",
                "ts": ev.t,
                "dur": ev.cycles,
                "pid": ev.node,
                "tid": ev.node,
                "args": {"blocks": ev.blocks, "pc": ev.pc, "epoch": ev.epoch},
            })
            self._emit_flows(ev.node, ev.t, ev.cycles)

    def _on_barrier(self, ev: BarrierEvent) -> None:
        self._read_counts()  # before the timeline samples the registry
        self._c_barriers.inc()
        self._h_epoch.observe(ev.vt - (self.timeline._prev_vt))
        if self._chrome:
            self.trace_events.append({
                "name": f"barrier/epoch {ev.epoch}",
                "cat": "sync",
                "ph": "i",
                "ts": ev.vt,
                "pid": 0,
                "tid": 0,
                "s": "g",  # global scope: a marker across every node track
                "args": {"epoch": ev.epoch, "resume": ev.resume},
            })
            # Barrier-time flushes publish txn == -1 messages; nothing may
            # dangle into the next epoch.
            self._pend_coh.clear()
            self._pend_msgs.clear()

    def _on_lock(self, ev: LockEvent) -> None:
        if ev.kind is EventKind.LOCK_ACQUIRE:
            self._c_lock_acq.inc()
            self._h_lock_wait.observe(ev.wait)
            if self._chrome and ev.wait:
                self.trace_events.append({
                    "name": "lock wait",
                    "cat": "lock",
                    "ph": "X",
                    "ts": ev.t - ev.wait,
                    "dur": ev.wait,
                    "pid": ev.node,
                    "tid": ev.node,
                    "args": {"lock": f"{ev.addr:#x}", "pc": ev.pc},
                })
        elif ev.kind is EventKind.LOCK_CONTEND:
            self._c_lock_con.inc()
        else:
            self._c_lock_rel.inc()

    def _on_trap(self, ev: TrapEvent) -> None:
        self._c_traps.inc()
        self._c_trap_copies.inc(ev.copies)
        if self._chrome and ev.txn >= 0:
            self._pend_coh.setdefault(ev.node, []).append(ev)

    def _on_recall(self, ev: RecallEvent) -> None:
        self._c_recalls.inc()
        if ev.dirty:
            self._c_recalls_dirty.inc()
        if self._chrome and ev.txn >= 0:
            self._pend_coh.setdefault(ev.node, []).append(ev)

    def _on_message(self, ev: MessageEvent) -> None:
        # subscribed only with chrome; the counters come from the network
        if ev.txn >= 0:
            self._pend_msgs.setdefault(ev.node, []).append(ev)

    def _on_node_done(self, ev: NodeDoneEvent) -> None:
        self._c_nodes_done.inc()

    # --------------------------------------------------------- flow arrows
    def _emit_flows(self, node: int, ts: int, dur: int) -> None:
        """Draw one Perfetto flow chain per slow-path transaction consumed
        by the span just recorded at ``(node, ts, dur)``.

        The protocol publishes a transaction's trap/recall/message events
        synchronously *inside* the enclosing access or directive, so the
        pending queues hold exactly the chains this span caused.  Each chain
        is: flow start ``s`` on the requester span -> ``t`` steps on the
        recall-service / invalidation spans drawn on the other nodes'
        tracks -> finish ``f`` on the transaction's aggregated message span
        on the network track.
        """
        coh = self._pend_coh.pop(node, None)
        msgs = self._pend_msgs.pop(node, None)
        if not coh and not msgs:
            return
        chains: dict[int, list] = {}
        for ev in coh or ():
            chains.setdefault(ev.txn, [[], []])[0].append(ev)
        for ev in msgs or ():
            chains.setdefault(ev.txn, [[], []])[1].append(ev)
        append = self.trace_events.append
        for txn in sorted(chains):
            coh_evs, msg_evs = chains[txn]
            flow = {"name": "txn", "cat": "coh", "id": txn}
            append({**flow, "ph": "s", "ts": ts, "pid": node, "tid": node})
            for ev in coh_evs:
                if isinstance(ev, RecallEvent):
                    append({
                        "name": "recall service", "cat": "coh", "ph": "X",
                        "ts": ts, "dur": dur, "pid": ev.owner, "tid": ev.owner,
                        "args": {"block": ev.block, "dirty": ev.dirty,
                                 "exclusive": ev.exclusive, "txn": txn,
                                 "requester": node},
                    })
                    append({**flow, "ph": "t", "ts": ts,
                            "pid": ev.owner, "tid": ev.owner})
                else:  # TrapEvent: one invalidation span per killed copy
                    name = "inv (upgrade)" if ev.upgrade else "inv (sw trap)"
                    for holder in ev.holders:
                        append({
                            "name": name, "cat": "coh", "ph": "X",
                            "ts": ts, "dur": dur,
                            "pid": holder, "tid": holder,
                            "args": {"block": ev.block, "copies": ev.copies,
                                     "txn": txn, "requester": node},
                        })
                        append({**flow, "ph": "t", "ts": ts,
                                "pid": holder, "tid": holder})
            if msg_evs:
                total = sum(m.count for m in msg_evs)
                kinds: dict[str, int] = {}
                for m in msg_evs:
                    kinds[m.msg.value] = kinds.get(m.msg.value, 0) + m.count
                append({
                    "name": f"net x{total}", "cat": "net", "ph": "X",
                    "ts": ts, "dur": dur, "pid": NETWORK_PID, "tid": 0,
                    "args": {"txn": txn, "requester": node, **kinds},
                })
                append({**flow, "ph": "f", "bp": "e", "ts": ts,
                        "pid": NETWORK_PID, "tid": 0})
            else:
                append({**flow, "ph": "f", "bp": "e", "ts": ts,
                        "pid": node, "tid": node})

    # ------------------------------------------------------------ lifecycle
    def _read_counts(self) -> int:
        """Set ``accesses.hit``, ``messages`` and ``messages.<kind>`` from
        the protocol and its network; returns the run's hits."""
        proto = self._protocol
        if proto is None:
            return 0
        hits = proto.hits() - self._proto_hits0
        self._c_hits.value = self._hits0 + hits
        traffic0 = self._traffic0
        sent = 0
        for kind, count in proto.network.traffic_by_kind().items():
            count -= traffic0.get(kind, 0)
            if count:
                sent += count
                self.registry.counter(f"messages.{kind.value}").value = (
                    self._kinds0.get(kind, 0) + count)
        self._c_messages.value = self._messages0 + sent
        return hits

    def bind_run(
        self,
        program,
        labels,
        block_size: int = 32,
        params_fn=None,
        num_nodes: int = 0,
        protocol=None,
    ) -> None:
        """Give the observer the run's static context (called by the harness
        entry points before the machine starts).

        ``protocol`` is the machine's; ``accesses.hit`` is read from it.
        With ``profile`` or ``critpath`` this attaches the
        :class:`~repro.obs.attrib.StallLedger` joining the event stream with
        the labelled-region table, the program's line table and — for
        ``profile``, when the parameter environment is available — the
        symbolic footprint matcher of :mod:`repro.cachier.mapping`.
        """
        if protocol is not None:
            self._protocol = protocol
            self.resume()
        if not (self._profile or self._critpath) or self.ledger is not None:
            return
        from repro.obs.attrib import SourceMap, StallLedger

        env = None
        if self._profile and params_fn is not None and num_nodes > 0:
            from repro.cachier.mapping import ParamEnv

            env = ParamEnv(params_fn, num_nodes)
        self.ledger = StallLedger(
            labels=labels, block_size=block_size, source=SourceMap(program),
            env=env, attribution=self._profile,
            network=None if protocol is None else protocol.network,
        )
        self.ledger.attach(self.bus)

    def resume(self) -> None:
        """Count hits and messages from here on: call once the machine has
        restored the checkpoint a run resumes from (the runner does)."""
        if self.ledger is not None:
            self.ledger.resume()
        proto = self._protocol
        self._hits0 = self._c_hits.value
        self._proto_hits0 = proto.hits()
        self._messages0 = self._c_messages.value
        self._traffic0 = proto.network.traffic_by_kind()
        get = self.registry.get
        self._kinds0 = {
            kind: counter.value for kind in MessageKind
            if (counter := get(f"messages.{kind.value}")) is not None
        }

    def detach(self) -> None:
        """Drop every subscription this observer and its ledger hold on
        the bus."""
        for token in self._tokens:
            self.bus.unsubscribe(token)
        self._tokens.clear()
        if self.ledger is not None:
            self.ledger.detach()

    def finalize(self, result) -> Observation:
        """Freeze the observation, attach it to ``result.obs`` and
        :meth:`detach`: a bus shared across runs feeds a finalized
        observer nothing more."""
        hits = self._read_counts()
        self.timeline.finalize(result.cycles)
        attrib = critpath = None
        if self.ledger is not None:
            from repro.obs.attrib import attribution_report
            from repro.obs.critpath import critpath_report

            self.ledger.finalize(result.cycles, hits)
            name = self.meta.get("name", "run")
            if self._profile:
                attrib = attribution_report(self.ledger, name=name)
            if self._critpath:
                critpath = critpath_report(self.ledger, name=name)
        obs = Observation(
            metrics=self.registry.snapshot(),
            timeline=list(self.timeline.samples),
            trace_events=list(self.trace_events) if self._chrome else None,
            num_nodes=len(result.per_node),
            cycles=result.cycles,
            epochs=result.epochs,
            meta=dict(self.meta),
            attrib=attrib,
            critpath=critpath,
        )
        self.observation = obs
        result.obs = obs
        self.detach()
        return obs
