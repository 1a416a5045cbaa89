"""Causal critical-path analysis: per-epoch stragglers and what-if ranking.

On a barrier-synchronized machine an epoch's length is the *max* over the
nodes' arrival times, so raw miss counts are the wrong signal for ranking
annotation sites: a thousand misses on a node with slack cost nothing, while
one recall on the straggler's path lengthens the whole run.  This module
turns the obs event stream into exactly that causal view:

* :class:`CriticalPathAnalyzer` subscribes ``MISS`` / ``DIRECTIVE`` /
  ``LOCK_ACQUIRE`` / ``TRAP`` / ``RECALL`` / ``MESSAGE`` / ``BARRIER`` /
  ``NODE_DONE`` and, per epoch, identifies the **critical node** (the
  barrier's last arrival), computes every node's **slack** (how long it
  idled at the barrier), and decomposes the critical node's epoch into
  barrier overhead + coherence/lock stall spans + compute.  Stall spans are
  attributed to data structure x source line x cause through the same
  labelled-region join the attribution profiler uses, and each span carries
  the slow-path transaction id (txn) that links it to its trap / recall /
  message events.
* Conservation is exact by construction: for every epoch,
  ``barrier_overhead + stall_cycles + compute_cycles == cycles`` and the
  per-epoch ``cycles`` match :meth:`RunResult.epoch_times`.
* :func:`what_if_ranking` ranks candidate check-out/check-in sites by the
  epoch time a directive there could actually buy: the site's stall cycles
  *on the critical path*, capped per epoch by the runner-up node's slack
  (shrinking the straggler below the runner-up just moves the crown).
  :func:`miss_ranking` gives the naive all-nodes miss-count ranking for
  comparison — the two disagreeing is the whole point.
* :func:`render_critpath` renders the ``repro-obs critpath`` tables.

Like the rest of ``repro.obs``, the analyzer is read-only: an observed run
is cycle-for-cycle identical to an unobserved one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.events import (
    BarrierEvent,
    DirectiveEvent,
    EventBus,
    EventKind,
    LockEvent,
    MessageEvent,
    MissEvent,
    NodeDoneEvent,
    RecallEvent,
    TrapEvent,
)
from repro.obs.metrics import Histogram

CRITPATH_VERSION = 1

#: bucket for addresses outside every labelled region
UNLABELLED = "<unlabelled>"

#: per-epoch slack buckets (cycles a node idles at the barrier)
SLACK_BUCKETS = (0, 100, 1_000, 10_000, 100_000, 1_000_000)

#: stall causes a CICO check-out/check-in could remove (the others —
#: "directive" issue overhead and "lock" waits — are not coherence misses)
COHERENCE_CAUSES = frozenset(
    {"memory", "recall", "inv1", "trap", "upgrade_fast", "inv_multicast"}
)


@dataclass(slots=True)
class _Site:
    """Aggregated stall at one (array, pc, cause) on one node's path."""

    cycles: int = 0
    count: int = 0
    traps: int = 0
    recalls: int = 0


@dataclass
class _EpochState:
    """Per-epoch scratch, reset at every barrier."""

    #: node -> (array, pc, cause) -> _Site
    spans: dict[int, dict[tuple[str, int, str], _Site]] = field(
        default_factory=dict
    )
    #: node -> messages sent by that node's transactions this epoch
    messages: dict[int, int] = field(default_factory=dict)
    #: txn -> (#traps, #recalls) waiting for their enclosing span
    chains: dict[int, list] = field(default_factory=dict)


class CriticalPathAnalyzer:
    """Fold the event stream into per-epoch critical-path records.

    Parameters
    ----------
    labels:
        Optional labelled-region table (``SharedStore.labels``); without it
        every stall lands in the :data:`UNLABELLED` bucket.
    block_size:
        Block size of the simulated machine.
    source:
        Optional :class:`~repro.obs.attrib.SourceMap` for pc -> line joins
        and barrier epoch labels.
    """

    def __init__(self, labels=None, block_size: int = 32, source=None):
        self.labels = labels
        self.block_size = block_size
        self._shift = block_size.bit_length() - 1
        self.source = source
        self.slack_hist = Histogram("epoch_slack", SLACK_BUCKETS)
        self.records: list[dict] = []
        self._state = _EpochState()
        self._epoch = 0
        self._prev_vt = 0  # end of the previous epoch (epoch_times origin)
        self._start = 0  # clock the nodes resumed from (active start)
        self._done: dict[int, int] = {}  # node -> completion clock
        #: (array, pc) -> miss count over ALL nodes (the naive ranking)
        self._site_misses: dict[tuple[str, int], int] = {}
        self._block_names: dict[int, str] = {}
        self._tokens: list[int] = []
        self._finalized = False

    # ------------------------------------------------------------ wiring
    def attach(self, bus: EventBus) -> list[int]:
        """Subscribe to ``bus``; returns the subscription tokens."""
        sub = bus.subscribe
        self._tokens = [
            sub((EventKind.MISS,), self._on_miss),
            sub((EventKind.DIRECTIVE,), self._on_directive),
            sub((EventKind.LOCK_ACQUIRE,), self._on_lock),
            sub((EventKind.TRAP, EventKind.RECALL), self._on_slow_path),
            sub((EventKind.MESSAGE,), self._on_message),
            sub((EventKind.BARRIER,), self._on_barrier),
            sub((EventKind.NODE_DONE,), self._on_node_done),
        ]
        return list(self._tokens)

    def detach(self, bus: EventBus) -> None:
        for token in self._tokens:
            bus.unsubscribe(token)
        self._tokens.clear()

    # ----------------------------------------------------------- resolve
    def _array_of_addr(self, addr: int) -> str:
        if self.labels is None:
            return UNLABELLED
        label = self.labels.find(addr)
        return label.name if label is not None else UNLABELLED

    def _array_of_block(self, block: int) -> str:
        name = self._block_names.get(block)
        if name is None:
            name = self._array_of_addr(block << self._shift)
            self._block_names[block] = name
        return name

    def _site(self, node: int, array: str, pc: int, cause: str) -> _Site:
        sites = self._state.spans.setdefault(node, {})
        key = (array, pc, cause)
        site = sites.get(key)
        if site is None:
            site = sites[key] = _Site()
        return site

    # ---------------------------------------------------------- handlers
    def _on_miss(self, ev: MissEvent) -> None:
        # hits (and prefetch completion waits) are compute-side: they never
        # reach this handler
        result = ev.result
        array = self._array_of_addr(ev.addr)
        cause = result.detail or result.kind.value
        site = self._site(ev.node, array, ev.pc, cause)
        site.cycles += result.cycles
        site.count += 1
        key = (array, ev.pc)
        self._site_misses[key] = self._site_misses.get(key, 0) + 1
        chain = self._state.chains.pop(result.txn, None)
        if chain is not None:
            site.traps += chain[0]
            site.recalls += chain[1]

    def _on_directive(self, ev: DirectiveEvent) -> None:
        array = (
            self._array_of_block(ev.blockset[0]) if ev.blockset else UNLABELLED
        )
        site = self._site(ev.node, array, ev.pc, "directive")
        site.cycles += ev.cycles
        site.count += 1
        # Fold every chain opened by this node's directive (a multi-block
        # check-out may have run several slow-path transactions).
        state = self._state
        for txn in [t for t, c in state.chains.items() if c[2] == ev.node]:
            chain = state.chains.pop(txn)
            site.traps += chain[0]
            site.recalls += chain[1]

    def _on_lock(self, ev: LockEvent) -> None:
        if ev.wait:
            site = self._site(
                ev.node, self._array_of_addr(ev.addr), ev.pc, "lock"
            )
            site.cycles += ev.wait
            site.count += 1

    def _on_slow_path(self, ev: TrapEvent | RecallEvent) -> None:
        chain = self._state.chains.setdefault(ev.txn, [0, 0, ev.node])
        if isinstance(ev, TrapEvent):
            chain[0] += 1
        else:
            chain[1] += 1

    def _on_message(self, ev: MessageEvent) -> None:
        msgs = self._state.messages
        msgs[ev.node] = msgs.get(ev.node, 0) + ev.count

    def _on_barrier(self, ev: BarrierEvent) -> None:
        label = ""
        if self.source is not None and ev.node_pcs:
            label = self.source.epoch_label(next(iter(ev.node_pcs.values())))
        self._close_epoch(ev.vt, dict(ev.node_clocks), label)
        self._epoch = ev.epoch + 1
        self._prev_vt = ev.vt
        self._start = ev.resume

    def _on_node_done(self, ev: NodeDoneEvent) -> None:
        self._done[ev.node] = ev.t

    # --------------------------------------------------------- lifecycle
    def _close_epoch(
        self, end_vt: int, arrivals: dict[int, int], label: str
    ) -> None:
        length = max(end_vt - self._prev_vt, 0)
        overhead = max(self._start - self._prev_vt, 0)
        crit = runner_up = None
        slack: list[list[int]] = []
        if arrivals:
            # Last arrival wins the (anti-)crown; ties go to the lowest id.
            order = sorted(arrivals, key=lambda n: (-arrivals[n], n))
            crit = order[0]
            runner_up = order[1] if len(order) > 1 else None
            for node in sorted(arrivals):
                s = max(end_vt - arrivals[node], 0)
                slack.append([node, s])
                self.slack_hist.observe(s)
        if runner_up is not None:
            runner_up_slack = max(end_vt - arrivals[runner_up], 0)
        else:
            # A lone runner: the epoch is entirely its path.
            runner_up_slack = length - overhead
        sites = self._state.spans.get(crit, {}) if crit is not None else {}
        stall = sum(site.cycles for site in sites.values())
        self.records.append({
            "epoch": self._epoch,
            "label": label,
            "cycles": length,
            "start_vt": self._prev_vt,
            "end_vt": end_vt,
            "barrier_overhead": overhead,
            "critical_node": crit,
            "runner_up": runner_up,
            "runner_up_slack": runner_up_slack,
            "stall_cycles": stall,
            "compute_cycles": length - overhead - stall,
            "slack": slack,
            "messages": sorted(
                [n, c] for n, c in self._state.messages.items() if n >= 0
            ),
            "sites": [
                [array, pc, cause, s.cycles, s.count, s.traps, s.recalls]
                for (array, pc, cause), s in sorted(
                    sites.items(),
                    key=lambda kv: (-kv[1].cycles, kv[0]),
                )
            ],
        })
        self._state = _EpochState()

    def finalize(self, cycles: int | None = None) -> None:
        """Close the trailing partial epoch from the nodes' completion
        clocks (idempotent; mirrors ``RunResult.epoch_times``)."""
        if self._finalized:
            return
        self._finalized = True
        end = cycles if cycles is not None else self._prev_vt
        if end > self._prev_vt or not self.records:
            arrivals = {
                node: max(t, self._prev_vt)
                for node, t in self._done.items()
                if t >= self._start
            }
            self._close_epoch(max(end, self._prev_vt), arrivals, "final")

    # ------------------------------------------------------------ report
    def report(self, name: str = "run") -> dict:
        """Freeze the analysis into a JSON-serialisable report."""
        self.finalize()
        total_cycles = sum(r["cycles"] for r in self.records)
        crit_stall = sum(r["stall_cycles"] for r in self.records)
        straggler: dict[int, int] = {}
        for rec in self.records:
            if rec["critical_node"] is not None:
                node = rec["critical_node"]
                straggler[node] = straggler.get(node, 0) + 1
        # pc -> [line, source text] join, stored on the report so the
        # estimators below stay pure functions of the (JSON-round-trippable)
        # report — a critpath record re-read from a manifest ranks
        # identically to the live analyzer.
        line_table: dict[str, list] = {}
        if self.source is not None:
            pcs = {pc for _, pc in self._site_misses}
            for rec in self.records:
                pcs.update(site[1] for site in rec["sites"])
            line_table = {
                str(pc): [self.source.line_no(pc), self.source.line_text(pc)]
                for pc in sorted(pcs)
            }
        report = {
            "version": CRITPATH_VERSION,
            "name": name,
            "cycles": total_cycles,
            "epochs": self.records,
            "critical_path_fraction": (
                crit_stall / total_cycles if total_cycles else 0.0
            ),
            "critical_stall_cycles": crit_stall,
            "straggler_epochs": sorted(
                ([n, c] for n, c in straggler.items()),
                key=lambda nc: (-nc[1], nc[0]),
            ),
            "slack_histogram": self.slack_hist.snapshot(),
            "line_table": line_table,
            "by_misses": [
                {
                    "array": array,
                    "pc": pc,
                    "line": (line_table.get(str(pc)) or [None, ""])[0],
                    "misses": count,
                }
                for (array, pc), count in sorted(
                    self._site_misses.items(),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            ],
        }
        report["what_if"] = what_if_ranking(report)
        return report


# ------------------------------------------------------------- estimators
def what_if_ranking(report: dict, top: int | None = None) -> list[dict]:
    """Rank candidate CICO sites by estimated epoch-time savings.

    For every (array, source pc) whose coherence stalls sat on an epoch's
    critical path, the estimated saving in that epoch is
    ``min(site stall cycles, runner-up slack)`` — removing more stall than
    the runner-up's slack cannot shorten the epoch further, because the
    runner-up then becomes the straggler.  Sites are ranked by the summed
    estimate over all epochs; works on a live analyzer's report or on a
    ``critpath`` record re-read from a manifest.
    """
    line_table = report.get("line_table") or {}
    sites: dict[tuple[str, int], dict] = {}
    for rec in report["epochs"]:
        cap = rec["runner_up_slack"]
        for array, pc, cause, cycles, count, traps, recalls in rec["sites"]:
            if cause not in COHERENCE_CAUSES:
                continue
            line, source = line_table.get(str(pc)) or [None, ""]
            row = sites.setdefault(
                (array, pc),
                {
                    "array": array, "pc": pc, "line": line, "source": source,
                    "stall_cycles": 0, "est_savings": 0, "misses": 0,
                    "traps": 0, "recalls": 0, "epochs": 0, "causes": [],
                },
            )
            row["stall_cycles"] += cycles
            row["est_savings"] += min(cycles, cap)
            row["misses"] += count
            row["traps"] += traps
            row["recalls"] += recalls
            row["epochs"] += 1
            if cause not in row["causes"]:
                row["causes"].append(cause)
    total = report["cycles"]
    ranked = sorted(
        sites.values(),
        key=lambda r: (-r["est_savings"], -r["stall_cycles"], r["array"],
                       r["pc"]),
    )
    for row in ranked:
        row["causes"] = sorted(row["causes"])
        row["est_savings_fraction"] = (
            row["est_savings"] / total if total else 0.0
        )
    return ranked[:top] if top is not None else ranked


def miss_ranking(report: dict, top: int | None = None) -> list[dict]:
    """The naive ranking: all-nodes raw miss counts per (array, pc)."""
    rows = report["by_misses"]
    return rows[:top] if top is not None else rows


# -------------------------------------------------------------- rendering
def render_critpath(report: dict, top: int = 10) -> str:
    """The ``repro-obs critpath`` text output."""
    from repro.harness.reporting import render_table

    lines = [
        f"critical path {report['name']}: {report['cycles']} cycles, "
        f"{len(report['epochs'])} epochs, "
        f"{report['critical_stall_cycles']} stall cycles on the critical "
        f"path ({report['critical_path_fraction']:.1%} of the run)",
        "",
    ]
    epoch_rows = []
    for rec in report["epochs"]:
        hot = rec["sites"][0] if rec["sites"] else None
        epoch_rows.append([
            rec["epoch"],
            rec["label"] or "-",
            rec["cycles"],
            "-" if rec["critical_node"] is None else rec["critical_node"],
            rec["stall_cycles"],
            rec["compute_cycles"],
            rec["runner_up_slack"],
            f"{hot[0]}@pc{hot[1]} ({hot[2]}, {hot[3]} cyc)" if hot else "-",
        ])
    lines.append(render_table(
        ["epoch", "label", "cycles", "crit", "stall", "compute",
         "runner_up_slack", "hottest critical-path site"],
        epoch_rows,
        title="per-epoch critical path (stall+compute+overhead == cycles)",
    ))
    if report["straggler_epochs"]:
        worst, count = report["straggler_epochs"][0]
        lines.append(
            f"straggler: node {worst} was critical in {count}/"
            f"{len(report['epochs'])} epochs"
        )
        lines.append("")
    what_if = report["what_if"][:top]
    wi_rows = [
        [
            i + 1,
            row["array"],
            row["line"] if row.get("line") is not None else f"pc{row['pc']}",
            "+".join(row["causes"]),
            row["stall_cycles"],
            row["est_savings"],
            f"{row['est_savings_fraction']:.1%}",
        ]
        for i, row in enumerate(what_if)
    ]
    lines.append(render_table(
        ["rank", "array", "line", "causes", "critpath_stall",
         "est_savings", "of_run"],
        wi_rows,
        title=f"what-if ranking: top {len(wi_rows)} candidate CICO sites "
              f"by estimated epoch-time savings",
    ))
    naive = miss_ranking(report, top=len(what_if) or top)
    if naive:
        order = ", ".join(
            f"{r['array']}@" +
            (f"L{r['line']}" if r.get("line") is not None else f"pc{r['pc']}")
            + f" ({r['misses']})"
            for r in naive
        )
        lines.append(f"raw miss-count ranking (for contrast): {order}")
    return "\n".join(lines) + "\n"


__all__ = [
    "COHERENCE_CAUSES",
    "CRITPATH_VERSION",
    "SLACK_BUCKETS",
    "UNLABELLED",
    "CriticalPathAnalyzer",
    "miss_ranking",
    "render_critpath",
    "what_if_ranking",
]
