"""Causal critical-path analysis: per-epoch stragglers and what-if ranking.

On a barrier-synchronized machine an epoch's length is the *max* over the
nodes' arrival times, so raw miss counts are the wrong signal for ranking
annotation sites: a thousand misses on a node with slack cost nothing, while
one recall on the straggler's path lengthens the whole run.  This module
reads a :class:`~repro.obs.attrib.StallLedger` — the same stall spans the
attribution report sums — as exactly that causal view:

* :func:`critpath_report` identifies, per epoch, the **critical node** (the
  barrier's last arrival), every node's **slack** (how long it idled at the
  barrier), and decomposes the critical node's epoch into barrier overhead
  + coherence/lock stall spans + compute.  Each of the critical node's
  spans is a site: data structure x source pc x cause, with the traps and
  recalls its slow-path transactions ran.
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

Like the rest of ``repro.obs``, the ledger is read-only: an observed run
is cycle-for-cycle identical to an unobserved one.
"""

from __future__ import annotations

from collections import Counter

from repro.obs.attrib import StallLedger
from repro.obs.metrics import Histogram

CRITPATH_VERSION = 1

#: per-epoch slack buckets (cycles a node idles at the barrier)
SLACK_BUCKETS = (0, 100, 1_000, 10_000, 100_000, 1_000_000)

#: stall causes a CICO check-out/check-in could remove (the others —
#: "directive" issue overhead and "lock" waits — are not coherence misses)
COHERENCE_CAUSES = frozenset(
    {"memory", "recall", "inv1", "trap", "upgrade_fast", "inv_multicast"}
)


def _epoch_record(ledger: StallLedger, rec: dict, slack_hist: Histogram) -> dict:
    """One closed epoch of ``ledger`` seen from its critical node."""
    arrivals = rec["arrivals"]
    end_vt, length = rec["end_vt"], rec["cycles"]
    overhead = rec["barrier_overhead"]
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
            slack_hist.observe(s)
    if runner_up is not None:
        runner_up_slack = max(end_vt - arrivals[runner_up], 0)
    else:
        # A lone runner: the epoch is entirely its path.
        runner_up_slack = length - overhead
    # The critical node's spans that paid stall or ran a slow path; a lock
    # acquire that never waited and a directive's other arrays without a
    # trap or recall are not on its path.
    sites = {
        (array, pc, cause): span
        for (node, array, pc, cause), span
        in ledger.spans.get(rec["epoch"], {}).items()
        if node == crit and (span.count or span.traps or span.recalls)
    }
    stall = sum(span.cycles for span in sites.values())
    return {
        "epoch": rec["epoch"],
        "label": rec["label"],
        "cycles": length,
        "start_vt": rec["start_vt"],
        "end_vt": end_vt,
        "barrier_overhead": overhead,
        "critical_node": crit,
        "runner_up": runner_up,
        "runner_up_slack": runner_up_slack,
        "stall_cycles": stall,
        "compute_cycles": length - overhead - stall,
        "slack": slack,
        "messages": sorted(
            [n, c] for n, c in rec["messages_by_node"].items() if n >= 0
        ),
        "sites": [
            [array, pc, cause, s.cycles, s.count, s.traps, s.recalls]
            for (array, pc, cause), s in sorted(
                sites.items(), key=lambda kv: (-kv[1].cycles, kv[0]),
            )
        ],
    }


def critpath_report(ledger: StallLedger, name: str = "run") -> dict:
    """The critical-path report of a finalized ledger."""
    slack_hist = Histogram("epoch_slack", SLACK_BUCKETS)
    records = [_epoch_record(ledger, rec, slack_hist) for rec in ledger.epochs]
    total_cycles = sum(r["cycles"] for r in records)
    crit_stall = sum(r["stall_cycles"] for r in records)
    straggler = Counter(
        r["critical_node"] for r in records if r["critical_node"] is not None
    )
    # (array, pc) -> miss count over ALL nodes (the naive ranking)
    site_misses: Counter = Counter()
    for spans in ledger.spans.values():
        for (_node, array, pc, _cause), span in spans.items():
            if span.misses:
                site_misses[array, pc] += span.misses
    # pc -> [line, source text] join, stored on the report so the
    # estimators below stay pure functions of the (JSON-round-trippable)
    # report — a critpath record re-read from a manifest ranks
    # identically to the live run's.
    line_table: dict[str, list] = {}
    if ledger.source is not None:
        pcs = {pc for _, pc in site_misses}
        for rec in records:
            pcs.update(site[1] for site in rec["sites"])
        line_table = {
            str(pc): [ledger.source.line_no(pc), ledger.source.line_text(pc)]
            for pc in sorted(pcs)
        }
    report = {
        "version": CRITPATH_VERSION,
        "name": name,
        "cycles": total_cycles,
        "epochs": records,
        "critical_path_fraction": (
            crit_stall / total_cycles if total_cycles else 0.0
        ),
        "critical_stall_cycles": crit_stall,
        "straggler_epochs": sorted(
            ([n, c] for n, c in straggler.items()),
            key=lambda nc: (-nc[1], nc[0]),
        ),
        "slack_histogram": slack_hist.snapshot(),
        "line_table": line_table,
        "by_misses": [
            {
                "array": array,
                "pc": pc,
                "line": (line_table.get(str(pc)) or [None, ""])[0],
                "misses": count,
            }
            for (array, pc), count in sorted(
                site_misses.items(), key=lambda kv: (-kv[1], kv[0]),
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
    estimate over all epochs; works on a live run's report or on a
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
    "critpath_report",
    "miss_ranking",
    "render_critpath",
    "what_if_ranking",
]
