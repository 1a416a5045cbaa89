"""Compare two sets of benchmark runs: parent commit vs change.

Usage::

    python3 benchmarks/e2e/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds ``results.jsonl`` records (``run.py --out``); only untraced
records count, paired in file order per workload (run the two sides
alternately, at least ten pairs).  One row per workload x end-to-end
metric, with every run's value, each side's median and quartiles, and a
verdict against the metric's bound in ``BENCHMARK.json``:

* ``gain``: the change wins at least 9 of every 10 pairs (ties count for
  neither side), at least ten pairs ran, the medians differ by more than
  the parent's interquartile range, and no more ops failed than at the
  parent;
* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: the run-to-run spread (interquartile range over median,
  either side) is wider than the bound, unless every change run reads
  better than every parent run;
* ``unchanged``: otherwise.

Exits 1 when any row regressed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
MIN_PAIRS = 10


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [rec for rec in records if not rec.get("trace")]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def paired_wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs (in file order) where the change reads better; ties count
    for neither side."""
    sign = 1 if better == "lower" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, failed_parent: int = 0,
            failed_change: int = 0) -> str:
    """The verdict for one workload x metric (see the module doc)."""
    sign = 1 if better == "lower" else -1  # sign * (b - a) > 0: b is worse
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    pairs = min(len(parent), len(change))
    wins = paired_wins(parent, change, better)
    if (pairs >= MIN_PAIRS and wins * 10 >= 9 * pairs
            and sign * (pm - cm) > p3 - p1 and failed_change <= failed_parent):
        return "gain"
    if sign * (cm - pm) > bound * abs(pm):
        return "regressed"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    """One row per workload x end-to-end metric."""
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        par = [r for r in parent if r["workload"] == workload]
        chg = [r for r in change if r["workload"] == workload]
        if not par or not chg:
            continue
        failed_par = sum(r["failed"] for r in par)
        failed_chg = sum(r["failed"] for r in chg)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name]["value"] for r in par]
            cv = [r["metrics"][name]["value"] for r in chg]
            pm, cm = quartiles(pv)[1], quartiles(cv)[1]
            rows.append({
                "workload": workload, "metric": name, "unit": metric["unit"],
                "bound": metric["bound"], "parent": pv, "change": cv,
                "parent_q": quartiles(pv), "change_q": quartiles(cv),
                "delta": (cm - pm) / pm if pm else 0.0,
                "wins": paired_wins(pv, cv, metric["better"]),
                "pairs": min(len(pv), len(cv)),
                "failed": (failed_par, failed_chg),
                "verdict": verdict(pv, cv, metric["better"], metric["bound"],
                                   failed_par, failed_chg),
            })
    return rows


def render(rows: list[dict]) -> str:
    def fmt(values):
        return " ".join(f"{v:.6g}" for v in values)

    lines = []
    for row in rows:
        pq, cq = row["parent_q"], row["change_q"]
        lines.append(
            f"{row['workload']:9s} {row['metric']:12s} {row['verdict']:10s} "
            f"parent {pq[1]:.6g} [{pq[0]:.6g}, {pq[2]:.6g}] "
            f"change {cq[1]:.6g} [{cq[0]:.6g}, {cq[2]:.6g}] {row['unit']} "
            f"delta {row['delta']:+.2%} (bound {row['bound']:.0%}) "
            f"wins {row['wins']}/{row['pairs']} "
            f"failed {row['failed'][0]}->{row['failed'][1]}"
        )
        lines.append(f"    parent runs: {fmt(row['parent'])}")
        lines.append(f"    change runs: {fmt(row['change'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="results.jsonl of the parent commit")
    parser.add_argument("change", help="results.jsonl of the change")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    rows = compare(load(args.parent), load(args.change), spec)
    print(render(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
