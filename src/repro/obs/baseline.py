"""Perf-regression baselines: BENCH files, benchmarking, and diffing.

Self-invalidation insertion tools are judged by per-structure miss/traffic
attribution over a fixed workload suite; this module freezes those numbers
so the simulator can be grown without silently regressing them.

* :func:`bench_workload` runs the requested variants of one Figure-6
  workload with attribution and critical path and distils each run into a
  *bench record*: cycles, miss counts, traffic, traps/recalls, and an
  attribution digest (per-structure misses + stall cycles).
* :func:`write_bench` / :func:`read_bench` store one ``BENCH_<workload>.json``
  per workload (see ``docs/observability.md`` for the schema).
* :func:`diff_benches` compares a current bench against a baseline and
  flags any variant whose cycles grew by more than ``threshold`` — the gate
  the ``bench-smoke`` CI job enforces against the committed baselines in
  ``benchmarks/baselines/``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.errors import ObsError

BENCH_VERSION = 1

#: default workload set — the paper's Figure-6 suite
BENCH_WORKLOADS = ("barnes", "ocean", "mp3d", "matmul", "tomcatv")
#: the two fastest Figure-6 workloads (CI's bench-smoke set)
QUICK_WORKLOADS = ("mp3d", "ocean")
#: variants benched by default (prefetch variants ride along on request)
BENCH_VARIANTS = ("plain", "cachier")
#: cycle-growth fraction above which a diff counts as a regression
DEFAULT_THRESHOLD = 0.10


def bench_path(out_dir: str, workload: str) -> str:
    return os.path.join(out_dir, f"BENCH_{workload}.json")


def _variant_record(result, obs) -> dict:
    """Distil one observed run into a bench record."""
    m = obs.metrics
    digest = {}
    if obs.attrib is not None:
        for row in obs.attrib["structures"]:
            digest[row["array"]] = {
                "misses": row["misses"],
                "stall_cycles": row["stall_cycles"],
            }
    record = {
        "cycles": result.cycles,
        "epochs": result.epochs,
        "misses": {
            "read_miss": int(m.get("accesses.read_miss", 0)),
            "write_miss": int(m.get("accesses.write_miss", 0)),
            "write_fault": int(m.get("accesses.write_fault", 0)),
        },
        "messages": int(m.get("messages", 0)),
        "traps": int(m.get("traps", 0)),
        "recalls": int(m.get("recalls", 0)),
        "locks_contended": int(m.get("locks.contended", 0)),
        "attrib": digest,
    }
    if obs.critpath is not None:
        # Straggler digest: share of the run spent stalled on the critical
        # path, and which node was critical most often.  ``diff`` flags
        # drift in these as informational notes.
        straggler = obs.critpath["straggler_epochs"]
        record["critical_path_fraction"] = round(
            obs.critpath["critical_path_fraction"], 6
        )
        record["top_straggler"] = straggler[0] if straggler else None
    return record


def bench_workload(
    name: str,
    variants=BENCH_VARIANTS,
    trace_dir: str | None = None,
    verify: bool = False,
) -> dict:
    """Run ``variants`` of workload ``name`` and return the bench dict.

    With ``trace_dir`` set, a Chrome trace per variant is written there
    (``<workload>-<variant>.trace.json``) — CI uploads these as artifacts.

    With ``verify`` each run executes under the online invariant checker.
    Verification observes the run without perturbing it, so BENCH bytes
    are identical with and without; a violation raises
    :class:`~repro.errors.VerifyError` and fails the bench.
    """
    from repro.harness.runner import RunSpec, execute
    from repro.obs.export import write_chrome_trace
    from repro.workloads.base import get_workload

    out: dict = {
        "version": BENCH_VERSION,
        "workload": name,
        **get_workload(name).bench_meta(),
        "variants": {},
    }
    chrome = trace_dir is not None
    if chrome:
        os.makedirs(trace_dir, exist_ok=True)
    for variant in variants:
        result, obs = execute(RunSpec(
            name, variant, profile=True, critpath=True, chrome=chrome,
            verify=verify,
        ))
        out["variants"][variant] = _variant_record(result, obs)
        if chrome:
            stem = f"{name}-{variant}".replace("+", "_")
            write_chrome_trace(obs, os.path.join(trace_dir,
                                                 stem + ".trace.json"))
    return out


def write_bench(bench: dict, out_dir: str) -> str:
    from repro.util.atomic_write import atomic_write_json

    os.makedirs(out_dir, exist_ok=True)
    path = bench_path(out_dir, bench["workload"])
    atomic_write_json(path, bench, indent=2, sort_keys=True)
    return path


def read_bench(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ObsError(f"cannot read bench file {path}: {exc}") from None
    if not isinstance(bench, dict) or "variants" not in bench:
        raise ObsError(f"{path} is not a BENCH file (no 'variants' key)")
    return bench


# ------------------------------------------------------------------- diffing
@dataclass(frozen=True)
class DiffRow:
    """One (workload, variant) comparison."""

    workload: str
    variant: str
    base_cycles: int
    cur_cycles: int
    base_misses: int
    cur_misses: int
    base_messages: int
    cur_messages: int
    regression: bool

    @property
    def cycles_delta(self) -> float:
        if not self.base_cycles:
            return 0.0
        return (self.cur_cycles - self.base_cycles) / self.base_cycles


def diff_benches(
    baseline: dict, current: dict, threshold: float = DEFAULT_THRESHOLD
) -> list[DiffRow]:
    """Compare two bench dicts variant by variant.

    A variant regresses when its cycle count grew by more than
    ``threshold`` (a fraction).  Variants present in only one side are
    skipped — adding a variant must not fail the gate.
    """
    if threshold < 0:
        raise ObsError(f"threshold must be non-negative, got {threshold}")
    rows = []
    workload = current.get("workload", baseline.get("workload", "?"))
    for variant in sorted(baseline["variants"]):
        if variant not in current["variants"]:
            continue
        base = baseline["variants"][variant]
        cur = current["variants"][variant]
        base_cycles = int(base["cycles"])
        cur_cycles = int(cur["cycles"])
        regression = (
            base_cycles > 0
            and (cur_cycles - base_cycles) / base_cycles > threshold
        )
        rows.append(DiffRow(
            workload=workload,
            variant=variant,
            base_cycles=base_cycles,
            cur_cycles=cur_cycles,
            base_misses=sum(base.get("misses", {}).values()),
            cur_misses=sum(cur.get("misses", {}).values()),
            base_messages=int(base.get("messages", 0)),
            cur_messages=int(cur.get("messages", 0)),
            regression=regression,
        ))
    return rows


def attrib_drift(baseline: dict, current: dict) -> list[str]:
    """Human-readable notes on per-structure digest changes (informational:
    drift does not gate, cycle regressions do)."""
    notes = []
    for variant in sorted(baseline["variants"]):
        if variant not in current["variants"]:
            continue
        base = baseline["variants"][variant].get("attrib", {})
        cur = current["variants"][variant].get("attrib", {})
        for array in sorted(set(base) | set(cur)):
            b = base.get(array, {}).get("misses", 0)
            c = cur.get(array, {}).get("misses", 0)
            if b != c:
                notes.append(
                    f"{variant}: {array} misses {b} -> {c} "
                    f"({c - b:+d})"
                )
    return notes


def straggler_drift(
    baseline: dict, current: dict, threshold: float = 0.05
) -> list[str]:
    """Notes on critical-path drift between two benches (informational).

    Flags a variant when its ``critical_path_fraction`` moved by more than
    ``threshold`` (absolute), or when a *different* node became the top
    straggler — both say "the epochs are now bound by something else", which
    a raw cycle diff can hide.
    """
    notes = []
    for variant in sorted(baseline["variants"]):
        if variant not in current["variants"]:
            continue
        base = baseline["variants"][variant]
        cur = current["variants"][variant]
        b_frac = base.get("critical_path_fraction")
        c_frac = cur.get("critical_path_fraction")
        if b_frac is not None and c_frac is not None:
            if abs(c_frac - b_frac) > threshold:
                notes.append(
                    f"{variant}: critical_path_fraction "
                    f"{b_frac:.3f} -> {c_frac:.3f} ({c_frac - b_frac:+.3f})"
                )
        b_top = base.get("top_straggler")
        c_top = cur.get("top_straggler")
        if b_top and c_top and b_top[0] != c_top[0]:
            notes.append(
                f"{variant}: top straggler moved from node {b_top[0]} "
                f"({b_top[1]} epochs) to node {c_top[0]} ({c_top[1]} epochs)"
            )
    return notes


def render_diff(rows: list[DiffRow], threshold: float) -> str:
    """Render the diff table."""
    from repro.harness.reporting import render_table

    table = [
        [
            row.workload, row.variant, row.base_cycles, row.cur_cycles,
            f"{row.cycles_delta:+.1%}",
            row.cur_misses - row.base_misses,
            row.cur_messages - row.base_messages,
            "REGRESSION" if row.regression else "ok",
        ]
        for row in rows
    ]
    return render_table(
        ["workload", "variant", "base_cyc", "cur_cyc", "Δcyc", "Δmisses",
         "Δmsgs", "status"],
        table,
        title=f"bench diff (cycle regression threshold {threshold:.0%})",
    )


__all__ = [
    "BENCH_VARIANTS",
    "BENCH_VERSION",
    "BENCH_WORKLOADS",
    "DEFAULT_THRESHOLD",
    "QUICK_WORKLOADS",
    "DiffRow",
    "attrib_drift",
    "bench_path",
    "bench_workload",
    "diff_benches",
    "read_bench",
    "render_diff",
    "straggler_drift",
    "write_bench",
]
