"""``repro-obs``: observe workload runs and inspect the artefacts.

Subcommands::

    repro-obs run --workload ocean --variant cachier \\
        --trace-out ocean.trace.json --manifest-out ocean.manifest.jsonl
    repro-obs summarize ocean.manifest.jsonl
    repro-obs profile --workload matmul --variant cachier
    repro-obs critpath --workload mp3d --variant plain --top 5
    repro-obs bench --workload mp3d --workload ocean --out-dir bench-out
    repro-obs diff --baseline benchmarks/baselines --against bench-out

``run`` executes one variant of a built-in workload with the observability
layer attached and prints the per-epoch activity table; ``summarize``
re-renders that table from a previously written JSONL manifest.

``profile`` runs a variant with source-level attribution and prints hot
structures / hot source lines / the per-epoch annotation audit (``--json``
for the raw report, ``--folded`` for flamegraph folded stacks).
``critpath`` runs a variant with critical-path analysis and prints the
per-epoch straggler table plus the what-if ranking of candidate CICO sites
by estimated epoch-time savings (``--json`` for the raw report).
``bench`` freezes per-workload perf baselines into ``BENCH_<w>.json`` files
and ``diff`` compares two baseline directories, exiting non-zero when any
variant's cycles regressed past the threshold — the CI perf gate.

Every number here is simulated; none is host time.  For where the host's
time goes, run ``python3 benchmarks/e2e/run.py --workload W --trace 1``
(per-layer self time) or cProfile.
"""

from __future__ import annotations

import argparse

from repro.cliutil import add_version, run_cli
from repro.errors import ObsError
from repro.harness.reporting import render_table
from repro.obs.export import read_manifest, write_chrome_trace, write_manifest
from repro.obs.metrics import counter_delta
from repro.obs.session import Observation

#: scalar metrics shown as per-epoch deltas in the summary tables
_EPOCH_COLUMNS = (
    ("misses", ("accesses.read_miss", "accesses.write_miss")),
    ("faults", ("accesses.write_fault",)),
    ("traps", ("traps",)),
    ("recalls", ("recalls",)),
    ("msgs", ("messages",)),
    ("locks", ("locks.acquired",)),
)


def _epoch_rows(samples: list[dict]) -> list[list[object]]:
    rows = []
    prev: dict = {}
    for sample in samples:
        metrics = sample["metrics"]
        row: list[object] = [
            sample["epoch"],
            sample["cycles"],
            "*" if sample.get("final") else "",
        ]
        for _, names in _EPOCH_COLUMNS:
            row.append(sum(counter_delta(prev, metrics, n) for n in names))
        rows.append(row)
        prev = metrics
    return rows


def _render_epoch_table(samples: list[dict], title: str) -> str:
    headers = ["epoch", "cycles", "fin"] + [c for c, _ in _EPOCH_COLUMNS]
    return render_table(headers, _epoch_rows(samples), title=title)


def render_observation(obs: Observation) -> str:
    """Human-readable summary: run totals plus the per-epoch table."""
    name = obs.meta.get("name", "run")
    m = obs.metrics
    misses = int(m.get("accesses.read_miss", 0)) + int(m.get("accesses.write_miss", 0))
    lines = [
        f"observed {name}: {obs.num_nodes} nodes, {obs.cycles} cycles, "
        f"{obs.epochs} epochs",
        f"  misses={misses} faults={m.get('accesses.write_fault', 0)} "
        f"traps={m.get('traps', 0)} recalls={m.get('recalls', 0)} "
        f"messages={m.get('messages', 0)} "
        f"locks={m.get('locks.acquired', 0)}"
        f" (contended {m.get('locks.contended', 0)})",
        "",
        _render_epoch_table(
            [s.to_dict() for s in obs.timeline],
            title="per-epoch activity (deltas; * = trailing partial epoch)",
        ),
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------- commands
def _cmd_run(args) -> int:
    from repro.harness.runner import RunSpec, execute

    result, obs = execute(RunSpec(
        args.workload, args.variant, args.policy, observe=True,
        chrome=bool(args.trace_out), include_hits=args.include_hits,
        verify=args.verify, faults=args.faults,
    ))
    print(render_observation(obs))
    if args.faults is not None:
        fstats = result.extra["fault_stats"]
        print("fault injection (seed {}): {}".format(
            args.faults,
            " ".join(f"{k}={v}" for k, v in fstats.items() if v)))
    if args.verify:
        report = result.extra["verify_report"]
        print(f"invariants verified: {sum(report.checks.values())} checks, "
              f"{len(report.warnings)} cico warnings")
    if args.trace_out:
        write_chrome_trace(obs, args.trace_out)
        print(f"chrome trace written to {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    if args.manifest_out:
        write_manifest(obs, args.manifest_out)
        print(f"manifest written to {args.manifest_out}")
    return 0


def _cmd_summarize(args) -> int:
    records = read_manifest(args.manifest)
    if not records:
        print(f"{args.manifest}: no records (empty or truncated manifest)")
        return 1
    header = next((r for r in records if r.get("type") == "run"), None)
    if header is None:
        raise ObsError(f"{args.manifest}: no 'run' record — not a manifest?")
    name = header.get("meta", {}).get("name", args.manifest)
    print(
        f"{name}: {header.get('num_nodes')} nodes, "
        f"{header.get('cycles')} cycles, {header.get('epochs')} epochs"
    )
    epochs = [r for r in records if r.get("type") == "epoch"]
    print(_render_epoch_table(
        epochs, title="per-epoch activity (deltas; * = trailing partial epoch)"
    ))
    attrib = next((r for r in records if r.get("type") == "attrib"), None)
    if attrib is not None:
        from repro.obs.attrib import render_profile

        print()
        print(render_profile(attrib["attrib"]))
    return 0


def _cmd_profile(args) -> int:
    import json as _json

    from repro.obs.attrib import folded_stacks, profile_trace, render_profile

    if args.trace_mode:
        # Offline join over a collected miss trace (no timing run).
        from repro.harness.runner import trace_program
        from repro.workloads.base import get_workload

        spec = get_workload(args.workload)
        trace = trace_program(spec.program, spec.config, spec.params_fn)
        report = profile_trace(
            trace, program=spec.program,
            name=f"{spec.name}/trace",
        )
    else:
        from repro.harness.runner import RunSpec, execute

        _, obs = execute(RunSpec(args.workload, args.variant, args.policy,
                                 profile=True))
        report = obs.attrib
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    elif args.folded:
        print(folded_stacks(report))
    else:
        print(render_profile(report, top=args.top))
    return 0


def _cmd_critpath(args) -> int:
    import json as _json

    from repro.harness.runner import RunSpec, execute
    from repro.obs.critpath import render_critpath

    _, obs = execute(RunSpec(args.workload, args.variant, args.policy,
                             chrome=bool(args.trace_out), critpath=True))
    if args.json:
        print(_json.dumps(obs.critpath, indent=2, sort_keys=True))
    else:
        print(render_critpath(obs.critpath, top=args.top))
    if args.trace_out:
        write_chrome_trace(obs, args.trace_out)
        print(f"chrome trace with flow arrows written to {args.trace_out} "
              f"(open in https://ui.perfetto.dev)")
    return 0


def _cmd_bench(args) -> int:
    from repro.harness.pool import (
        RunTask,
        SweepPool,
        render_errors,
        summarize_failures,
    )
    from repro.obs.baseline import QUICK_WORKLOADS

    workloads = args.workload or list(QUICK_WORKLOADS)
    variants = tuple(args.variant) if args.variant else None
    tasks = [
        RunTask.make(
            "bench", name,
            workload=name, out_dir=args.out_dir,
            variants=variants, trace_dir=args.trace_dir,
        )
        for name in workloads
    ]

    def on_result(outcome):
        if outcome.ok:
            value = outcome.value
            print(f"benched {outcome.task.key}: {value['cycles']} "
                  f"-> {value['path']}")

    outcomes = SweepPool(jobs=args.jobs).run(tasks, on_result)
    errors = [out for out in outcomes if not out.ok]
    if errors:
        print(render_errors(errors))
        raise summarize_failures(errors, total=len(tasks))
    return 0


def _cmd_diff(args) -> int:
    import glob
    import os

    from repro.obs.baseline import (
        attrib_drift,
        diff_benches,
        read_bench,
        render_diff,
        straggler_drift,
    )

    base_files = sorted(glob.glob(os.path.join(args.baseline, "BENCH_*.json")))
    if not base_files:
        raise ObsError(f"no BENCH_*.json files under {args.baseline}")
    rows = []
    notes = []
    for base_path in base_files:
        baseline = read_bench(base_path)
        cur_path = os.path.join(args.against, os.path.basename(base_path))
        if not os.path.exists(cur_path):
            print(f"skipping {baseline['workload']}: "
                  f"no current bench at {cur_path}")
            continue
        current = read_bench(cur_path)
        rows.extend(diff_benches(baseline, current, threshold=args.threshold))
        workload = current.get("workload", "?")
        notes.extend(
            f"{workload}/{note}"
            for note in attrib_drift(baseline, current)
            + straggler_drift(baseline, current)
        )
    if not rows:
        # A gate that compared nothing proves nothing.
        raise ObsError(
            f"no bench under {args.against} shares a workload and variant "
            f"with the baselines in {args.baseline}: nothing was compared"
        )
    print(render_diff(rows, args.threshold))
    if notes:
        print("attribution / straggler drift (informational):")
        for note in notes:
            print(f"  {note}")
    regressions = [r for r in rows if r.regression]
    if regressions:
        print(f"{len(regressions)} regression(s) past "
              f"{args.threshold:.0%} cycle threshold")
        return 1
    print("no regressions")
    return 0


def _add_variant_args(parser) -> None:
    parser.add_argument("--workload", default="matmul")
    parser.add_argument(
        "--variant", default="plain",
        choices=["plain", "hand", "hand+pf", "cachier", "cachier+pf"],
    )
    parser.add_argument(
        "--policy", default="performance",
        choices=["performance", "programmer"],
    )


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro-obs", description=__doc__)
    add_version(parser, "repro-obs")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload variant observed")
    _add_variant_args(run_p)
    run_p.add_argument("--trace-out", metavar="PATH",
                       help="write Chrome trace-event JSON")
    run_p.add_argument("--manifest-out", metavar="PATH",
                       help="write the JSONL run manifest")
    run_p.add_argument("--include-hits", action="store_true",
                       help="with --trace-out, record cache hits as trace "
                            "spans too (verbose)")
    run_p.add_argument("--faults", type=int, metavar="SEED", default=None,
                       help="inject the seeded fault tape (repro.faults); "
                            "timing and traffic change, architectural "
                            "results do not")
    run_p.add_argument("--verify", action="store_true",
                       help="attach the online coherence invariant checker "
                            "(repro.verify) to the run")
    run_p.set_defaults(func=_cmd_run)

    sum_p = sub.add_parser("summarize", help="re-render a JSONL manifest")
    sum_p.add_argument("manifest")
    sum_p.set_defaults(func=_cmd_summarize)

    prof_p = sub.add_parser(
        "profile",
        help="source-level attribution profile of one workload variant",
    )
    _add_variant_args(prof_p)
    prof_p.add_argument("--top", type=int, default=10,
                        help="rows in the hot-structure/hot-line tables")
    prof_p.add_argument("--json", action="store_true",
                        help="emit the structured report as JSON")
    prof_p.add_argument("--folded", action="store_true",
                        help="emit flamegraph folded stacks "
                             "(name;array;line weight)")
    prof_p.add_argument("--trace-mode", action="store_true",
                        help="profile the trace-mode run of the unannotated "
                             "program instead of a timing run")
    prof_p.set_defaults(func=_cmd_profile)

    crit_p = sub.add_parser(
        "critpath",
        help="per-epoch critical-path / straggler analysis with a what-if "
             "ranking of candidate CICO sites",
    )
    _add_variant_args(crit_p)
    crit_p.add_argument("--top", type=int, default=10,
                        help="rows in the what-if ranking table")
    crit_p.add_argument("--json", action="store_true",
                        help="emit the structured report as JSON")
    crit_p.add_argument("--trace-out", metavar="PATH",
                        help="write a Chrome trace with per-transaction "
                             "flow arrows")
    crit_p.set_defaults(func=_cmd_critpath)

    bench_p = sub.add_parser(
        "bench", help="write BENCH_<workload>.json perf baselines"
    )
    bench_p.add_argument(
        "--workload", action="append", metavar="NAME",
        help="workload to bench (repeatable; default: the quick set "
             "mp3d + ocean)",
    )
    bench_p.add_argument(
        "--variant", action="append", metavar="NAME",
        help="variant to bench (repeatable; default: plain + cachier)",
    )
    bench_p.add_argument("--jobs", type=int, default=None, metavar="N",
                         help="bench workloads across N worker processes "
                              "(0 = one per CPU; default $REPRO_JOBS or 1 "
                              "= in-process); BENCH files are "
                              "byte-identical at any N")
    bench_p.add_argument("--out-dir", default="bench-out",
                         help="directory for BENCH_*.json files")
    bench_p.add_argument("--trace-dir", metavar="DIR",
                         help="also write a Chrome trace per variant here")
    bench_p.set_defaults(func=_cmd_bench)

    diff_p = sub.add_parser(
        "diff", help="compare bench directories, gate on cycle regressions"
    )
    diff_p.add_argument("--baseline", required=True,
                        help="directory holding the baseline BENCH_*.json")
    diff_p.add_argument("--against", default="bench-out",
                        help="directory holding the current BENCH_*.json")
    diff_p.add_argument("--threshold", type=float, default=0.10,
                        help="cycle-growth fraction that counts as a "
                             "regression (default 0.10)")
    diff_p.set_defaults(func=_cmd_diff)

    args = parser.parse_args(argv)
    if args.command == "run" and args.include_hits and not args.trace_out:
        run_p.error("--include-hits requires --trace-out")
    return args.func(args)


def main(argv=None) -> int:
    return run_cli(_main, argv, prog="repro-obs")


if __name__ == "__main__":
    raise SystemExit(main())
