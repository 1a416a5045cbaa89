"""``repro-verify``: run workloads under the online invariant checker.

For every selected (workload, variant) pair the tool builds the variant
(tracing + annotating exactly as the Figure 6 harness does), executes it in
timing mode with an :class:`~repro.verify.InvariantChecker` subscribed to
the run's event bus, and prints one PASS/FAIL line.  ``--faults SEED``
additionally injects the seeded fault tape, which a passing run proves the
architectural results survived.

Every run is a task of :mod:`repro.harness.pool`: ``--jobs N`` (or
``REPRO_JOBS``) fans the (workload, variant) runs out across worker
processes, and ``--jobs 1``, the default, runs them inline in this
process.  PASS/FAIL lines and the report file keep their serial order
regardless of completion order.  The sweep always runs to completion: a
violating run prints a FAIL line with the verifier's diagnostic, and a
crashing run a FAIL line plus a structured error row, without aborting
the remaining runs.

Exit status: 0 when every run verified clean; **1** when one or more runs
completed but an invariant failed (the :class:`~repro.errors.VerifyError`
diagnostic names the invariant, node, epoch, block and recent event
chain); 2 for tool-level failures — bad arguments, unknown workloads,
crashed workers — per the ``run_cli`` contract.  "The protocol is broken"
and "the tool could not tell" are different answers, and CI wants to
distinguish them.

Example::

    repro-verify --workload mp3d --workload ocean --faults 7 \\
        --report-out verify-report.json
"""

from __future__ import annotations

import argparse
import json

from repro.cliutil import add_version, run_cli

#: the Figure 6 benchmarks, the tool's default coverage
DEFAULT_WORKLOADS = ("barnes", "ocean", "mp3d", "matmul", "tomcatv")
DEFAULT_VARIANTS = ("plain", "cachier")


def _write_report(path: str, reports: list[dict]) -> None:
    from repro.util.atomic_write import atomic_write_json

    atomic_write_json(path, {"runs": reports}, indent=2, sort_keys=True)


#: exit status when a run completed but an invariant failed (distinct from
#: usage/crash failures, which exit 2 via run_cli)
EXIT_VIOLATION = 1


def _verify(args, workloads, variants) -> int:
    """Every (workload, variant) run the workload has is one pool task;
    the sweep completes even when runs fail or crash."""
    from repro.harness.pool import (
        RunTask,
        SweepPool,
        render_errors,
        summarize_failures,
    )
    from repro.harness.runner import RunSpec
    from repro.harness.variants import planned_variants
    from repro.workloads.base import get_workload

    tasks = []
    for name in workloads:
        available = planned_variants(get_workload(name))
        for variant in variants:
            if variant not in available:
                continue  # e.g. no hand version
            run = RunSpec(name, variant, args.policy, verify=True,
                          strict=args.strict, faults=args.faults)
            tasks.append(RunTask.make("run", run.label, spec=run))
    reports: list[dict] = []
    failed_runs: list[str] = []

    def on_result(outcome):
        if not outcome.ok:
            failed_runs.append(outcome.task.key)
            if not args.json:
                print(f"FAIL  {outcome.task.key}")
            err = outcome.error or {}
            reports.append({
                "label": outcome.task.key, "ok": False,
                "error": err.get("message", "worker failed"),
            })
            return
        report = outcome.value["verify"]
        reports.append(report)
        if not report["ok"]:
            failed_runs.append(outcome.task.key)
            if not args.json:
                print(f"FAIL  {report['label']}")
                print(report["error"])
            return
        if not args.json:
            note = f"{sum(report['checks'].values())} checks"
            if report["warnings"]:
                note += f", {len(report['warnings'])} cico warnings"
            if args.faults is not None:
                note += f", faults seed={args.faults}"
            print(f"PASS  {report['label']:24s} {note}")

    outcomes = SweepPool(jobs=args.jobs).run(tasks, on_result)
    if args.report_out:
        _write_report(args.report_out, reports)
    if args.json:
        print(json.dumps({"runs": reports}, indent=2, sort_keys=True))
    pool_errors = [out for out in outcomes if not out.ok]
    if pool_errors:
        # worker crashes / retry exhaustion: the tool could not verify, a
        # different failure than "verified and found a violation" (exit 1)
        print(render_errors(pool_errors))
        raise summarize_failures(pool_errors, total=len(tasks))
    return 0 if not failed_runs else EXIT_VIOLATION


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-verify",
        description="Run workloads under the online coherence invariant "
                    "checker (SWMR, directory/cache agreement, CICO "
                    "discipline, epoch consistency, event conservation).",
    )
    add_version(parser, "repro-verify")
    parser.add_argument(
        "--workload", action="append", metavar="NAME",
        help=f"workload(s) to check (default: {' '.join(DEFAULT_WORKLOADS)})",
    )
    parser.add_argument(
        "--variant", action="append", metavar="NAME",
        help="variant(s) per workload: plain, hand, hand+pf, cachier, "
             f"cachier+pf (default: {' '.join(DEFAULT_VARIANTS)})",
    )
    parser.add_argument(
        "--policy", default="performance",
        choices=["performance", "programmer"],
        help="CICO flavour for the cachier variants",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="verify (workload, variant) runs across N worker processes "
             "(0 = one per CPU; default $REPRO_JOBS or 1 = in-process); "
             "every run completes at any N",
    )
    parser.add_argument(
        "--faults", type=int, metavar="SEED", default=None,
        help="inject the seeded fault tape (repro.faults) into every run",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="treat CICO discipline findings as failures, not warnings",
    )
    parser.add_argument(
        "--report-out", metavar="FILE",
        help="write every run's VerifyReport as JSON to FILE",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the report JSON to stdout instead of PASS/FAIL lines",
    )
    args = parser.parse_args(argv)
    workloads = tuple(args.workload) if args.workload else DEFAULT_WORKLOADS
    variants = tuple(args.variant) if args.variant else DEFAULT_VARIANTS
    return _verify(args, workloads, variants)


def main(argv=None) -> int:
    return run_cli(_main, argv, prog="repro-verify")


if __name__ == "__main__":
    raise SystemExit(main())
