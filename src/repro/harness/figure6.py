"""Figure 6 reproduction: normalized execution times of the five benchmarks.

The paper's figure plots, per benchmark, execution time normalized to the
version without CICO annotations, for the hand-annotated and
Cachier-annotated versions (plus prefetch variants where they mattered —
Matrix Multiply and Ocean).  The qualitative claims this module regenerates:

* Cachier-annotated programs beat the unannotated ones on every benchmark
  that communicates (MM ~16%, Barnes ~11%, Ocean ~20%, Mp3d ~25%);
* Cachier consistently beats the *hand*-annotated versions, spectacularly so
  for Mp3d (~45%);
* prefetch helps the regular programs (MM, Ocean) and buys little for the
  pointer-based Barnes;
* Tomcatv barely moves — it computes rather than communicates.

The sweep is a set of independent (benchmark, variant) runs, and it is
executed through :class:`~repro.harness.pool.SweepPool`: ``--jobs N`` (or
``REPRO_JOBS``) fans the runs out across worker processes with a
byte-identical determinism contract — the table, the per-run obs artefacts
and the sweep ledger are the same bytes at any job count.  ``--jobs 1``
(the default) runs everything inline in this process.  A run that fails
(watchdog, worker crash) is retried once and then reported in a
structured error table; a verify violation, which a retry would only
repeat, is reported there at once.  The sweep itself completes.

Run ``python -m repro.harness.figure6`` (or the ``cachier-figure6`` console
script) to print the table.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field

from repro.harness.pool import (
    RunOutcome,
    RunTask,
    SweepPool,
    render_errors,
    summarize_failures,
)
from repro.harness.reporting import render_table
from repro.harness.runner import RunSpec
from repro.harness.variants import (
    CACHIER,
    CACHIER_PREFETCH,
    HAND,
    HAND_PREFETCH,
    PLAIN,
    VariantSet,
    build_variants,
    planned_variants,
)
from repro.workloads.base import get_workload

#: Benchmarks of Section 6 in the paper's presentation order, with the
#: paper's approximate normalized execution time for the Cachier version
#: (without prefetch) for side-by-side comparison.
FIG6_BENCHMARKS = ("barnes", "ocean", "mp3d", "matmul", "tomcatv")
#: extension workloads accepted by --benchmark but not in the paper's figure
EXTRA_BENCHMARKS = ("fft",)
PAPER_CACHIER_NORM = {
    "barnes": 0.89,
    "ocean": 0.80,
    "mp3d": 0.75,
    "matmul": 0.84,
    "tomcatv": 0.97,
}


@dataclass
class Fig6Row:
    benchmark: str
    cycles: dict[str, int] = field(default_factory=dict)

    def normalized(self, variant: str) -> float | None:
        if variant not in self.cycles:
            return None
        return self.cycles[variant] / self.cycles[PLAIN]


@dataclass
class Fig6Sweep:
    """A completed sweep: one row per benchmark plus the runs that failed
    (empty on a clean sweep — the usual case)."""

    rows: list[Fig6Row]
    errors: list = field(default_factory=list)  # failed RunOutcomes


def run_benchmark(
    name: str,
    include_prefetch: bool = True,
    policy=None,
    **kwargs,
) -> Fig6Row:
    """One benchmark's row, run inline at any workload size (``kwargs``
    go to the workload factory); the sweep proper goes through
    :func:`sweep_figure6`."""
    from repro.cachier.annotator import Policy

    spec = get_workload(name, **kwargs)
    variants: VariantSet = build_variants(
        spec,
        policy=policy or Policy.PERFORMANCE,
        include_prefetch=include_prefetch,
    )
    row = Fig6Row(benchmark=name)
    for variant in variants.programs:
        row.cycles[variant] = variants.run(variant).cycles
    return row


def plan_tasks(
    benchmarks, include_prefetch: bool = True, policy=None,
    obs_dir: str | None = None, faults_seed: int | None = None,
    verify: bool = False,
) -> list[RunTask]:
    """The sweep's work-list: one pool ``run`` task per (benchmark,
    variant), in table order.  Enumerating variants needs only the
    workload spec, not the (expensive) trace + annotation — workers pay
    that, memoised.  With ``obs_dir`` every run is fully observed and
    exports its trace and manifest there."""
    from repro.cachier.annotator import Policy

    policy = Policy(policy or Policy.PERFORMANCE).value
    observed = obs_dir is not None
    tasks = []
    for name in benchmarks:
        spec = get_workload(name)
        for variant in planned_variants(spec, include_prefetch):
            run = RunSpec(
                name, variant, policy, profile=observed, critpath=observed,
                chrome=observed, verify=verify, faults=faults_seed,
            )
            tasks.append(RunTask.make("run", run.label, spec=run,
                                      obs_dir=obs_dir))
    return tasks


def sweep_figure6(
    benchmarks=FIG6_BENCHMARKS, include_prefetch: bool = True, policy=None,
    obs_dir: str | None = None, faults_seed: int | None = None,
    verify: bool = False, checkpoint_dir: str | None = None,
    resume: bool = False, jobs: int | None = None,
) -> Fig6Sweep:
    """Run the Figure-6 sweep through the process pool.

    With ``checkpoint_dir`` the ``figure6.sweep.json`` ledger is the work
    queue: completed runs are not resubmitted (their cycles come from the
    ledger), each finishing run is marked incrementally in deterministic
    (submission) order, and a killed sweep — serial or parallel — resumes
    only the missing runs.  Resuming against a ledger whose runs are not a
    subset of this sweep's plan (flags changed between invocations) is a
    :class:`~repro.errors.CheckpointError` ("ledger conflict") rather than
    a silently wrong table.
    """
    tasks = plan_tasks(
        benchmarks, include_prefetch, policy=policy, obs_dir=obs_dir,
        faults_seed=faults_seed, verify=verify,
    )
    sweep = None
    if checkpoint_dir is not None:
        from repro.harness.checkpoint import SweepState

        sweep = SweepState(checkpoint_dir)
        if resume:
            sweep.load()
            sweep.check_plan(task.key for task in tasks)
        else:
            sweep.clear()

    rows = {name: Fig6Row(benchmark=name) for name in benchmarks}
    if sweep is not None:
        for key, cycles in sweep.completed.items():
            name, variant = key.split("/", 1)
            rows[name].cycles[variant] = cycles
    todo = [
        task for task in tasks
        if sweep is None or task.key not in sweep.completed
    ]

    errors: list[RunOutcome] = []

    def on_result(outcome):
        if outcome.ok and outcome.value["cycles"] is None:
            # a verify violation: the run's result, and the sweep's failure
            outcome = RunOutcome(outcome.task, ok=False, error={
                "kind": "VerifyError",
                "message": outcome.value["verify"]["error"].splitlines()[0],
            })
        if not outcome.ok:
            errors.append(outcome)
            return
        name, variant = outcome.task.key.split("/", 1)
        rows[name].cycles[variant] = outcome.value["cycles"]
        if sweep is not None:
            sweep.mark(outcome.task.key, outcome.value["cycles"])

    SweepPool(jobs=jobs).run(todo, on_result)
    return Fig6Sweep(rows=[rows[name] for name in benchmarks], errors=errors)


def run_figure6(
    benchmarks=FIG6_BENCHMARKS, include_prefetch: bool = True, policy=None,
    obs_dir: str | None = None, faults_seed: int | None = None,
    verify: bool = False, checkpoint_dir: str | None = None,
    resume: bool = False, jobs: int | None = None,
) -> list[Fig6Row]:
    """Library entry point: the sweep's rows, raising
    :class:`~repro.errors.PoolError` if any run failed."""
    sweep = sweep_figure6(
        benchmarks, include_prefetch, policy=policy, obs_dir=obs_dir,
        faults_seed=faults_seed, verify=verify,
        checkpoint_dir=checkpoint_dir, resume=resume, jobs=jobs,
    )
    if sweep.errors:
        raise summarize_failures(sweep.errors, total=len(sweep.errors) + sum(
            len(row.cycles) for row in sweep.rows
        ))
    return sweep.rows


def render_figure6(rows: list[Fig6Row]) -> str:
    headers = ["benchmark", PLAIN, HAND, CACHIER]
    has_pf = any(CACHIER_PREFETCH in row.cycles for row in rows)
    if has_pf:
        headers += [CACHIER_PREFETCH, HAND_PREFETCH]
    headers.append("paper(cachier)")
    table = []
    for row in rows:
        cells: list[object] = [row.benchmark, 1.0 if PLAIN in row.cycles else "-"]
        for variant in headers[2 : len(headers) - 1]:
            norm = row.normalized(variant)
            cells.append("-" if norm is None else norm)
        cells.append(PAPER_CACHIER_NORM.get(row.benchmark, "-"))
        table.append(cells)
    return render_table(
        headers,
        table,
        title="Figure 6: execution time normalized to the unannotated program",
    )


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    from repro.cliutil import add_version

    add_version(parser, "cachier-figure6")
    parser.add_argument(
        "--benchmark",
        action="append",
        choices=FIG6_BENCHMARKS + EXTRA_BENCHMARKS,
        help="run a subset (default: the paper's five; 'fft' is an "
             "extension workload)",
    )
    parser.add_argument(
        "--no-prefetch", action="store_true", help="skip prefetch variants"
    )
    parser.add_argument(
        "--policy", default="performance",
        choices=["performance", "programmer"],
        help="which CICO flavour Cachier emits (the paper ran performance)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="run the sweep's (benchmark, variant) runs across N worker "
             "processes (0 = one per CPU; default $REPRO_JOBS or 1 = "
             "inline).  Output is byte-identical at any N.",
    )
    parser.add_argument(
        "--obs-dir", metavar="DIR",
        help="observe every run and write per-variant Chrome traces "
             "(<bench>-<variant>.trace.json, open in Perfetto) and JSONL "
             "manifests into DIR",
    )
    parser.add_argument(
        "--faults", type=int, metavar="SEED", default=None,
        help="inject the seeded fault tape (repro.faults) into every run; "
             "cycles change, normalized conclusions should survive",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="attach the online coherence invariant checker to every run",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="record each completed (benchmark, variant) run under DIR so "
             "a killed sweep can be restarted with --resume",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip (benchmark, variant) runs already recorded as complete "
             "in --checkpoint-dir; the resumed sweep prints the same table "
             "as an uninterrupted one",
    )
    args = parser.parse_args(argv)
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    from repro.cachier.annotator import Policy

    names = tuple(args.benchmark) if args.benchmark else FIG6_BENCHMARKS
    sweep = sweep_figure6(
        names,
        include_prefetch=not args.no_prefetch,
        policy=Policy(args.policy),
        obs_dir=args.obs_dir,
        faults_seed=args.faults,
        verify=args.verify,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        jobs=args.jobs,
    )
    print(render_figure6(sweep.rows))
    if args.obs_dir:
        print(f"// observability artefacts written to {args.obs_dir}/")
    if sweep.errors:
        print(render_errors(sweep.errors))
        total = len(sweep.errors) + sum(len(r.cycles) for r in sweep.rows)
        raise summarize_failures(sweep.errors, total=total)
    return 0


def main(argv=None) -> int:
    from repro.cliutil import run_cli

    return run_cli(_main, argv, prog="cachier-figure6")


if __name__ == "__main__":
    raise SystemExit(main())
