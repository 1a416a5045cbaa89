"""``cachier-annotate``: run the tool on a built-in workload and print the
annotated source, the annotation statistics and the sharing report.

Example::

    cachier-annotate --workload matmul_racing --policy performance
    cachier-annotate --workload ocean --policy programmer --prefetch
"""

from __future__ import annotations

import argparse

from repro.cachier.annotator import Cachier, Policy
from repro.cliutil import add_version, run_cli
from repro.harness.runner import trace_program
from repro.lang.unparse import unparse_program
from repro.trace.file_io import salvage_trace, write_trace
from repro.workloads.base import get_workload, registry


def _spec_from_source(args):
    """Build a WorkloadSpec from a self-describing source file."""
    import json
    import os

    from repro.workloads.base import spec_from_source

    with open(args.source, "r", encoding="utf-8") as fh:
        text = fh.read()
    params = None
    if args.params:
        if os.path.exists(args.params):
            with open(args.params, "r", encoding="utf-8") as fh:
                raw = fh.read()
        else:
            raw = args.params
        params = json.loads(raw)
    return spec_from_source(
        text,
        name=os.path.basename(args.source),
        num_nodes=args.nodes,
        cache_size=args.cache_size,
        block_size=args.block_size,
        assoc=args.assoc,
        params=params,
    )


def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_version(parser, "cachier-annotate")
    parser.add_argument(
        "--workload", default="matmul_racing", choices=sorted(registry())
    )
    parser.add_argument(
        "--source", metavar="FILE",
        help="annotate a pseudocode source file instead of a built-in "
             "workload; the file must carry inline `array` declarations "
             "(see unparse_program(declarations=True))",
    )
    parser.add_argument(
        "--nodes", type=int, default=4,
        help="processor count for --source runs (default 4)",
    )
    parser.add_argument(
        "--cache-size", type=int, default=8192,
        help="per-node cache bytes for --source runs (default 8192)",
    )
    parser.add_argument(
        "--block-size", type=int, default=32,
        help="cache block bytes for --source runs (default 32)",
    )
    parser.add_argument(
        "--assoc", type=int, default=4,
        help="cache associativity for --source runs (default 4)",
    )
    parser.add_argument(
        "--params", metavar="JSON",
        help="for --source: per-node parameter bindings as JSON, either "
             'inline or a file path, e.g. \'{"0": {"Lo": 0, "Hi": 7}}\'',
    )
    parser.add_argument(
        "--policy",
        default="performance",
        choices=[p.value for p in Policy],
    )
    parser.add_argument("--prefetch", action="store_true")
    parser.add_argument(
        "--history", type=int, default=1, help="epoch history depth (paper: 1)"
    )
    parser.add_argument(
        "--save-trace", metavar="PATH", help="also write the trace file"
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="annotate from an existing trace file instead of running the "
             "trace-mode simulation; a truncated or corrupted file is "
             "salvaged down to its complete epochs (with a prominent "
             "warning) rather than rejected",
    )
    parser.add_argument(
        "--faults", type=int, metavar="SEED", default=None,
        help="inject the seeded fault tape (repro.faults) into the trace "
             "run; per-epoch miss sets — and therefore the annotations — "
             "are invariant under it",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="run the online coherence invariant checker during the trace "
             "run (failures exit 2 with a diagnostic)",
    )
    parser.add_argument(
        "--report", action="store_true", help="print the data-race report"
    )
    parser.add_argument(
        "--cost-report", action="store_true",
        help="print the static CICO cost estimate for the annotated program",
    )
    parser.add_argument(
        "--suggest", action="store_true",
        help="print restructuring suggestions (locks / padding / "
             "privatization) derived from the sharing report",
    )
    parser.add_argument(
        "--output", metavar="PATH",
        help="also write the annotated source to a file",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="observe the trace run and print its metric summary",
    )
    parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write a Chrome trace-event JSON of the trace run (open in "
             "Perfetto); implies --obs",
    )
    args = parser.parse_args(argv)

    if args.source:
        spec = _spec_from_source(args)
    else:
        spec = get_workload(args.workload)
    observer = None
    if args.obs or args.trace_out:
        from repro.obs.session import Observer

        observer = Observer(chrome=bool(args.trace_out),
                            meta={"name": spec.name, "mode": "trace"})
    if args.trace:
        trace, salvage_warnings = salvage_trace(args.trace)
        for warning in salvage_warnings:
            print(f"// WARNING: {args.trace}: {warning}")
    else:
        trace = trace_program(spec.program, spec.config, spec.params_fn,
                              observer=observer,
                              faults_seed=args.faults, verify=args.verify)
    if args.save_trace:
        write_trace(trace, args.save_trace)
    cachier = Cachier(
        spec.program,
        trace,
        params_fn=spec.params_fn,
        cache_size=spec.cachier_cache_size,
    )
    result = cachier.annotate(
        Policy(args.policy), prefetch=args.prefetch, history=args.history
    )
    print(f"// {spec.name}: {args.policy} CICO"
          + (" + prefetch" if args.prefetch else ""))
    print(unparse_program(result.program))
    stats = result.stats
    print(
        f"// annotations: {stats.boundary} at epoch boundaries, "
        f"{stats.near} near references ({stats.hoisted} hoisted), "
        f"{stats.prefetches} prefetch sites, {stats.comments} flags"
    )
    if observer is not None and observer.observation is not None:
        from repro.obs.cli import render_observation

        print(render_observation(observer.observation))
        if args.trace_out:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(observer.observation, args.trace_out)
            print(f"// chrome trace of the trace run written to "
                  f"{args.trace_out}")
    if args.report:
        print(result.report.render())
    if args.cost_report:
        from repro.cico.report import estimate_costs

        cost = estimate_costs(
            result.program,
            spec.params_fn,
            spec.config.num_nodes,
            block_size=spec.config.block_size,
        )
        print(cost.render())
    if args.suggest:
        from repro.cachier.suggest import advise

        print(advise(result.report).render())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(unparse_program(result.program))
    return 0


def main(argv=None) -> int:
    return run_cli(_main, argv, prog="cachier-annotate")


if __name__ == "__main__":
    raise SystemExit(main())
