"""Overhead guard for always-on verification.

``repro-serve`` now runs bench jobs with ``--verify`` on by default; two
numbers justify the flip, and this bench measures both:

* **The gate (<10%, CI-enforced): a cached service round trip.**  The
  service memoizes job results by content hash, so verification executes
  once per unique job; every later submission of the same job is served
  from the artifact cache.  The guard runs two in-process job queues
  (:class:`~repro.service.queue.JobQueue`) at once, one per mode, each
  holding the same bench job (run once, outside the clock), and times
  cache-hit round trips of the job with verification on vs off.  The
  verified flavour may add ``--threshold`` plus a 1 ms absolute floor
  (cache hits are sub-millisecond, where a pure ratio would amplify
  scheduler noise).  This pins the design property that verification
  cost never leaks into the cache-hit path: a naive service that
  re-verified artifacts on every serve would fail here.

* **The backstop (35%): the cold (first-execution) overhead.**  One
  ``bench_workload`` run with the checker vs without, a pair per round,
  so that a pathological regression still fails even though the honest
  steady-state number is the cached one.

Both time the two modes in pairs within one run, interleaved call by
call, with the leading mode alternating pair by pair
(:func:`paired_guard.paired_times`), and judge the pairs with
:func:`paired_guard.paired_verdict` — compare.py's rule: a guard fails
only when the verified mode is slower in at least 9 of every 10 pairs
*and* the median pair exceeds the budget.  Host drift hits both halves
of a pair alike.  All timings are process CPU time, immune to co-tenant
wall-clock stalls.

Usage::

    PYTHONPATH=src python benchmarks/verify_overhead_bench.py \\
        --workload mp3d --pairs 10 --threshold 0.10

Prints a JSON summary to stdout; exits 1 when a guard fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import tempfile

from paired_guard import paired_times, paired_verdict

#: absolute tolerance added to the cached-round-trip gate: cache hits are
#: sub-millisecond, where a pure ratio would amplify scheduler noise into
#: spurious failures
CACHED_FLOOR_S = 0.001


@contextlib.contextmanager
def _cached_job(workload: str, verify: bool):
    """A job queue whose cache holds the bench job; yields one cache-hit
    round trip of that job."""
    from repro.service.queue import JobQueue, ServiceConfig

    data_dir = tempfile.mkdtemp(prefix="verify-bench-")
    queue = JobQueue(ServiceConfig(data_dir=data_dir))
    params = {"workload": workload, "verify": verify}
    try:
        queue.start()
        queue.submit("bench", params)
        queue.drain(timeout=600)

        def round_trip() -> None:
            submitted = queue.submit("bench", params)
            queue.drain(timeout=60)
            if not submitted["cached"]:
                raise RuntimeError("re-submission was not served from cache")

        yield round_trip
    finally:
        queue.stop()
        shutil.rmtree(data_dir, ignore_errors=True)


def _cold_run(workload: str, verify: bool) -> None:
    from repro.harness.pool import clear_variant_cache
    from repro.obs.baseline import bench_workload

    clear_variant_cache()  # a first execution traces and annotates too
    bench_workload(workload, verify=verify)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="verify-overhead guards: cached service round trip "
                    "(gated) and cold bench run (backstop)",
    )
    parser.add_argument("--workload", default="mp3d",
                        help="Figure-6 workload to bench (default mp3d)")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs of cache-hit batches, and of cold runs "
                             "(default 10)")
    parser.add_argument("--hits", type=int, default=5,
                        help="cache-hit round trips per batch (default 5)")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max tolerated cached-round-trip overhead "
                             "(default 0.10)")
    parser.add_argument("--cold-threshold", type=float, default=0.35,
                        help="regression backstop on the cold overhead "
                             "(default 0.35)")
    args = parser.parse_args(argv)

    with _cached_job(args.workload, False) as trip_off, \
            _cached_job(args.workload, True) as trip_on:
        cached_off, cached_on = paired_times(
            {False: trip_off, True: trip_on}, args.pairs, args.hits)
    cached = paired_verdict(cached_off, cached_on, args.threshold,
                            CACHED_FLOOR_S)
    _cold_run(args.workload, verify=False)  # warm imports outside the clock
    cold_off, cold_on = paired_times(
        {verify: lambda verify=verify: _cold_run(args.workload, verify)
         for verify in (False, True)},
        args.pairs, 1)
    cold = paired_verdict(cold_off, cold_on, args.cold_threshold)
    summary = {
        "workload": args.workload,
        "cached_off_s": round(statistics.median(cached_off), 6),
        "cached_on_s": round(statistics.median(cached_on), 6),
        "cached_overhead_frac": cached["median_overhead_frac"],
        "cached_on_slower": cached["on_slower"],
        "cached_pairs": cached["pairs"],
        "threshold_frac": args.threshold,
        "cold_threshold_frac": args.cold_threshold,
        "cached_ok": cached["ok"],
        "cold_ok": cold["ok"],
        "ok": cached["ok"] and cold["ok"],
        "cold_overhead_frac": cold["median_overhead_frac"],
        "cold_on_slower": cold["on_slower"],
        "cold_pairs": cold["pairs"],
        "cold_off_s": [round(v, 4) for v in cold_off],
        "cold_on_s": [round(v, 4) for v in cold_on],
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not cached["ok"]:
        print(
            f"verified cache-hit round trip exceeds its budget "
            f"({args.threshold:.0%} + {CACHED_FLOOR_S * 1e3:.0f}ms floor) in "
            f"the median of {cached['pairs']} pairs, slower in "
            f"{cached['on_slower']}: {cached['median_overhead_frac']:+.1%}",
            file=sys.stderr,
        )
    if not cold["ok"]:
        print(
            f"cold verify overhead {cold['median_overhead_frac']:.1%} "
            f"(median of {cold['pairs']} pairs) exceeds the "
            f"{args.cold_threshold:.0%} backstop", file=sys.stderr,
        )
    return 0 if summary["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
