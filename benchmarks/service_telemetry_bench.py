"""Telemetry overhead guard for the annotation service.

Measures the cached-submission round trip — the daemon's hottest path:
one HTTP POST, one ledger lookup, zero simulator cycles — against two
in-process daemons, one with telemetry collecting and one with
``--no-telemetry``, and fails when telemetry costs more than a threshold
(CI pins 5%).

Both daemons run at once, each warmed with one real annotate job.  The
guard then times ``--pairs`` pairs of batches of ``--requests`` cached
submissions, one batch per daemon, the two batches of a pair interleaved
request by request (:func:`paired_guard.paired_times`, process CPU
time).  A handler records its telemetry after it has sent the response,
so each request is followed by a short sleep inside its timing that lets
its daemon finish it.  The pairs are judged with
:func:`paired_guard.paired_verdict` (compare.py's rule): telemetry is
over budget only when its batch is slower in at least 9 of every 10
pairs *and* the median pair's overhead exceeds the threshold.  Host
interference hits both halves of a pair alike, so the verdict holds on a
loaded host where one minimum per mode did not.

Usage::

    PYTHONPATH=src python benchmarks/service_telemetry_bench.py \\
        --requests 60 --pairs 40 --threshold 0.05

Prints a JSON summary to stdout; exits 1 when telemetry is over budget.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import statistics
import sys
import tempfile

from paired_guard import paired_times, paired_verdict

WORKLOAD = "matmul_racing"
#: seconds after each request for its daemon to finish recording it
SETTLE_S = 0.0005


@contextlib.contextmanager
def _daemon(telemetry: bool):
    """An in-process daemon whose cache holds one annotate job; yields a
    submit function for that job (every call a pure cache hit)."""
    from repro.service.app import serve_background
    from repro.service.client import ServiceClient
    from repro.service.queue import JobQueue, ServiceConfig

    with tempfile.TemporaryDirectory() as data_dir:
        queue = JobQueue(ServiceConfig(
            data_dir=data_dir, telemetry=telemetry,
        ))
        server, _thread = serve_background(queue)
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            params = {"workload": WORKLOAD, "verify": False}
            payload = client.submit("annotate", params)
            if not payload["cached"]:
                client.wait(payload["id"], timeout=120.0)
            assert client.submit("annotate", params)["cached"]
            yield lambda: client.submit("annotate", params)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            queue.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cached round-trip overhead: telemetry on vs off",
    )
    parser.add_argument("--requests", type=int, default=60,
                        help="cached submissions per batch (default 60)")
    parser.add_argument("--pairs", type=int, default=40,
                        help="pairs of batches, one per mode (default 40)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="max tolerated relative overhead (default 0.05)")
    args = parser.parse_args(argv)

    with _daemon(False) as submit_off, _daemon(True) as submit_on:
        off, on = paired_times({False: submit_off, True: submit_on},
                               args.pairs, args.requests, SETTLE_S)
    verdict = paired_verdict(off, on, args.threshold)
    summary = {
        "workload": WORKLOAD,
        "requests_per_batch": args.requests,
        "telemetry_off_us": round(statistics.median(off) * 1e6, 2),
        "telemetry_on_us": round(statistics.median(on) * 1e6, 2),
        "overhead_frac": verdict["median_overhead_frac"],
        "threshold_frac": args.threshold,
        **verdict,
        "off_us": [round(v * 1e6, 2) for v in off],
        "on_us": [round(v * 1e6, 2) for v in on],
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not summary["ok"]:
        print(
            f"telemetry overhead {summary['overhead_frac']:.1%} (median of "
            f"{args.pairs} pairs, on slower in {verdict['on_slower']}) "
            f"exceeds the {args.threshold:.0%} budget", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
