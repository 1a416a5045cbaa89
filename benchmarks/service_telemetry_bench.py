"""Telemetry overhead guard for the annotation service.

Measures the cached-submission round trip — the daemon's hottest path:
one HTTP POST, one ledger lookup, zero simulator cycles — against two
in-process daemons, one with telemetry collecting and one with
``--no-telemetry``, and asserts the relative overhead stays under a
threshold (CI pins 5%).

Each mode warms its cache with one real annotate job, then times
``--requests`` cached submissions per batch.  The per-request cost is the
*minimum over batches* (the standard floor-of-noise estimator: scheduling
jitter only ever adds time), so a single noisy batch cannot fail the
guard spuriously.

Usage::

    PYTHONPATH=src python benchmarks/service_telemetry_bench.py \
        --requests 200 --batches 3 --threshold 0.05

Prints a JSON summary to stdout; exits 1 when the overhead exceeds the
threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time

WORKLOAD = "matmul_racing"


def _measure_mode(telemetry: bool, requests: int, batches: int) -> dict:
    """Per-request cached round-trip seconds for one daemon mode."""
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
            # every request from here on is a pure cache hit
            assert client.submit("annotate", params)["cached"]
            batch_s = []
            for _ in range(batches):
                start = time.perf_counter()
                for _ in range(requests):
                    client.submit("annotate", params)
                batch_s.append(time.perf_counter() - start)
        finally:
            client.close()
            server.shutdown()
            server.server_close()
            queue.stop()
    return {
        "telemetry": telemetry,
        "batches_s": [round(b, 6) for b in batch_s],
        "per_request_s": min(batch_s) / requests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cached round-trip overhead: telemetry on vs off",
    )
    parser.add_argument("--requests", type=int, default=200,
                        help="cached submissions per batch (default 200)")
    parser.add_argument("--batches", type=int, default=3,
                        help="batches per mode; min wins (default 3)")
    parser.add_argument("--threshold", type=float, default=0.05,
                        help="max tolerated relative overhead (default 0.05)")
    args = parser.parse_args(argv)

    off = _measure_mode(False, args.requests, args.batches)
    on = _measure_mode(True, args.requests, args.batches)
    overhead = on["per_request_s"] / off["per_request_s"] - 1.0
    summary = {
        "workload": WORKLOAD,
        "requests_per_batch": args.requests,
        "batches": args.batches,
        "telemetry_off_us": round(off["per_request_s"] * 1e6, 2),
        "telemetry_on_us": round(on["per_request_s"] * 1e6, 2),
        "overhead_frac": round(overhead, 4),
        "threshold_frac": args.threshold,
        "ok": overhead <= args.threshold,
        "modes": [off, on],
    }
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    if not summary["ok"]:
        print(
            f"telemetry overhead {overhead:.1%} exceeds the "
            f"{args.threshold:.0%} budget", file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
