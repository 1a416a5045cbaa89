"""Console entry points: ``repro-serve`` (daemon) and ``repro-client``.

The daemon writes ``service.json`` — ``{"url", "pid", "version"}`` — into
its data directory once bound, so clients on the same machine can find it
with ``--data-dir`` instead of copying a URL around.

``python -m repro.service.cli serve|client ...`` dispatches to the same
two mains.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Sequence

from repro.cliutil import add_version, package_version, run_cli
from repro.errors import ServiceError
from repro.obs.logs import LOG_LEVELS

SERVICE_FILE = "service.json"


# -------------------------------------------------------------------- serve
def _serve(argv: Sequence[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Annotation-as-a-service daemon: job queue, "
        "content-hash result cache, HTML dashboards.",
    )
    parser.add_argument("--data-dir", required=True,
                        help="ledger + artifact directory (created if needed)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="TCP port (0 picks a free one; default 8642)")
    parser.add_argument("--workers", type=int, default=1,
                        help="concurrent job executors (default 1)")
    parser.add_argument("--pool-jobs", type=int, default=1,
                        help="process-pool width inside sweep jobs")
    parser.add_argument("--no-verify", action="store_true",
                        help="turn off default-on verification for "
                        "served simulations")
    parser.add_argument("--max-retries", type=int, default=3,
                        help="interrupted attempts before a job is abandoned")
    parser.add_argument("--log-file",
                        help="write JSONL logs here instead of stderr")
    parser.add_argument("--log-level", default="INFO", choices=LOG_LEVELS,
                        help="structured log threshold (default INFO)")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="turn off service metrics and tracing "
                        "(structured logs stay on)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the daemon-session Chrome trace here on "
                        "shutdown (default <data-dir>/service.trace.json)")
    add_version(parser, "repro-serve")
    args = parser.parse_args(argv)

    from repro.obs.logs import configure_logging, get_logger
    from repro.service.app import serve
    from repro.service.queue import JobQueue, ServiceConfig
    from repro.util.atomic_write import atomic_write_json

    configure_logging(level=args.log_level, path=args.log_file)
    log = get_logger("repro.service")

    data_dir = Path(args.data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    queue = JobQueue(ServiceConfig(
        data_dir=str(data_dir),
        workers=args.workers,
        pool_jobs=args.pool_jobs,
        verify_default=not args.no_verify,
        max_retries=args.max_retries,
        telemetry=not args.no_telemetry,
    ))
    server = serve(queue, args.host, args.port)
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}"
    atomic_write_json(
        data_dir / SERVICE_FILE,
        {"url": url, "pid": os.getpid(), "version": package_version()},
        indent=2, sort_keys=True,
    )
    if args.log_file:
        # keep the one human-facing line on stderr when logs go to a file
        print(f"repro-serve: listening on {url} "
              f"(data dir {data_dir})", file=sys.stderr, flush=True)
    log.info(
        "daemon listening", url=url, data_dir=str(data_dir),
        workers=queue.config.workers, telemetry=queue.telemetry.enabled,
        log_level=args.log_level,
    )

    def _shutdown(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        log.info("daemon shutting down")
    finally:
        server.shutdown()
        server.server_close()
        queue.stop()
        if queue.telemetry.enabled:
            trace_path = Path(args.trace_out or
                              data_dir / "service.trace.json")
            atomic_write_json(
                trace_path,
                queue.telemetry.tracer.chrome_trace({
                    "url": url, "data_dir": str(data_dir),
                    "version": package_version(),
                }),
            )
            log.info("service trace written", path=str(trace_path))
    return 0


def serve_main(argv: Sequence[str] | None = None) -> int:
    return run_cli(_serve, argv, prog="repro-serve")


# ------------------------------------------------------------------- client
def _endpoint(args) -> str:
    """The daemon URL: ``--url`` wins, else ``--data-dir/service.json``."""
    if args.url:
        return args.url
    if args.data_dir:
        path = Path(args.data_dir) / SERVICE_FILE
        try:
            return json.loads(path.read_text(encoding="utf-8"))["url"]
        except FileNotFoundError:
            raise ServiceError(
                f"no {SERVICE_FILE} in {args.data_dir} — is the daemon "
                f"running with that --data-dir?"
            ) from None
        except (json.JSONDecodeError, KeyError) as exc:
            raise ServiceError(f"corrupt {path}: {exc}") from None
    raise ServiceError("need --url or --data-dir to locate the daemon")


def _params(args) -> dict:
    if not args.params:
        return {}
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        raise ServiceError(f"--params is not JSON: {exc}") from None
    if not isinstance(params, dict):
        raise ServiceError("--params must be a JSON object")
    return params


def _dump(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _render_top(status: dict, metrics: dict) -> str:
    """``repro-client top``: the ops dashboard as fixed-width tables."""
    from repro.harness.reporting import render_table
    from repro.obs.telemetry import family_counts, latency_rows

    jobs = status["jobs"]
    stats = status["stats"]
    parts = [
        f"repro-serve v{status['version']}  "
        f"uptime {status['uptime_s']:.1f}s  "
        f"workers {status['workers']}  "
        f"telemetry {'on' if status.get('telemetry') else 'off'}",
        "",
        render_table(
            ["queued", "running", "done", "failed"],
            [[jobs[s] for s in ("queued", "running", "done", "failed")]],
            title="ledger",
        ),
        render_table(
            list(stats), [list(stats.values())], title="since start",
        ),
    ]
    snap = metrics.get("metrics") or {}
    if snap:
        job_rows = latency_rows(snap, "service.job.latency_ms")
        if job_rows:
            parts.append(render_table(
                ["kind", "jobs", "p50_ms", "p90_ms", "p99_ms", "max_ms"],
                job_rows, title="job latency",
            ))
        http_rows = latency_rows(snap, "service.http.latency_us")
        if http_rows:
            parts.append(render_table(
                ["route", "requests", "p50_us", "p90_us", "p99_us", "max_us"],
                http_rows, title="http latency",
            ))
        counter_rows = [
            [f"{family}{{{labels}}}" if labels else family, value]
            for family in ("service.submissions", "service.jobs.completed",
                           "service.jobs.retries")
            for labels, value in sorted(family_counts(snap, family).items())
        ]
        parts.append(render_table(["counter", "value"], counter_rows,
                                  title="counters"))
    else:
        parts.append("(telemetry disabled: no metrics to show)")
    return "\n\n".join(parts) + "\n"


def _client(argv: Sequence[str] | None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-client",
        description="Submit and inspect repro-serve jobs.",
    )
    parser.add_argument("--url", help="daemon endpoint, e.g. "
                        "http://127.0.0.1:8642")
    parser.add_argument("--data-dir",
                        help="daemon data dir (reads its service.json)")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait in blocking commands")
    add_version(parser, "repro-client")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("submit", help="submit a job")
    p.add_argument("kind", help="annotate | figure6 | bench | profile | "
                   "critpath | verify")
    p.add_argument("--params", help="job parameters as a JSON object")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes")

    p = sub.add_parser("show", help="print one job")
    p.add_argument("id", type=int)

    p = sub.add_parser("wait", help="block until a job finishes")
    p.add_argument("id", type=int)

    sub.add_parser("list", help="print the job ledger")
    sub.add_parser("status", help="print daemon status")
    sub.add_parser("top", help="one-shot terminal snapshot of the daemon's "
                   "operational telemetry")

    p = sub.add_parser("artifact", help="fetch one artifact's bytes")
    p.add_argument("id", type=int)
    p.add_argument("name", help="artifact path, e.g. figure6.txt")
    p.add_argument("-o", "--out", help="write to a file instead of stdout")

    p = sub.add_parser("dashboard",
                       help="export the static HTML dashboard from the "
                       "daemon's data dir (requires --data-dir)")
    p.add_argument("--out", required=True, help="output directory")

    args = parser.parse_args(argv)

    if args.command == "dashboard":
        from repro.service.reports import export_site

        if not args.data_dir:
            raise ServiceError("dashboard export reads the ledger directly: "
                               "pass --data-dir")
        written = export_site(args.data_dir, args.out)
        print(f"wrote {len(written)} pages under {args.out}")
        return 0

    from repro.service.client import ServiceClient

    client = ServiceClient(_endpoint(args))
    if args.command == "submit":
        payload = client.submit(args.kind, _params(args))
        if args.wait and not payload["cached"]:
            payload = client.wait(payload["id"], timeout=args.timeout)
        _dump(payload)
        return 2 if payload["state"] == "failed" and args.wait else 0
    if args.command == "show":
        _dump(client.job(args.id))
        return 0
    if args.command == "wait":
        payload = client.wait(args.id, timeout=args.timeout)
        _dump(payload)
        return 2 if payload["state"] == "failed" else 0
    if args.command == "list":
        _dump(client.jobs())
        return 0
    if args.command == "status":
        _dump(client.status())
        return 0
    if args.command == "top":
        sys.stdout.write(_render_top(client.status(), client.metrics()))
        return 0
    if args.command == "artifact":
        data = client.artifact(args.id, args.name)
        if args.out:
            Path(args.out).write_bytes(data)
        else:
            sys.stdout.buffer.write(data)
        return 0
    raise ServiceError(f"unknown command {args.command!r}")


def client_main(argv: Sequence[str] | None = None) -> int:
    return run_cli(_client, argv, prog="repro-client")


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.service.cli serve|client ...``"""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "serve":
        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        return client_main(argv[1:])
    print("usage: python -m repro.service.cli {serve,client} ...",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
