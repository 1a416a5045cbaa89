"""End-to-end benchmark of the Cachier reproduction.

One workload, as the command in ``BENCHMARK.json`` runs it (prints every
metric by name with its unit, then one JSON result line)::

    python3 benchmarks/e2e/run.py --workload fig6 --seed 1 --seconds 15 --trace 0

Every workload, each in a fresh subprocess, with results appended to
``DIR/results.jsonl`` (``--traced`` adds the traced runs and
``DIR/spans.json``, a Chrome trace that opens in Perfetto)::

    PYTHONPATH=src python -m benchmarks.e2e.run --seed 1 --out DIR [--traced]

Record the oracle for a new seed (never overwrites an existing entry)::

    python3 benchmarks/e2e/run.py --record-expected --seed 3

See ``benchmarks/e2e/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[2]
HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
WORKLOADS = ("fig6", "annotate", "observed", "service")
#: set-ups measured per untraced run (this one plus fresh subprocesses)
SETUP_SAMPLES = 3
#: hard limit on one workload subprocess
RUN_TIMEOUT_S = 175
#: spans.json process id of the daemon's HTTP track (its jobs track is +1)
DAEMON_PID = 100


def _bootstrap() -> None:
    """Make ``repro`` (from ``src/``) and this package importable."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"run.py: error: no src/repro under {ROOT}; run the "
                 f"benchmark from a full checkout of the repository")
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_expected() -> dict:
    if not EXPECTED.exists():
        return {}
    return json.loads(EXPECTED.read_text(encoding="utf-8"))


def _workdir(name: str) -> Path:
    path = ROOT / ".bench_build" / f"e2e-{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _probe_setups(name: str, seed: int, seconds: float, count: int) -> list[float]:
    """Set-up times of ``count`` fresh subprocesses that set up and exit."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
            timeout=RUN_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probe: bool = False, spans_pid: int = 1, workload=None,
                 setup_samples: int = SETUP_SAMPLES) -> dict:
    """One run of one workload in this process.

    ``workload`` replaces the default instance (tests pass small sizes).
    Returns ``{"record": <results.jsonl record>, "spans": [...]}``; with
    ``probe`` only set up, tear down and report the set-up time.
    """
    from benchmarks.e2e import metrics as m

    oracle = load_expected()
    workdir = _workdir(name)
    try:
        if name == "service":
            from benchmarks.e2e.service import Service

            wl = workload or Service(seed, oracle, seconds)
            values, extra = _run_service(wl, trace, probe, workdir)
        else:
            from benchmarks.e2e.workloads import BATCH

            wl = workload or BATCH[name](seed, oracle)
            values, extra = _run_batch(wl, seed, seconds, trace, probe,
                                       workdir, spans_pid)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if probe:
        return {"setup_s": values["setup_s"]}
    if not trace:
        values["setup_s"] = m.median([values["setup_s"]] + _probe_setups(
            name, seed, seconds, setup_samples - 1))
        values["peak_rss_mb"] = extra.pop("peak_rss_mb")
    section = "per_layer" if trace else "end_to_end"
    units = m.units(section)
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"{name}: no value for declared {sorted(missing)}")
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "passes": extra["passes"],
        "correct": extra["failed"] == 0 and not extra["problems"],
        "attempted": extra["attempted"], "failed": extra["failed"],
        "metrics": {key: {"value": values[key], "unit": units[key]}
                    for key in units},
        # the host's speed during a batch run: raw op time = scaled op
        # time * probe / reference
        "probe_ms": extra["probe_s"] * 1e3 if extra["probe_s"] else None,
        "problems": extra["problems"][:50],
    }
    return {"record": record, "spans": extra.get("spans", [])}


def _run_batch(wl, seed, seconds, trace, probe, workdir, spans_pid):
    from benchmarks.e2e import metrics as m
    from benchmarks.e2e.spans import SpanTracer
    from benchmarks.e2e.workloads import measure

    wl.setup(workdir)
    setup_s = (time.perf_counter() - T0) * m.host_scale()
    if probe:
        return {"setup_s": setup_s}, {}
    tracer = SpanTracer(spans_pid, f"{wl.name} seed {seed}") if trace else None
    run = measure(wl, seconds, seed, tracer)
    problems = run.problems
    if tracer is None:
        values = m.latency_metrics(run.item_medians_ms())
        values["setup_s"] = setup_s
    else:
        values = m.layer_metrics(
            tracer, run.passes, wl.counts,
            run.item_times_s if wl.name == "fig6" else {})
        values["tracing_overhead_frac"] = run.overhead_frac
    final = wl.final_check()
    extra = {
        "passes": run.passes, "attempted": run.attempted,
        "failed": min(run.attempted, run.failed + len(final)),
        "problems": problems + final, "peak_rss_mb": m.own_peak_rss_mb(),
        "spans": tracer.chrome_trace() if tracer is not None else [],
        "probe_s": run.probe_s,
    }
    return values, extra


def _run_service(wl, trace, probe, workdir):
    from benchmarks.e2e import metrics as m

    try:
        wl.setup(workdir)
        setup_s = (time.perf_counter() - T0) * m.host_scale()
        if probe:
            return {"setup_s": setup_s}, {}
        load = wl.measure()
        bad_writes, write_problems = wl.check_writes(load["finished"])
    finally:
        wl.teardown()
    latency, layer = wl.metrics(load)
    if trace:
        values = {key: 0.0 for key in m.units("per_layer")}
        values.update(layer)
    else:
        values = dict(latency, setup_s=setup_s)
    extra = {
        "passes": 1, "attempted": load["attempted"],
        "failed": min(load["attempted"], load["failed"] + bad_writes),
        "problems": load["problems"] + write_problems,
        "peak_rss_mb": load["peak_rss_mb"], "probe_s": None,
        # the daemon's own session trace, on process ids clear of the
        # batch workloads' (its clock starts at daemon start)
        "spans": [dict(event, pid=DAEMON_PID + event["pid"])
                  for event in load["trace"]] if trace else [],
    }
    return values, extra


def print_result(record: dict) -> None:
    """Every metric by name with its unit, then the JSON result line."""
    from benchmarks.e2e import metrics as m

    print(f"# {record['workload']} seed {record['seed']} "
          f"trace {record['trace']}: {record['attempted']} ops, "
          f"{record['failed']} failed, {record['passes']} pass(es)")
    if record["probe_ms"]:
        print(f"# op times scaled to the reference host speed: speed probe "
              f"{record['probe_ms']:.3f} ms here, "
              f"{m.PROBE_REF_S * 1e3:.3f} ms at reference")
    for key, metric in record["metrics"].items():
        print(f"{key:34s} {metric['value']:.6g} {metric['unit']}")
    for problem in record["problems"][:20]:
        print(f"# FAIL {problem}", file=sys.stderr)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def _append(out: Path, record: dict) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def orchestrate(seed: int, seconds: float, out: Path, traced: bool,
                names=WORKLOADS) -> int:
    """Each workload in a fresh subprocess, untraced and then (``traced``)
    traced; results go to ``out/results.jsonl`` and ``out/spans.json``."""
    ok = True
    for trace in (0, 1) if traced else (0,):
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace), "--out", str(out)],
                stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S + 10,
            )
            ok &= proc.returncode == 0
    if traced:
        events = []
        for name in names:
            part = out / f"spans-{name}.json"
            if part.exists():
                events += json.loads(part.read_text(encoding="utf-8"))
                part.unlink()
        (out / "spans.json").write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8")
    return 0 if ok else 1


def record_expected(seed: int, workdir: Path) -> dict:
    """The oracle entry for ``seed``: Figure-6 cycles, the digest of every
    annotate combination's output, and the digest of every service
    program's ``annotated.src``."""
    from benchmarks.e2e.service import ORACLE_PROGRAMS, annotate_text, corpus
    from benchmarks.e2e.service import sha256, source_params
    from benchmarks.e2e.workloads import Annotate, Fig6, measure

    fig6 = Fig6(seed, {})
    annotate = Annotate(seed, {})
    for wl in (fig6, annotate):
        wl.setup(workdir)
        run = measure(wl, 0, seed)  # one pass, checked without an oracle
        problems = run.problems + wl.final_check()
        if problems:
            raise RuntimeError("; ".join(problems))
    return {
        "fig6": fig6.cycles,
        "annotate": annotate.digests,
        "service": {
            name: sha256(annotate_text(source_params(family, kwargs)))
            for name, family, kwargs in corpus(seed, ORACLE_PROGRAMS)
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement length (default: run_seconds in "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path,
                        help="append results to OUT/results.jsonl; without "
                        "--workload, run every workload")
    parser.add_argument("--traced", action="store_true",
                        help="with --out: repeat every workload traced and "
                        "write OUT/spans.json")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-expected", action="store_true",
                        help="add the oracle entry for --seed to "
                        "expected.json")
    args = parser.parse_args(argv)
    _bootstrap()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds
    if seconds is None:
        from benchmarks.e2e.metrics import declared

        seconds = declared()["run_seconds"]

    if args.record_expected:
        oracle = load_expected()
        if str(args.seed) in oracle:
            print(f"run.py: expected.json already holds seed {args.seed}; "
                  f"not overwriting it", file=sys.stderr)
            return 2
        workdir = _workdir("record")
        try:
            oracle[str(args.seed)] = record_expected(args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        tmp = EXPECTED.with_suffix(".tmp")
        tmp.write_text(json.dumps(oracle, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
        tmp.replace(EXPECTED)
        return 0
    if args.workload is None:
        if args.out is None:
            parser.error("give --workload, or --out to run every workload")
        return orchestrate(args.seed, seconds, args.out, args.traced)

    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace), probe=args.setup_probe,
                          spans_pid=WORKLOADS.index(args.workload) + 1)
    if args.setup_probe:
        print(json.dumps(result))
        return 0
    record = result["record"]
    if args.out is not None:
        _append(args.out, record)
        if result["spans"]:
            (args.out / f"spans-{args.workload}.json").write_text(
                json.dumps(result["spans"]), encoding="utf-8")
    print_result(record)
    return 0  # a failed check is reported as "correct": false


if __name__ == "__main__":
    raise SystemExit(main())
