"""Metric names, units and the arithmetic that turns samples into metrics.

``BENCHMARK.json`` at the repository root declares every metric with its
unit; the runs emit exactly the declared names (``end_to_end`` untraced,
``per_layer`` traced) and take the units from there.

Batch op times and set-up times are scaled to a reference host speed.  A
shared host runs the same code 1.5-2x slower for seconds to minutes at a
time, which moves raw times of identical runs by up to 50%.
:func:`speed_probe` times a fixed pure-Python loop next to the measured
work; a time ``t`` measured where the probe took ``p`` seconds is reported
as ``t * PROBE_REF_S / p``: what it would have taken on the host at its
reference speed.  (``service`` latencies stay raw; see ``service.py``.)
"""

from __future__ import annotations

import json
import math
import resource
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: seconds :func:`speed_probe` takes on an unslowed 2.0 GHz Xeon vCPU
PROBE_REF_S = 0.010
PROBE_LOOPS = 150_000
#: an untraced batch run reads the host's speed at least this often
PROBE_EVERY_S = 0.25

#: the per-layer metrics every service run fills from outside the daemon
SERVICE_LAYER = (
    "service.accept_ms.p50", "service.queue_wait_ms.p50",
    "service.queue_wait_ms.p90", "service.exec_ms.p50",
    "service.exec_ms.p90", "service.phase.simulate_ms.p50",
    "service.phase.annotate_ms.p50", "service.phase.persist_ms.p50",
    "service.cache_hit_frac", "service.daemon_cpu_s", "service.hit_ms.p50",
    "service.hit_ms.p99", "service.cold_ms.p50", "service.cold_ms.p90",
    "gen.late_ms.p99",
)


def declared() -> dict:
    """``BENCHMARK.json`` as a dict."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


def units(section: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in declared()[section]}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile over sorted samples (the 'inclusive'
    method of :func:`statistics.quantiles`); ``q`` in [0, 1]."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no samples")
    pos = q * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values) -> float:
    return quantile(values, 0.5)


def speed_probe() -> float:
    """Wall seconds of a fixed pure-Python loop: the host's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += (i * 7) & 1023
    return time.perf_counter() - start


def host_scale() -> float:
    """The factor that scales a time measured now to the reference speed
    (median of three probes)."""
    return PROBE_REF_S / median([speed_probe() for _ in range(3)])


class ScaledTimes:
    """Op times scaled to the reference host speed.

    Ops are added as they finish; a probe runs when :data:`PROBE_EVERY_S`
    has passed since the last one (or on :meth:`flush`), and every op since
    the last probe is scaled by the mean of the two probes around it.
    """

    def __init__(self):
        self.by_item: dict[str, list[float]] = {}
        self.probes = [speed_probe()]
        self._probed_at = time.perf_counter()
        self._pending: list[tuple[str, float]] = []

    def add(self, key: str, seconds: float) -> None:
        self._pending.append((key, seconds))
        if time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        probe = speed_probe()
        scale = PROBE_REF_S / ((self.probes[-1] + probe) / 2)
        for key, seconds in self._pending:
            self.by_item.setdefault(key, []).append(seconds * scale)
        self._pending.clear()
        self.probes.append(probe)
        self._probed_at = time.perf_counter()


def latency_metrics(item_ms: list[float]) -> dict[str, float]:
    """The end-to-end latency metrics over one run's work-list items, each
    already reduced to its median latency in the run.

    A work list mixes ops whose costs differ by orders of magnitude, with
    gaps between them, so a median across items jumps from one item to the
    next under noise; the geometric mean gives the typical op instead."""
    return {
        "op_ms.gmean": math.exp(sum(math.log(ms) for ms in item_ms) / len(item_ms)),
        "op_ms.mean": sum(item_ms) / len(item_ms),
    }


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracer, passes: int, counts: dict,
                  fig6_times_s: dict[str, list[float]]) -> dict[str, float]:
    """Per-layer metrics of a traced batch run, per pass of its work list.

    ``counts`` holds the counts read off public results (directives,
    verify checks); ``fig6_times_s`` the traced duration of every
    ``fig6`` op by item (empty for the other workloads).
    """
    self_s = {layer: ns / 1e9 / passes for layer, ns in tracer.self_ns.items()}
    incl = tracer.incl_ns
    calls = tracer.calls

    def incl_s(name: str) -> float:
        return incl.get(name, 0) / 1e9 / passes

    def n_calls(prefix: str) -> float:
        return sum(n for name, n in calls.items()
                   if name.startswith(prefix)) / passes

    stats = tracer.run_stats
    out = {
        "harness.build_variants_s": incl_s("harness.build_variants"),
        "harness.trace_program_s": incl_s("harness.trace_program"),
        "harness.run_program_s": incl_s("harness.run_program"),
        "harness.self_s": self_s["harness"],
        "interp.self_s": self_s["interp"],
        "interp.events": tracer.events / passes,
        "machine.self_s": self_s["machine"],
        "sim.host_us_per_event": (
            incl.get("machine.run", 0) / 1e3 / tracer.events
            if tracer.events else 0.0
        ),
        "lang.unparse_s": self_s["lang.unparse"],
        "coherence.self_s": self_s["coherence"],
        "coherence.calls": n_calls("coherence."),
        "coherence.hit_frac": (
            stats["hits"] / stats["accesses"] if stats["accesses"] else 0.0
        ),
        "cache.self_s": self_s["cache"],
        "cache.calls": n_calls("cache."),
        "network.self_s": self_s["network"],
        "network.messages": stats["messages"] / passes,
        "obs.self_s": self_s["obs"],
        "obs.events": calls.get("obs.publish", 0) / passes,
        "obs.finalize_s": self_s["obs.finalize"],
        "verify.self_s": self_s["verify"],
        "verify.checks": counts.get("verify.checks", 0) / passes,
        "trace.collect_s": self_s["trace.collect"],
        "trace.read_s": self_s["trace.read"],
        "cachier.epochs_s": self_s["cachier.epochs"],
        "cachier.drfs_s": self_s["cachier.drfs"],
        "cachier.report_s": self_s["cachier.report"],
        "cachier.equations_s": self_s["cachier.equations"],
        "cachier.placement_s": self_s["cachier.placement"],
        "cachier.presentation_s": self_s["cachier.presentation"],
        "cachier.directives": counts.get("cachier.directives", 0) / passes,
        "other.self_s": self_s["bench"],
    }
    for name in ("barnes", "ocean", "mp3d", "matmul", "tomcatv"):
        # one Figure-6 row: the benchmark's build plus its timing runs
        out[f"fig6.{name}_s"] = sum((
            median(times) for key, times in fig6_times_s.items()
            if key.split("/")[0] == name
        ), 0.0)
    out.update(dict.fromkeys(SERVICE_LAYER, 0.0))
    return out
