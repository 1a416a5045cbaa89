"""The batch workloads (``fig6``, ``annotate``, ``observed``), their
correctness checks, and the loop that measures them.

A batch workload is a fixed work list of ops.  One *pass* runs every op
once in a seeded order; a run makes whole passes until the next one would
end after ``--seconds`` (always at least one), so every run measures the
same mix of ops.  Each op is checked after it is timed:

* against ``expected.json`` when it holds an entry for the seed;
* at every seed, against properties that need no oracle: CICO directives
  never change what a program computes (every variant leaves the same
  final shared memory as the plain program, bar mp3d's racy cell array);
  the cycles of benchmarks whose access pattern does not depend on the
  data seed equal the committed seed-1 cycles; observation never moves
  cycles; the online verifier finds nothing; annotation is deterministic
  and its source re-parses to the same text.
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from pathlib import Path

from benchmarks.e2e.metrics import ScaledTimes, median
from repro.cachier.annotator import Cachier, Policy
from repro.harness import runner, variants
from repro.lang import unparse
from repro.obs.session import Observer
from repro.trace import file_io
from repro.workloads.base import get_workload, spec_from_source

#: the paper's Figure-6 benchmarks, in its order
FIG6 = ("barnes", "ocean", "mp3d", "matmul", "tomcatv")
#: Size overrides.  matmul, ocean and mp3d run the configuration of their
#: committed BENCH baselines; barnes and tomcatv run one time step instead
#: of three so that a whole Figure-6 sweep fits in one benchmark run.
SIZES = {"barnes": {"steps": 1}, "tomcatv": {"steps": 1}}
#: workloads without a data-seed parameter
UNSEEDED = ("jacobi",)
#: benchmarks whose memory-access pattern does not depend on the data
#: seed: their cycles equal the seed-1 oracle at every seed
SEED_INVARIANT = ("ocean", "matmul", "tomcatv")
#: arrays whose final values depend on timing (mp3d's cell counters are
#: the data races Cachier reports), left out of the value comparison
RACY = {"mp3d": ("CELL",)}
OBSERVED = ("mp3d", "ocean", "barnes", "matmul")
ANNOTATE = FIG6 + ("matmul_racing", "jacobi", "fft")
#: untraced repetitions of the calibration ops in a traced run
CALIBRATION_ROUNDS = 3


def make_spec(name: str, seed: int, sizes: dict | None = None):
    """The benchmark's :class:`WorkloadSpec` for ``name`` at ``seed``."""
    kwargs = dict((sizes if sizes is not None else SIZES).get(name, {}))
    if name not in UNSEEDED:
        kwargs["seed"] = seed
    return get_workload(name, **kwargs)


def value_digest(name: str, store) -> str:
    """sha256 over a run's final shared memory, racy arrays left out."""
    racy = RACY.get(name, ())
    digest = hashlib.sha256()
    for array in sorted(store.values):
        if array not in racy:
            digest.update(array.encode())
            digest.update(store.values[array].tobytes())
    return digest.hexdigest()


def directive_sites(result) -> int:
    stats = result.stats
    return stats.boundary + stats.near + stats.prefetches


def expected_cycles(oracle: dict, seed: int, name: str) -> dict | None:
    """Oracle cycles of one Figure-6 benchmark, or None when unknown."""
    entry = oracle.get(str(seed))
    if entry is not None:
        return entry["fig6"][name]
    if name in SEED_INVARIANT and "1" in oracle:
        return oracle["1"]["fig6"][name]
    return None


def compare_cycles(label: str, got: dict, want: dict | None) -> list[str]:
    if want is None or got == want:
        return []
    return [f"{label}: cycles {got} != expected {want}"]


def compare_values(label: str, digests: dict[str, str]) -> list[str]:
    """Every variant must leave the plain program's final memory."""
    plain = digests.get(variants.PLAIN)
    return [
        f"{label}/{variant}: final shared memory differs from plain"
        for variant, digest in digests.items() if digest != plain
    ]


class _Batch:
    """What the batch workloads share: a seeded order per pass, and no
    cross-op check unless a workload adds one."""

    def order(self, rng: random.Random) -> list[str]:
        items = self.items()
        rng.shuffle(items)
        return items

    def final_check(self) -> list[str]:
        return []


class Fig6(_Batch):
    """Figure 6: per benchmark, ``build_variants`` (the trace run and both
    Cachier annotations), then a timing run of every variant.  Each of
    those steps is one op, so the one pass that fits in a run still gives
    27 samples.  A benchmark's build precedes its timing runs."""

    name = "fig6"
    #: ops timed untraced in a traced run, for the tracing overhead
    calibration = ("mp3d/build", "mp3d/plain", "mp3d/hand", "mp3d/cachier",
                   "mp3d/cachier+pf")

    def __init__(self, seed: int, oracle: dict, sizes: dict | None = None,
                 benchmarks=FIG6):
        self.seed = seed
        self.oracle = oracle
        self.sizes = sizes
        self.benchmarks = tuple(benchmarks)
        self.planned: dict[str, tuple[str, ...]] = {}
        self.built: dict[str, tuple] = {}
        self.runs: dict[str, dict[str, tuple[int, str]]] = {}
        #: cycles of every benchmark whose variants have all run
        self.cycles: dict[str, dict[str, int]] = {}
        self.counts = {"cachier.directives": 0}

    def setup(self, workdir: Path) -> None:
        for name in self.benchmarks:
            spec = make_spec(name, self.seed, self.sizes)
            self.planned[name] = variants.planned_variants(spec)

    def items(self) -> list[str]:
        return [f"{name}/{step}" for name in self.benchmarks
                for step in ("build",) + self.planned[name]]

    def order(self, rng: random.Random) -> list[str]:
        names = list(self.benchmarks)
        rng.shuffle(names)
        out = []
        for name in names:
            steps = list(self.planned[name])
            rng.shuffle(steps)
            out += [f"{name}/build"] + [f"{name}/{step}" for step in steps]
        return out

    def run(self, key: str):
        name, step = key.split("/", 1)
        if step == "build":
            spec = make_spec(name, self.seed, self.sizes)
            self.built[name] = (spec, variants.build_variants(spec))
            return self.built[name][1]
        spec, vs = self.built[name]
        return runner.run_program(vs.programs[step], spec.config, spec.params_fn)

    def check(self, key: str, out) -> list[str]:
        """A build resets its benchmark; the last timing run compares the
        benchmark's cycles and final memory."""
        name, step = key.split("/", 1)
        if step == "build":
            self.counts["cachier.directives"] += sum(
                directive_sites(result) for result in out.results.values()
            )
            self.runs[name] = {}
            return []
        result, store = out
        runs = self.runs[name]
        runs[step] = (result.cycles, value_digest(name, store))
        if len(runs) < len(self.planned[name]):
            return []
        del self.built[name]
        cycles = self.cycles[name] = {v: c for v, (c, _) in runs.items()}
        want = expected_cycles(self.oracle, self.seed, name)
        return compare_cycles(name, cycles, want) + compare_values(
            name, {v: digest for v, (_, digest) in runs.items()})


class Observed(_Batch):
    """Every planned variant of four benchmarks, run observed and verified."""

    name = "observed"
    calibration = ("mp3d/plain", "mp3d/hand", "mp3d/cachier", "mp3d/cachier+pf")

    def __init__(self, seed: int, oracle: dict, sizes: dict | None = None,
                 benchmarks=OBSERVED):
        self.seed = seed
        self.oracle = oracle
        self.sizes = sizes
        self.benchmarks = tuple(benchmarks)
        self.sets: dict[str, tuple] = {}
        self.cycles: dict[str, dict[str, int]] = {}
        self.digests: dict[str, dict[str, str]] = {}
        self.counts = {"verify.checks": 0}

    def setup(self, workdir: Path) -> None:
        for name in self.benchmarks:
            spec = make_spec(name, self.seed, self.sizes)
            self.sets[name] = (spec, variants.build_variants(spec))

    def items(self) -> list[str]:
        return [
            f"{name}/{variant}"
            for name, (_spec, vs) in self.sets.items() for variant in vs.programs
        ]

    def run(self, key: str):
        name, variant = key.split("/", 1)
        spec, vs = self.sets[name]
        observer = Observer(profile=True, critpath=True,
                            meta={"name": key, "workload": name,
                                  "variant": variant})
        return runner.run_program(
            vs.programs[variant], spec.config, spec.params_fn,
            observer=observer, verify=True, verify_label=key,
        )

    def check(self, key: str, out) -> list[str]:
        name, variant = key.split("/", 1)
        result, store = out
        report = result.extra["verify_report"]
        self.counts["verify.checks"] += sum(report.checks.values())
        self.cycles.setdefault(name, {})[variant] = result.cycles
        self.digests.setdefault(name, {})[variant] = value_digest(name, store)
        problems = [] if report.ok else [f"{key}: verify: {report.error}"]
        if not sum(report.checks.values()):
            problems.append(f"{key}: verify ran no checks")
        want = expected_cycles(self.oracle, self.seed, name)
        if want is not None and result.cycles != want[variant]:
            problems.append(
                f"{key}: observed cycles {result.cycles} != {want[variant]}"
            )
        return problems

    def final_check(self) -> list[str]:
        problems = []
        rng = random.Random(f"final-{self.seed}")
        for name, (spec, vs) in self.sets.items():
            problems += compare_values(name, self.digests.get(name, {}))
            if expected_cycles(self.oracle, self.seed, name) is not None:
                continue
            # no oracle: an unobserved run of one seeded variant is the
            # reference (all of them would add half a pass to the run)
            variant = rng.choice(sorted(vs.programs))
            result, _ = runner.run_program(vs.programs[variant], spec.config,
                                           spec.params_fn)
            got = self.cycles.get(name, {}).get(variant)
            if got is not None and got != result.cycles:
                problems.append(
                    f"{name}/{variant}: observed cycles {got} != "
                    f"unobserved {result.cycles}"
                )
        return problems


class Annotate(_Batch):
    """``cachier-annotate --trace``: annotate from trace files written in
    setup, over every policy x prefetch x history combination."""

    name = "annotate"
    calibration = tuple(
        f"{name}/{policy}/pf{pf}/h{history}"
        for name in ("mp3d", "ocean") for policy in ("performance", "programmer")
        for pf in (0, 1) for history in (1, 2)
    )

    def __init__(self, seed: int, oracle: dict, sizes: dict | None = None,
                 benchmarks=ANNOTATE):
        self.seed = seed
        self.oracle = oracle
        self.sizes = sizes
        self.benchmarks = tuple(benchmarks)
        self.specs: dict = {}
        self.paths: dict[str, Path] = {}
        self.digests: dict[str, str] = {}
        self.texts: dict[str, str] = {}
        self.counts = {"cachier.directives": 0}

    def setup(self, workdir: Path) -> None:
        for name in self.benchmarks:
            spec = make_spec(name, self.seed, self.sizes)
            trace = runner.trace_program(spec.program, spec.config,
                                         spec.params_fn)
            path = workdir / f"{name}.trace"
            file_io.write_trace(trace, path)
            self.specs[name] = spec
            self.paths[name] = path

    def items(self) -> list[str]:
        return [
            f"{name}/{policy.value}/pf{pf}/h{history}"
            for name in self.benchmarks for policy in Policy
            for pf in (0, 1) for history in (1, 2)
        ]

    def run(self, key: str):
        name, policy, pf, history = key.split("/")
        spec = self.specs[name]
        trace = file_io.read_trace(self.paths[name])
        cachier = Cachier(spec.program, trace, params_fn=spec.params_fn,
                          cache_size=spec.cachier_cache_size)
        result = cachier.annotate(Policy(policy), prefetch=pf == "pf1",
                                  history=int(history[1:]))
        text = unparse.unparse_program(result.program, declarations=True)
        return text, result.report.render(), result

    def check(self, key: str, out) -> list[str]:
        text, report, result = out
        self.counts["cachier.directives"] += directive_sites(result)
        digest = hashlib.sha256((text + "\n" + report).encode()).hexdigest()
        self.texts.setdefault(key, text)
        first = self.digests.setdefault(key, digest)
        problems = [] if first == digest else [f"{key}: output changed between passes"]
        entry = self.oracle.get(str(self.seed))
        if entry is not None and entry["annotate"].get(key) != digest:
            problems.append(f"{key}: output sha256 {digest[:12]} != oracle")
        return problems

    def final_check(self) -> list[str]:
        """The annotated source of every combination parses back to itself."""
        problems = []
        for key, text in self.texts.items():
            spec = self.specs[key.split("/")[0]]
            params = {node: spec.params_fn(node)
                      for node in range(spec.config.num_nodes)}
            again = spec_from_source(text, params=params,
                                     num_nodes=spec.config.num_nodes)
            if unparse.unparse_program(again.program, declarations=True) != text:
                problems.append(f"{key}: annotated source does not round-trip")
        return problems


BATCH = {"fig6": Fig6, "annotate": Annotate, "observed": Observed}


class BatchRun:
    """The outcome of measuring one batch workload."""

    def __init__(self):
        self.passes = 0
        #: every op's duration, by work-list item (untraced: scaled to the
        #: reference host speed)
        self.item_times_s: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.overhead_frac = 0.0
        #: median speed-probe time of an untraced run
        self.probe_s = 0.0

    def item_medians_ms(self) -> list[float]:
        """One latency per work-list item: its median over the passes."""
        return [median(times) * 1e3 for times in self.item_times_s.values()]


def measure(wl, seconds: float, seed: int, tracer=None) -> BatchRun:
    """Run whole passes of ``wl``'s work list for about ``seconds``.

    Ops are timed with ``perf_counter_ns`` and scaled to the reference
    host speed (or, under ``tracer``, timed raw by the op span itself).
    A pass starts only if the previous pass's duration still fits in the
    budget, so the mix of ops is the same in every run.
    """
    # Set-up objects never become garbage: freeze them out of the
    # collector's scans, as if each op ran in a fresh process, and collect
    # each op's garbage after it, untimed, so that peak memory is that of
    # the largest op rather than of whenever the collector last ran.
    gc.collect()
    gc.freeze()
    out = BatchRun()
    if tracer is None:
        _passes(wl, seconds, random.Random(seed), None, out)
        return out
    with tracer.installed():
        _passes(wl, seconds, random.Random(seed), tracer, out)
    # What tracing costs: the calibration ops again, untraced, in the
    # same warm process (median of CALIBRATION_ROUNDS each).
    items = set(wl.items())
    untraced: dict[str, list[float]] = {}
    for _ in range(CALIBRATION_ROUNDS):
        for key in (k for k in wl.calibration if k in items):
            start = time.perf_counter_ns()
            wl.run(key)
            untraced.setdefault(key, []).append(
                (time.perf_counter_ns() - start) / 1e9)
            gc.collect()
    if untraced and untraced.keys() <= out.item_times_s.keys():
        traced = sum(median(out.item_times_s[k]) for k in untraced)
        out.overhead_frac = traced / sum(map(median, untraced.values())) - 1
    return out


def _passes(wl, seconds: float, rng: random.Random, tracer, out: BatchRun):
    # traced times stay raw: the tracing overhead compares them with raw
    # untraced times of the same ops
    scaled = ScaledTimes() if tracer is None else None
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for key in wl.order(rng):
            out.attempted += 1
            result = None
            try:
                if tracer is not None:
                    with tracer.op(key) as event:
                        result = wl.run(key)
                    dur_s = event["args"]["dur_ns"] / 1e9
                else:
                    t0 = time.perf_counter_ns()
                    result = wl.run(key)
                    dur_s = (time.perf_counter_ns() - t0) / 1e9
                problems = wl.check(key, result)
            except Exception as exc:  # one failed op must not end the run
                problems = [f"{key}: {type(exc).__name__}: {exc}"]
                dur_s = None
            if problems:
                out.failed += 1
                out.problems += problems
            result = None
            gc.collect()
            if dur_s is None:
                continue
            if scaled is None:
                out.item_times_s.setdefault(key, []).append(dur_s)
            else:
                scaled.add(key, dur_s)
        out.passes += 1
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break
    if scaled is not None:
        scaled.flush()
        out.item_times_s = scaled.by_item
        out.probe_s = median(scaled.probes)
