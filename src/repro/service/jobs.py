"""Job specs: validation/normalization and the per-kind executors.

A *submitted* spec is whatever JSON the client sent; :func:`normalize_spec`
turns it into the canonical form that gets hashed and stored — every
default made explicit, every field validated — so two clients asking for
the same work with differently-spelled specs land on the same cache key.

:func:`execute_job` runs one normalized spec inside the daemon's worker
thread, writing the job's artifact set under its content-hash directory
and returning the JSON result stored in the ledger.  Executors reuse the
existing harness wholesale: the figure6 kind *is* ``sweep_figure6`` (pool
fan-out, obs exports, checkpoint ledger and all), which is what makes a
daemon kill mid-sweep resumable to byte-identical artifacts — the sweep
ledger in the artifact directory survives, and re-execution resumes from
it.

A :class:`~repro.errors.VerifyError` from a verify job is a *result* (the
content conclusively fails verification), not a job failure: it is stored
as ``ok: false`` and memoized like any other result, so re-verifying known
content — clean or violating — never re-runs the simulator.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ServiceError, VerifyError
from repro.obs.telemetry import job_phase
from repro.util.atomic_write import atomic_write_json, atomic_write_text

KINDS = ("annotate", "figure6", "bench", "profile", "critpath", "verify")
POLICIES = ("performance", "programmer")
VARIANTS = ("plain", "hand", "hand+pf", "cachier", "cachier+pf")


@dataclass(frozen=True)
class ExecContext:
    """Daemon-level execution settings every job inherits."""

    pool_jobs: int = 1


# ------------------------------------------------------------- validation
def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ServiceError(f"bad job spec: {message}")


def _known_workload(name) -> str:
    from repro.workloads.base import registry

    _require(isinstance(name, str), f"workload must be a string, got {name!r}")
    _require(
        name in registry(),
        f"unknown workload {name!r} (available: {sorted(registry())})",
    )
    return name


def _policy(params) -> str:
    policy = params.get("policy", "performance")
    _require(policy in POLICIES, f"policy must be one of {POLICIES}")
    return policy


def _variant(params) -> str:
    variant = params.get("variant", "plain")
    _require(variant in VARIANTS, f"variant must be one of {VARIANTS}")
    return variant


def _faults(params):
    seed = params.get("faults")
    _require(
        seed is None or isinstance(seed, int),
        "faults must be an integer seed or null",
    )
    return seed


def _bool(params, name: str, default: bool) -> bool:
    value = params.get(name, default)
    _require(isinstance(value, bool), f"{name} must be a boolean")
    return value


def _source(params) -> dict | None:
    source = params.get("source")
    if source is None:
        return None
    _require(isinstance(source, dict), "source must be an object")
    _require(
        isinstance(source.get("text"), str) and source["text"].strip() != "",
        "source.text must be non-empty pseudocode",
    )
    out = {
        "text": source["text"],
        "name": str(source.get("name", "source")),
        "num_nodes": int(source.get("num_nodes", 4)),
        "cache_size": int(source.get("cache_size", 8192)),
        "block_size": int(source.get("block_size", 32)),
        "assoc": int(source.get("assoc", 4)),
        "params": source.get("params") or {},
    }
    _require(
        isinstance(out["params"], dict),
        "source.params must map node id -> bindings",
    )
    return out


def normalize_spec(kind: str, params: dict | None, *,
                   verify_default: bool = True) -> dict:
    """Validate and canonicalize one submitted job spec.

    ``verify_default`` is the daemon's default-on verification switch: jobs
    that execute simulations run under the online invariant checker unless
    the submission explicitly opts out (``"verify": false``).
    """
    params = dict(params or {})
    _require(kind in KINDS, f"unknown job kind {kind!r} (kinds: {KINDS})")

    if kind == "annotate":
        source = _source(params)
        spec = {
            "kind": kind,
            "source": source,
            "workload": None if source else _known_workload(
                params.get("workload", "matmul_racing")
            ),
            "policy": _policy(params),
            "prefetch": _bool(params, "prefetch", False),
            "history": int(params.get("history", 1)),
            "verify": _bool(params, "verify", verify_default),
        }
        _require(spec["history"] >= 1, "history must be >= 1")
        return spec

    if kind == "figure6":
        benchmarks = params.get("benchmarks")
        if benchmarks is None:
            benchmarks = ["barnes", "ocean", "mp3d", "matmul", "tomcatv"]
        _require(
            isinstance(benchmarks, (list, tuple)) and benchmarks,
            "benchmarks must be a non-empty list",
        )
        return {
            "kind": kind,
            "benchmarks": [_known_workload(b) for b in benchmarks],
            "include_prefetch": _bool(params, "include_prefetch", True),
            "policy": _policy(params),
            "faults": _faults(params),
            "verify": _bool(params, "verify", verify_default),
        }

    if kind == "bench":
        variants = params.get("variants")
        if variants is not None:
            _require(
                isinstance(variants, (list, tuple)) and variants
                and all(v in VARIANTS for v in variants),
                f"variants must be a non-empty list drawn from {VARIANTS}",
            )
            variants = list(variants)
        return {
            "kind": kind,
            "workload": _known_workload(params.get("workload", "mp3d")),
            "variants": variants,
            "verify": _bool(params, "verify", verify_default),
        }

    # profile / critpath / verify share the (workload, variant) shape
    spec = {
        "kind": kind,
        "workload": _known_workload(params.get("workload", "matmul")),
        "variant": _variant(params),
        "policy": _policy(params),
    }
    if kind == "verify":
        spec["faults"] = _faults(params)
        spec["strict"] = _bool(params, "strict", False)
    return spec


# -------------------------------------------------------------- execution
def _annotate_spec(spec: dict):
    """The WorkloadSpec an annotate job runs against."""
    from repro.workloads.base import get_workload, spec_from_source

    source = spec.get("source")
    if source is None:
        return get_workload(spec["workload"])
    return spec_from_source(
        source["text"],
        name=source["name"],
        num_nodes=source["num_nodes"],
        cache_size=source["cache_size"],
        block_size=source["block_size"],
        assoc=source["assoc"],
        params=source["params"],
    )


def _exec_annotate(spec: dict, artifact_dir: str, ctx: ExecContext) -> dict:
    from repro.cachier.annotator import Cachier, Policy
    from repro.harness.runner import trace_program
    from repro.lang.unparse import unparse_program

    wspec = _annotate_spec(spec)
    with job_phase("simulate", verify=spec["verify"]):
        trace = trace_program(
            wspec.program, wspec.config, wspec.params_fn,
            verify=spec["verify"],
        )
    with job_phase("annotate", policy=spec["policy"]):
        cachier = Cachier(
            wspec.program, trace, params_fn=wspec.params_fn,
            cache_size=wspec.cachier_cache_size,
        )
        result = cachier.annotate(
            Policy(spec["policy"]), prefetch=spec["prefetch"],
            history=spec["history"],
        )
        annotated = unparse_program(result.program, declarations=True)
    stats = result.stats
    summary = {
        "name": wspec.name,
        "policy": spec["policy"],
        "prefetch": spec["prefetch"],
        "annotations": {
            "boundary": stats.boundary,
            "near": stats.near,
            "hoisted": stats.hoisted,
            "prefetches": stats.prefetches,
            "comments": stats.comments,
        },
    }
    with job_phase("persist"):
        atomic_write_text(
            os.path.join(artifact_dir, "annotated.src"), annotated
        )
        atomic_write_text(
            os.path.join(artifact_dir, "report.txt"), result.report.render()
        )
        atomic_write_json(
            os.path.join(artifact_dir, "annotate.json"), summary,
            indent=2, sort_keys=True,
        )
    return summary


def _exec_figure6(spec: dict, artifact_dir: str, ctx: ExecContext) -> dict:
    from repro.cachier.annotator import Policy
    from repro.harness.figure6 import render_figure6, sweep_figure6
    from repro.harness.pool import summarize_failures

    obs_dir = os.path.join(artifact_dir, "obs")
    # resume=True: a requeued job picks up where the interrupted sweep's
    # ledger left off; on a fresh job the ledger simply does not exist yet.
    with job_phase("sweep", benchmarks=",".join(spec["benchmarks"])):
        sweep = sweep_figure6(
            tuple(spec["benchmarks"]),
            include_prefetch=spec["include_prefetch"],
            policy=Policy(spec["policy"]),
            obs_dir=obs_dir,
            faults_seed=spec["faults"],
            verify=spec["verify"],
            checkpoint_dir=artifact_dir,
            resume=True,
            jobs=ctx.pool_jobs,
        )
    if sweep.errors:
        raise summarize_failures(
            sweep.errors,
            total=len(sweep.errors) + sum(len(r.cycles) for r in sweep.rows),
        )
    rows = {row.benchmark: dict(row.cycles) for row in sweep.rows}
    with job_phase("persist"):
        table = render_figure6(sweep.rows)
        atomic_write_text(os.path.join(artifact_dir, "figure6.txt"), table)
        atomic_write_json(
            os.path.join(artifact_dir, "figure6.json"),
            {"rows": rows, "benchmarks": spec["benchmarks"]},
            indent=2, sort_keys=True,
        )
    return {"benchmarks": spec["benchmarks"], "rows": rows}


def _exec_bench(spec: dict, artifact_dir: str, ctx: ExecContext) -> dict:
    from repro.obs.baseline import BENCH_VARIANTS, bench_workload, write_bench

    with job_phase("simulate", workload=spec["workload"]):
        bench = bench_workload(
            spec["workload"],
            variants=tuple(spec["variants"] or BENCH_VARIANTS),
            verify=bool(spec.get("verify")),
        )
    with job_phase("persist"):
        path = write_bench(bench, artifact_dir)
    return {
        "workload": spec["workload"],
        "bench_file": os.path.basename(path),
        "cycles": {v: rec["cycles"] for v, rec in bench["variants"].items()},
    }


#: the one report each observed kind persists
_OBSERVED_ARTIFACT = {
    "profile": "attrib.json",
    "critpath": "critpath.json",
    "verify": "verify.json",
}


def _exec_observed(spec: dict, artifact_dir: str, ctx: ExecContext) -> dict:
    """``profile``, ``critpath`` and ``verify``: one run of a named variant
    with the kind's report switched on, persisting that report."""
    from repro.harness.runner import RunSpec, execute

    kind = spec["kind"]
    run = RunSpec(
        spec["workload"], spec["variant"], spec["policy"],
        profile=kind == "profile", critpath=kind == "critpath",
        verify=kind == "verify", strict=bool(spec.get("strict")),
        faults=spec.get("faults"),
    )
    try:
        with job_phase("verify" if run.verify else "simulate",
                       label=run.label):
            result, obs = execute(run)
    except VerifyError as exc:
        report = exc.report.as_dict()
        summary = {"ok": False, "label": run.label,
                   "error": str(exc).splitlines()[0]}
    else:
        if kind == "profile":
            report = obs.attrib
            summary = {
                "cycles": result.cycles,
                "epochs": result.epochs,
                "hot_structures": [row["array"]
                                   for row in report["structures"][:3]
                                   if row["misses"]],
            }
        elif kind == "critpath":
            report = obs.critpath
            summary = {
                "cycles": result.cycles,
                "critical_path_fraction": report["critical_path_fraction"],
                "straggler_epochs": report["straggler_epochs"][:3],
            }
        else:
            report = result.extra["verify_report"].as_dict()
            summary = {
                "ok": True,
                "label": run.label,
                "checks": sum(report["checks"].values()),
                "warnings": len(report["warnings"]),
            }
    with job_phase("persist"):
        atomic_write_json(
            os.path.join(artifact_dir, _OBSERVED_ARTIFACT[kind]), report,
            indent=2, sort_keys=True,
        )
    return summary


_EXECUTORS = {
    "annotate": _exec_annotate,
    "figure6": _exec_figure6,
    "bench": _exec_bench,
    "profile": _exec_observed,
    "critpath": _exec_observed,
    "verify": _exec_observed,
}


def execute_job(spec: dict, artifact_dir: str,
                ctx: ExecContext | None = None) -> dict:
    """Run one normalized job spec; artifacts land under ``artifact_dir``."""
    ctx = ctx or ExecContext()
    os.makedirs(artifact_dir, exist_ok=True)
    fn = _EXECUTORS.get(spec.get("kind"))
    if fn is None:
        raise ServiceError(f"unknown job kind {spec.get('kind')!r}")
    return fn(spec, artifact_dir, ctx)


def list_artifacts(artifact_dir: str) -> list[str]:
    """The job's artifact set as sorted relative paths."""
    if not os.path.isdir(artifact_dir):
        return []
    out = []
    for root, _dirs, files in os.walk(artifact_dir):
        for name in files:
            if name.endswith(".tmp"):
                continue
            rel = os.path.relpath(os.path.join(root, name), artifact_dir)
            out.append(rel.replace(os.sep, "/"))
    return sorted(out)


__all__ = [
    "ExecContext",
    "KINDS",
    "POLICIES",
    "VARIANTS",
    "execute_job",
    "list_artifacts",
    "normalize_spec",
]
