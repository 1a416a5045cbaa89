"""Canonical content-hash keys for served jobs.

A job's key must satisfy one property: two submissions get the same key
*iff* a correct daemon would produce byte-identical artifacts for both.
The key is a sha-256 over canonical JSON of

* the normalized job spec (kind + every parameter, defaults made explicit),
* a *fingerprint of every program input*: the canonical IR text of each
  workload's unannotated program (``unparse_program(declarations=True)`` —
  the same text the annotator's own round-trip tests pin) plus the machine
  config and problem-size metadata from ``WorkloadSpec.bench_meta()``,
* the package version (annotator or simulator changes change the bytes a
  run produces, so they must miss the cache).

Notably the *annotated* variants are not hashed: they are outputs, fully
determined by the unannotated IR and the annotation parameters.  Faults
specs and seeds are part of the normalized spec, so a fault-injected run
never aliases a clean one.

Following Stulova et al.'s property-caching argument, memoizing on this key
is also what makes verification cheap enough to be default-on for served
jobs: each content hash pays the invariant checker exactly once.
"""

from __future__ import annotations

import functools
import hashlib
import json

#: bump when the key material changes shape, so stale caches miss cleanly
HASH_VERSION = 1


def canonical_json(payload) -> str:
    """The one JSON serialization hashing ever uses: sorted keys, compact
    separators, ASCII only — byte-stable across python versions."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


@functools.cache
def workload_fingerprint(name: str) -> dict:
    """Fingerprint a built-in workload: canonical IR + config + scale.

    Built once per process per name: the built-in workloads cannot change
    while a process runs, and rebuilding and unparsing one per submission
    would be most of a cache hit's cost.  Every caller shares the returned
    dict, so treat it as read-only; ``__wrapped__`` is the unmemoized
    function."""
    from repro.lang.unparse import unparse_program
    from repro.workloads.base import get_workload

    spec = get_workload(name)
    return {
        "workload": name,
        "ir": unparse_program(spec.program, declarations=True),
        **spec.bench_meta(),
    }


def source_fingerprint(source: dict) -> dict:
    """Fingerprint an annotate job's submitted pseudocode source.

    The source text *is* the IR here (it parses to it deterministically),
    so it is hashed directly along with the machine shape and params.
    """
    return {
        "source": source.get("text", ""),
        "config": {
            "num_nodes": source.get("num_nodes", 4),
            "cache_size": source.get("cache_size", 8192),
            "block_size": source.get("block_size", 32),
            "assoc": source.get("assoc", 4),
        },
        "params": source.get("params") or {},
    }


def job_inputs(spec: dict) -> list[dict]:
    """The program-input fingerprints of a normalized job spec."""
    if spec.get("source") is not None:
        return [source_fingerprint(spec["source"])]
    if "benchmarks" in spec:
        return [workload_fingerprint(name) for name in spec["benchmarks"]]
    return [workload_fingerprint(spec["workload"])]


def job_key(spec: dict) -> str:
    """The content-hash cache key of a normalized job spec (hex sha-256)."""
    from repro.cliutil import package_version

    material = {
        "hash_version": HASH_VERSION,
        "code_version": package_version(),
        "spec": spec,
        "inputs": job_inputs(spec),
    }
    digest = hashlib.sha256(canonical_json(material).encode("utf-8"))
    return digest.hexdigest()


__all__ = [
    "HASH_VERSION",
    "canonical_json",
    "job_inputs",
    "job_key",
    "source_fingerprint",
    "workload_fingerprint",
]
