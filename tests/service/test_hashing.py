"""The content hash: stable across spellings, sensitive to inputs."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.service import hashing
from repro.service.hashing import job_key, source_fingerprint
from repro.service.jobs import normalize_spec
from repro.workloads.base import registry


def key_for(kind, params=None, **kw):
    return job_key(normalize_spec(kind, params, **kw))


def test_same_work_differently_spelled_hashes_identically():
    # defaults made explicit == defaults left implicit
    a = key_for("annotate", {"workload": "matmul_racing"})
    b = key_for("annotate", {"workload": "matmul_racing",
                             "policy": "performance", "prefetch": False,
                             "history": 1, "verify": True})
    assert a == b
    assert len(a) == 64 and set(a) <= set("0123456789abcdef")


def test_every_spec_field_is_load_bearing():
    base = key_for("annotate", {"workload": "matmul_racing"})
    assert key_for("annotate", {"workload": "mp3d"}) != base
    assert key_for("annotate", {"workload": "matmul_racing",
                                "policy": "programmer"}) != base
    assert key_for("annotate", {"workload": "matmul_racing",
                                "prefetch": True}) != base
    assert key_for("annotate", {"workload": "matmul_racing",
                                "verify": False}) != base


def test_verify_default_is_part_of_the_key():
    # a daemon running --no-verify serves different content than a
    # verifying one, so the cache must not conflate them
    on = key_for("annotate", {"workload": "mp3d"}, verify_default=True)
    off = key_for("annotate", {"workload": "mp3d"}, verify_default=False)
    assert on != off


def test_source_jobs_hash_the_program_text():
    src = "for i in range(n):\n    x[i] = x[i] + 1\n"
    a = key_for("annotate", {"source": {"text": src}})
    b = key_for("annotate", {"source": {"text": src}})
    c = key_for("annotate", {"source": {"text": src.replace("+ 1", "+ 2")}})
    assert a == b
    assert a != c
    assert (source_fingerprint({"text": src})
            != source_fingerprint({"text": src + " "}))


def test_figure6_benchmark_order_matters_but_content_drives_the_hash():
    a = key_for("figure6", {"benchmarks": ["mp3d", "matmul"]})
    b = key_for("figure6", {"benchmarks": ["mp3d", "matmul"]})
    c = key_for("figure6", {"benchmarks": ["matmul", "mp3d"]})
    assert a == b
    # order changes the sweep (and its table), so it changes the key
    assert a != c


@pytest.mark.parametrize("kind,params,match", [
    ("nonsense", {}, "unknown job kind"),
    ("annotate", {"workload": "no_such"}, "unknown workload"),
    ("annotate", {"policy": "fastest"}, "policy"),
    ("annotate", {"history": 0}, "history"),
    ("figure6", {"benchmarks": []}, "non-empty"),
    ("bench", {"variants": ["warp-speed"]}, "variants"),
    ("verify", {"faults": "yes"}, "faults"),
    ("annotate", {"source": {"text": "   "}}, "source.text"),
])
def test_bad_specs_are_rejected_before_hashing(kind, params, match):
    with pytest.raises(ServiceError, match=match):
        normalize_spec(kind, params)


def test_memoized_fingerprints_give_the_unmemoized_keys(monkeypatch):
    names = sorted(registry())
    specs = [normalize_spec(kind, {"workload": name})
             for name in names for kind in ("annotate", "bench", "verify")]
    specs.append(normalize_spec("figure6", {"benchmarks": names}))
    memoized = [job_key(spec) for spec in specs]
    assert hashing.workload_fingerprint("mp3d") is \
        hashing.workload_fingerprint("mp3d")  # built once, then shared
    monkeypatch.setattr(hashing, "workload_fingerprint",
                        hashing.workload_fingerprint.__wrapped__)
    assert [job_key(spec) for spec in specs] == memoized
