"""Exporters: Chrome trace-event JSON and JSONL run manifests.

Chrome trace
------------
:func:`chrome_trace` renders an :class:`~repro.obs.session.Observation`
into the Chrome trace-event format (the ``{"traceEvents": [...]}`` JSON
object), loadable in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Layout: one process per simulated node
(``pid == node``) ordered numerically via ``process_sort_index`` metadata,
plus a synthetic "network" process; ``X`` (complete) spans for misses /
directives / lock waits / recall service / invalidations / per-transaction
message batches, a global ``i`` (instant) marker per barrier crossing, and
``s``/``t``/``f`` flow arrows joining each slow-path transaction's spans
across tracks (see :mod:`repro.obs.session`).  Timestamps are simulated
*cycles*, not microseconds — relative placement is what matters.

Run manifest
------------
:func:`manifest_records` emits one JSON object per line: a ``run`` header
(meta + summary), one ``epoch`` record per timeline sample, and a final
``metrics`` record with the cumulative registry snapshot.  JSONL so that
sweeps can concatenate manifests and stream-parse them.
"""

from __future__ import annotations

import json
from typing import Iterator

from repro.errors import ObsError
from repro.obs.session import NETWORK_PID, Observation

MANIFEST_VERSION = 1


# ------------------------------------------------------------ chrome trace
def process_meta(pid: int, name: str, tid: int = 0) -> list[dict]:
    """``process_name`` and ``process_sort_index`` metadata for one trace
    process; Perfetto orders the processes by pid."""
    return [
        {"name": "process_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": name}},
        {"name": "process_sort_index", "ph": "M", "pid": pid, "tid": tid,
         "args": {"sort_index": pid}},
    ]


def thread_meta(pid: int, tid: int, name: str) -> list[dict]:
    """``thread_name`` and ``thread_sort_index`` metadata for one track,
    ordered by tid within its process."""
    return [
        {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
         "args": {"name": name}},
        {"name": "thread_sort_index", "ph": "M", "pid": pid, "tid": tid,
         "args": {"sort_index": tid}},
    ]


def trace_document(events: list[dict], time_unit: str, other: dict) -> dict:
    """The Chrome trace-event JSON object holding ``events``."""
    return {
        "traceEvents": events, "displayTimeUnit": time_unit,
        "otherData": other,
    }


def chrome_trace(obs: Observation) -> dict:
    """Assemble the full Chrome trace-event JSON object.

    Raises :class:`~repro.errors.ObsError` when the run was observed
    without ``Observer(chrome=True)``: such a trace would hold the track
    metadata and nothing else.
    """
    run_name = obs.meta.get("name", "machine")
    if obs.trace_events is None:
        raise ObsError(
            f"{run_name}: the observation recorded no Chrome trace events; "
            f"observe the run with Observer(chrome=True) to write a trace"
        )
    events: list[dict] = []
    for node in range(obs.num_nodes):
        # One process per node, ordered numerically in Perfetto.
        events += process_meta(node, f"{run_name}: node {node}", tid=node)
        events += thread_meta(node, node, f"node {node}")
    # The synthetic network track sorts after every node process.
    events += process_meta(NETWORK_PID, f"{run_name}: network")
    events.extend(obs.trace_events)
    return trace_document(events, "ns", {
        "cycles": obs.cycles,
        "epochs": obs.epochs,
        "manifestVersion": MANIFEST_VERSION,
        **{k: str(v) for k, v in obs.meta.items()},
    })


def write_chrome_trace(obs: Observation, path: str) -> None:
    trace = chrome_trace(obs)  # raises before the file is created
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace, fh)
        fh.write("\n")


# ------------------------------------------------------------ run manifest
def manifest_records(obs: Observation) -> Iterator[dict]:
    """The manifest as a stream of JSON-serialisable records."""
    yield {
        "type": "run",
        "version": MANIFEST_VERSION,
        "meta": obs.meta,
        "num_nodes": obs.num_nodes,
        "cycles": obs.cycles,
        "epochs": obs.epochs,
    }
    for sample in obs.timeline:
        yield {"type": "epoch", **sample.to_dict()}
    yield {"type": "metrics", "metrics": obs.metrics}
    if obs.attrib is not None:
        yield {"type": "attrib", "attrib": obs.attrib}
    if obs.critpath is not None:
        yield {"type": "critpath", "critpath": obs.critpath}


def write_manifest(obs: Observation, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in manifest_records(obs):
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


def read_manifest(path: str) -> list[dict]:
    """Parse a JSONL manifest back into its records.

    Blank lines are skipped and a *trailing* partial line (a run cut off
    mid-write) is ignored; corruption anywhere else raises
    :class:`~repro.errors.ObsError` naming the offending line.
    """
    records: list[dict] = []
    bad: tuple[int, str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if bad is not None:
                # A parse failure followed by more content is corruption,
                # not a truncated tail.
                raise ObsError(
                    f"{path}:{bad[0]}: invalid manifest record: {bad[1]}"
                )
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                bad = (lineno, str(exc))
    return records
