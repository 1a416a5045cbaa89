"""HTML dashboards rendered from stored artifacts.

Pure functions from ledger rows + artifact JSON to HTML strings; the HTTP
layer serves them live and :func:`export_site` writes the same pages as a
static tree (the CI ``service-smoke`` job uploads that tree as its
artifact).

Pages:

* **index** — service status tiles plus the job ledger (state, timings,
  retry counts, cache key) with links into each job;
* **job detail** — per-kind sections: the Figure-6 table re-rendered as
  HTML (same normalization and cell formatting as the terminal table, via
  :func:`repro.harness.reporting.format_cell`), per-structure × per-epoch
  attribution heatmaps, critical-path straggler and what-if tables,
  annotated source, verify reports, and the artifact listing.

Every string that originates outside this module — program names, source
lines, error messages, artifact names, job specs — goes through
:func:`esc` before it reaches HTML.  Simulated programs and error text can
contain ``<``/``&`` freely (array slices like ``B[k, Ljp:Ujp]``, messages
quoting ``<pc>``), and annotate jobs accept arbitrary client text, so
unescaped interpolation would be a stored-XSS hole in every dashboard.
"""

from __future__ import annotations

import html
import json
import os
from typing import Callable, Sequence

from repro.harness.reporting import format_cell, is_numeric_column


def esc(value: object) -> str:
    """HTML-escape ``value``'s display text (always via ``format_cell`` so
    tables and text output agree on number formatting)."""
    return html.escape(format_cell(value), quote=True)


_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #1a1a2e; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 0.75rem 0 1.5rem; }
caption { text-align: left; font-weight: 600; padding-bottom: 0.35rem; }
th, td { border: 1px solid #d0d0e0; padding: 0.3rem 0.6rem; }
th { background: #f0f0f8; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
span.state { padding: 0.1rem 0.5rem; border-radius: 0.6rem; }
span.state-queued  { background: #fff3cd; }
span.state-running { background: #cfe2ff; }
span.state-done    { background: #d1e7dd; }
span.state-failed  { background: #f8d7da; }
pre { background: #f6f6fb; padding: 0.8rem; overflow-x: auto; }
td.heat { width: 1.1rem; height: 1.1rem; padding: 0; }
.tiles { display: flex; gap: 1rem; flex-wrap: wrap; margin: 1rem 0; }
.tile { border: 1px solid #d0d0e0; border-radius: 0.5rem;
        padding: 0.6rem 1rem; min-width: 7rem; }
.tile .big { font-size: 1.6rem; font-weight: 700; }
a { color: #23407c; }
"""


def page(title: str, body: str) -> str:
    """The common page shell.  ``title`` is escaped here; ``body`` must
    already be trusted HTML assembled by this module."""
    return (
        "<!doctype html>\n"
        '<html lang="en"><head><meta charset="utf-8">\n'
        f"<title>{esc(title)}</title>\n"
        f"<style>{_STYLE}</style>\n"
        "</head><body>\n"
        f"{body}\n"
        "</body></html>\n"
    )


def html_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    cell_html: Callable[[int, int, object], str] | None = None,
) -> str:
    """An escaped HTML table with the text renderer's conventions: floats
    to three decimals, numeric columns right-aligned.

    ``cell_html(row, col, value)`` may override individual cells with
    trusted HTML (used for links); everything else is escaped.
    """
    numeric = [
        is_numeric_column(rows, col) if rows else False
        for col in range(len(headers))
    ]
    out = ["<table>"]
    if title:
        out.append(f"<caption>{esc(title)}</caption>")
    out.append(
        "<thead><tr>"
        + "".join(f"<th>{esc(h)}</th>" for h in headers)
        + "</tr></thead>"
    )
    out.append("<tbody>")
    for r, row in enumerate(rows):
        cells = []
        for c, value in enumerate(row):
            override = cell_html(r, c, value) if cell_html else None
            body = esc(value) if override is None else override
            klass = ' class="num"' if numeric[c] and override is None else ""
            cells.append(f"<td{klass}>{body}</td>")
        out.append("<tr>" + "".join(cells) + "</tr>")
    out.append("</tbody></table>")
    return "\n".join(out)


def _state_badge(state: str) -> str:
    return f'<span class="state state-{esc(state)}">{esc(state)}</span>'


def _duration(row: dict) -> object:
    if row.get("started_at") and row.get("finished_at"):
        return round(row["finished_at"] - row["started_at"], 2)
    return "-"


# ------------------------------------------------------------------ index
def render_index(status: dict, jobs: list[dict],
                 ops_link: bool = False) -> str:
    """The dashboard landing page.  ``ops_link`` adds the link to the live
    ops page (the static export has no live telemetry to link to)."""
    tiles = []
    for label, value in [
        ("version", status.get("version", "?")),
        ("queued", status["jobs"]["queued"]),
        ("running", status["jobs"]["running"]),
        ("done", status["jobs"]["done"]),
        ("failed", status["jobs"]["failed"]),
        ("cache hits", status["stats"]["cache_hits"]),
        ("coalesced", status["stats"]["coalesced"]),
    ]:
        tiles.append(
            f'<div class="tile"><div class="big">{esc(value)}</div>'
            f"<div>{esc(label)}</div></div>"
        )
    headers = ["id", "kind", "what", "state", "retries", "runtime (s)", "key"]
    rows = []
    for job in jobs:
        rows.append([
            job["id"], job["kind"], _job_subject(job), job["state"],
            job["retries"], _duration(job), job["key"][:12],
        ])

    def cell(r, c, value):
        if c == 0:
            return f'<a href="jobs/{int(value)}.html">{esc(value)}</a>'
        if c == 3:
            return _state_badge(str(value))
        return None

    body = [
        "<h1>repro.service — annotation as a service</h1>",
    ]
    if ops_link:
        body.append('<p><a href="/ops.html">operational telemetry</a> &middot;'
                    ' <a href="/metrics">/metrics</a></p>')
    body.extend([
        '<div class="tiles">' + "".join(tiles) + "</div>",
        html_table(headers, rows, title="job ledger (newest first)",
                   cell_html=cell),
    ])
    return page("repro.service dashboard", "\n".join(body))


def _job_subject(job: dict) -> str:
    spec = job.get("spec") or {}
    if spec.get("kind") == "figure6":
        return ", ".join(spec.get("benchmarks", []))
    source = spec.get("source")
    if source:
        return f"source:{source.get('name', '?')}"
    what = spec.get("workload", "?")
    if spec.get("variant"):
        what += f"/{spec['variant']}"
    return what


# --------------------------------------------------------------- ops page
def render_ops(status: dict, metrics: dict) -> str:
    """The live operational-telemetry page (``/ops.html``).

    Rendered from exactly what ``/api/status`` and ``/api/metrics`` serve,
    so the HTML view, ``repro-client top`` and a Prometheus scrape can
    never disagree about the numbers.
    """
    from repro.obs.telemetry import family_counts, latency_rows

    jobs = status["jobs"]
    stats = status["stats"]
    tiles = []
    for label, value in [
        ("uptime (s)", status.get("uptime_s", "-")),
        ("workers", status.get("workers", "-")),
        ("queued", jobs["queued"]),
        ("running", jobs["running"]),
        ("submitted", stats["submitted"]),
        ("cache hits", stats["cache_hits"]),
        ("failed", stats["failed"]),
    ]:
        tiles.append(
            f'<div class="tile"><div class="big">{esc(value)}</div>'
            f"<div>{esc(label)}</div></div>"
        )
    body = [
        "<h1>repro.service — operational telemetry</h1>",
        '<p><a href="/">&larr; job index</a> &middot; '
        '<a href="/metrics">/metrics</a> (Prometheus) &middot; '
        '<a href="/api/metrics">/api/metrics</a> (JSON) &middot; '
        '<a href="/api/trace">/api/trace</a> (Chrome trace)</p>',
        '<div class="tiles">' + "".join(tiles) + "</div>",
    ]
    snap = metrics.get("metrics") or {}
    if not snap:
        body.append("<p>Telemetry is disabled "
                    "(<code>repro-serve --no-telemetry</code>).</p>")
        return page("repro.service ops", "\n".join(body))

    job_rows = latency_rows(snap, "service.job.latency_ms")
    if job_rows:
        body.append(html_table(
            ["kind", "jobs", "p50 (ms)", "p90 (ms)", "p99 (ms)", "max (ms)"],
            job_rows, title="job execution latency",
        ))
    http_rows = latency_rows(snap, "service.http.latency_us")
    if http_rows:
        body.append(html_table(
            ["route", "requests", "p50 (µs)", "p90 (µs)", "p99 (µs)",
             "max (µs)"],
            http_rows, title="HTTP request latency",
        ))
    counter_rows = []
    for family in ("service.submissions", "service.jobs.completed",
                   "service.jobs.retries"):
        for labels, value in sorted(family_counts(snap, family).items()):
            name = f"{family}{{{labels}}}" if labels else family
            counter_rows.append([name, value])
    body.append(html_table(["counter", "value"], counter_rows,
                           title="counters"))
    return page("repro.service ops", "\n".join(body))


# -------------------------------------------------------------- job pages
def render_job(payload: dict, artifact_href: Callable[[str], str]) -> str:
    """One job's detail page.  ``artifact_href(name)`` maps an artifact's
    relative name to the href the current surface serves it under (API
    route when live, relative file path when static)."""
    job_id = payload["id"]
    sections = [
        f"<h1>job {esc(job_id)} — {esc(payload['kind'])} "
        f"({esc(_job_subject(payload))})</h1>",
        '<p><a href="../index.html">&larr; job index</a></p>',
        html_table(
            ["state", "retries", "submitted", "runtime (s)", "cache key"],
            [[payload["state"], payload["retries"],
              round(payload["submitted_at"], 2), _duration(payload),
              payload["key"]]],
            cell_html=lambda r, c, v: _state_badge(str(v)) if c == 0 else None,
        ),
    ]
    if payload.get("error"):
        sections.append(
            f"<h2>error</h2><pre>{esc(payload['error'])}</pre>"
        )
    artifacts = payload.get("artifacts") or []
    readers = _ArtifactReader(payload, artifact_href)
    kind = payload["kind"]
    if kind == "figure6":
        sections.extend(_figure6_sections(readers))
    elif kind == "annotate":
        sections.extend(_annotate_sections(readers))
    elif kind == "profile":
        sections.extend(_profile_sections(readers))
    elif kind == "critpath":
        sections.extend(_critpath_sections(readers))
    elif kind == "verify":
        sections.extend(_verify_sections(payload))
    elif kind == "bench" and payload.get("result"):
        cycles = payload["result"].get("cycles", {})
        sections.append(html_table(
            ["variant", "cycles"], sorted(cycles.items()),
            title="bench headline cycles",
        ))
    if artifacts:
        sections.append("<h2>artifacts</h2><ul>")
        for name in artifacts:
            sections.append(
                f'<li><a href="{esc(artifact_href(name))}">{esc(name)}</a>'
                "</li>"
            )
        sections.append("</ul>")
    return page(f"job {job_id}", "\n".join(sections))


class _ArtifactReader:
    """Lazy artifact access for the section renderers (absent artifacts —
    e.g. a job that failed before writing them — render as nothing)."""

    def __init__(self, payload: dict, artifact_href):
        self.payload = payload
        self.href = artifact_href
        self.root = payload.get("_artifact_root")

    def json(self, name: str):
        if self.root is None:
            return None
        path = os.path.join(self.root, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def text(self, name: str) -> str | None:
        if self.root is None:
            return None
        try:
            with open(os.path.join(self.root, name), "r",
                      encoding="utf-8") as fh:
                return fh.read()
        except OSError:
            return None


def _figure6_sections(reader: _ArtifactReader) -> list[str]:
    from repro.harness.figure6 import PAPER_CACHIER_NORM, Fig6Row
    from repro.harness.variants import (
        CACHIER,
        CACHIER_PREFETCH,
        HAND,
        HAND_PREFETCH,
        PLAIN,
    )

    data = reader.json("figure6.json")
    if not data:
        return []
    rows = [
        Fig6Row(benchmark=name, cycles=dict(data["rows"].get(name, {})))
        for name in data.get("benchmarks", sorted(data["rows"]))
    ]
    headers = ["benchmark", PLAIN, HAND, CACHIER]
    if any(CACHIER_PREFETCH in row.cycles for row in rows):
        headers += [CACHIER_PREFETCH, HAND_PREFETCH]
    headers.append("paper(cachier)")
    table = []
    for row in rows:
        cells: list[object] = [
            row.benchmark, 1.0 if PLAIN in row.cycles else "-"
        ]
        for variant in headers[2:-1]:
            norm = row.normalized(variant)
            cells.append("-" if norm is None else norm)
        cells.append(PAPER_CACHIER_NORM.get(row.benchmark, "-"))
        table.append(cells)
    out = ["<h2>Figure 6</h2>", html_table(
        headers, table,
        title="execution time normalized to the unannotated program",
    )]
    cycles_table = [
        [row.benchmark, variant, count]
        for row in rows for variant, count in sorted(row.cycles.items())
    ]
    out.append(html_table(
        ["benchmark", "variant", "cycles"], cycles_table,
        title="raw cycle counts",
    ))
    return out


def _annotate_sections(reader: _ArtifactReader) -> list[str]:
    out = []
    summary = reader.json("annotate.json")
    if summary:
        ann = summary.get("annotations", {})
        out.append("<h2>annotation statistics</h2>")
        out.append(html_table(
            ["program", "policy", "boundary", "near", "hoisted",
             "prefetches", "flags"],
            [[summary.get("name", "?"), summary.get("policy", "?"),
              ann.get("boundary", 0), ann.get("near", 0),
              ann.get("hoisted", 0), ann.get("prefetches", 0),
              ann.get("comments", 0)]],
        ))
    source = reader.text("annotated.src")
    if source is not None:
        out.append("<h2>annotated program</h2>")
        out.append(f"<pre>{esc(source)}</pre>")
    return out


def heatmap_html(attrib: dict, top: int = 10) -> str:
    """Per-structure × per-epoch miss heatmap as an HTML table (the
    dashboard twin of :func:`repro.obs.attrib.render_heatmap`)."""
    structures = [
        r["array"] for r in attrib["structures"][:top] if r["misses"]
    ]
    epochs = attrib["epochs"]
    if not structures or not epochs:
        return "<p>(no misses recorded)</p>"
    grid = [
        [e["per_structure"].get(array, 0) for e in epochs]
        for array in structures
    ]
    peak = max(max(row) for row in grid) or 1
    out = ["<table>",
           f"<caption>miss heatmap (rows: structures, cols: epochs; "
           f"peak {esc(peak)} misses)</caption>",
           "<thead><tr><th></th>"
           + "".join(f"<th>{esc(e['epoch'])}</th>" for e in epochs)
           + "</tr></thead>", "<tbody>"]
    for array, row in zip(structures, grid):
        cells = []
        for value in row:
            alpha = value / peak
            cells.append(
                f'<td class="heat" title="{esc(array)}: {esc(value)}" '
                f'style="background: rgba(35, 64, 124, {alpha:.3f})"></td>'
            )
        out.append(f"<tr><th>{esc(array)}</th>" + "".join(cells) + "</tr>")
    out.append("</tbody></table>")
    labels = [e for e in epochs if e.get("label")]
    if labels:
        out.append(
            "<p>epoch labels: "
            + ", ".join(f"{esc(e['epoch'])}={esc(e['label'])}" for e in labels)
            + "</p>"
        )
    return "\n".join(out)


def _profile_sections(reader: _ArtifactReader) -> list[str]:
    attrib = reader.json("attrib.json")
    if not attrib:
        return []
    out = ["<h2>attribution</h2>", heatmap_html(attrib)]
    rows = [
        [r["array"], r["misses"], r["stall_cycles"], r["traps"],
         r["recalls"], r["lock_wait_cycles"]]
        for r in attrib["structures"][:10]
    ]
    out.append(html_table(
        ["structure", "misses", "stall cycles", "traps", "recalls",
         "lock wait"],
        rows, title="hot structures",
    ))
    lines = [
        [r["array"], r.get("line", "-") or "-", trim(r.get("source", "")),
         r["misses"], r["stall_cycles"]]
        for r in attrib["lines"][:10]
    ]
    out.append(html_table(
        ["structure", "line", "source", "misses", "stall cycles"], lines,
        title="hot source lines",
    ))
    return out


def trim(text: object) -> str:
    """Trim helper for source-line cells; escaping happens in
    :func:`html_table` like any other cell (source lines carry raw program
    text, e.g. ``check_out_S B[k, Ljp:Ujp]``)."""
    value = str(text)
    return value if len(value) <= 60 else value[:57] + "..."


def _critpath_sections(reader: _ArtifactReader) -> list[str]:
    crit = reader.json("critpath.json")
    if not crit:
        return []
    out = ["<h2>critical path</h2>"]
    out.append(html_table(
        ["cycles", "critical-path fraction", "critical stall cycles"],
        [[crit["cycles"], crit["critical_path_fraction"],
          crit["critical_stall_cycles"]]],
    ))
    stragglers = [
        [node, count] for node, count in crit["straggler_epochs"][:10]
    ]
    out.append(html_table(
        ["node", "epochs critical"], stragglers,
        title="straggler nodes (how often each node was the epoch's "
              "critical node)",
    ))
    what_if = [
        [w["array"], w.get("line", "-") or "-", trim(w.get("source", "")),
         w["est_savings"]]
        for w in crit.get("what_if", [])[:10]
    ]
    if what_if:
        out.append(html_table(
            ["structure", "line", "source", "est. cycle saving"], what_if,
            title="what-if ranking: candidate CICO sites by estimated "
                  "epoch-time savings",
        ))
    return out


def _verify_sections(payload: dict) -> list[str]:
    result = payload.get("result") or {}
    if not result:
        return []
    if result.get("ok"):
        verdict = (
            f"<p>PASS — {esc(result.get('checks', 0))} checks, "
            f"{esc(result.get('warnings', 0))} cico warnings.</p>"
        )
    else:
        verdict = (
            f"<p>FAIL — <code>{esc(result.get('error', 'violation'))}"
            "</code></p>"
        )
    return ["<h2>verification</h2>", verdict]


# ---------------------------------------------------------- static export
def export_site(data_dir: str, out_dir: str,
                status: dict | None = None) -> list[str]:
    """Write the dashboard as a static HTML tree (plus artifact copies).

    Renders from the sqlite ledger + artifact store alone, so it works
    against a live daemon's data dir (WAL journaling) and a dead one's.
    Returns the files written, relative to ``out_dir``.
    """
    import shutil

    from repro.service.db import open_readonly
    from repro.service.jobs import list_artifacts
    from repro.service.queue import ARTIFACTS_DIR

    db = open_readonly(data_dir)
    try:
        jobs = db.jobs()
        counts = db.counts()
    finally:
        db.close()
    if status is None:
        from repro.cliutil import package_version

        status = {
            "version": package_version(),
            "jobs": counts,
            "stats": {"cache_hits": "-", "coalesced": "-"},
        }
    payloads = []
    for row in jobs:
        payload = dict(row)
        payload["spec"] = json.loads(row["spec"]) if row.get("spec") else {}
        payload["result"] = (
            json.loads(row["result"]) if row.get("result") else None
        )
        root = os.path.join(data_dir, ARTIFACTS_DIR, row["key"])
        payload["artifacts"] = list_artifacts(root)
        payload["_artifact_root"] = root
        payloads.append(payload)

    os.makedirs(os.path.join(out_dir, "jobs"), exist_ok=True)
    written = []
    index_path = os.path.join(out_dir, "index.html")
    with open(index_path, "w", encoding="utf-8") as fh:
        fh.write(render_index(status, payloads))
    written.append("index.html")
    for payload in payloads:
        key = payload["key"]

        def href(name: str, key=key) -> str:
            return f"../artifacts/{key}/{name}"

        job_rel = os.path.join("jobs", f"{payload['id']}.html")
        with open(os.path.join(out_dir, job_rel), "w",
                  encoding="utf-8") as fh:
            fh.write(render_job(payload, href))
        written.append(job_rel)
        if payload["artifacts"]:
            dest = os.path.join(out_dir, "artifacts", key)
            shutil.copytree(payload["_artifact_root"], dest,
                            dirs_exist_ok=True)
            written.extend(
                os.path.join("artifacts", key, name)
                for name in payload["artifacts"]
            )
    return written


__all__ = [
    "esc",
    "export_site",
    "heatmap_html",
    "html_table",
    "page",
    "render_index",
    "render_job",
    "render_ops",
]
