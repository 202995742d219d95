"""Render flight-recorder snapshots into self-contained run reports.

Consumes the plain-dict snapshots produced by
:mod:`repro.telemetry.recorder` and renders either a single-file HTML
report (inline SVG charts, no external assets, openable from a CI
artifact) or a markdown digest.  The HTML mirrors the paper's
evaluation style: an FCT CDF by flow-size class (Fig. 7), queue-depth
and DCQCN rate/alpha time series, PFC pause events, and the utility
breakdown into its O_TP / O_RTT / O_PFC terms — plus, optionally, the
trace layer's per-span self-time table.
"""

from __future__ import annotations

import html as _html
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import trace

_PALETTE = ("#2563eb", "#dc2626", "#059669", "#d97706", "#7c3aed", "#0891b2")

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 60rem;
       color: #1f2937; }
h1 { border-bottom: 2px solid #e5e7eb; padding-bottom: .3rem; }
section { margin: 1.5rem 0; }
svg { background: #f9fafb; border: 1px solid #e5e7eb; }
table { border-collapse: collapse; }
td, th { border: 1px solid #d1d5db; padding: .25rem .6rem; text-align: right; }
th { background: #f3f4f6; }
.legend span { margin-right: 1rem; font-size: .85rem; }
pre { background: #f9fafb; border: 1px solid #e5e7eb; padding: .6rem;
      overflow-x: auto; font-size: .8rem; }
.note { color: #6b7280; font-style: italic; }
"""


# ---------------------------------------------------------------------------
# Inline-SVG chart primitives
# ---------------------------------------------------------------------------


def _polyline(xs: Sequence[float], ys: Sequence[float],
              x_range: Tuple[float, float], y_range: Tuple[float, float],
              width: int, height: int, pad: int) -> str:
    x_lo, x_hi = x_range
    y_lo, y_hi = y_range
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0
    points = []
    for x, y in zip(xs, ys):
        px = pad + (x - x_lo) / x_span * (width - 2 * pad)
        py = height - pad - (y - y_lo) / y_span * (height - 2 * pad)
        points.append(f"{px:.1f},{py:.1f}")
    return " ".join(points)


def _svg_chart(series: List[Tuple[str, Sequence[float], Sequence[float]]],
               width: int = 640, height: int = 220,
               y_label: str = "") -> str:
    """Line chart of ``(name, xs, ys)`` series as one inline SVG."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        return '<p class="note">no samples</p>'
    x_range = (min(xs_all), max(xs_all))
    y_range = (min(min(ys_all), 0.0), max(max(ys_all), 1e-12))
    pad = 32
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img">'
    ]
    axis = (
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="#9ca3af"/>'
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="#9ca3af"/>'
    )
    parts.append(axis)
    parts.append(
        f'<text x="{pad}" y="{pad - 8}" font-size="11" fill="#6b7280">'
        f"{_html.escape(y_label)} (max {y_range[1]:.4g})</text>"
    )
    for i, (name, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = _polyline(xs, ys, x_range, y_range, width, height, pad)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{pts}"><title>{_html.escape(name)}</title></polyline>'
        )
    parts.append("</svg>")
    legend = "".join(
        f'<span style="color:{_PALETTE[i % len(_PALETTE)]}">&#9632; '
        f"{_html.escape(name)}</span>"
        for i, (name, _, _) in enumerate(series)
    )
    return "".join(parts) + f'<div class="legend">{legend}</div>'


def _cdf(values: Sequence[float]) -> Tuple[List[float], List[float]]:
    ordered = sorted(values)
    n = len(ordered)
    return list(ordered), [(i + 1) / n for i in range(n)]


# ---------------------------------------------------------------------------
# Section builders
# ---------------------------------------------------------------------------


def _fct_section(snap: Dict[str, Any]) -> str:
    # Lazy: experiments.fct imports simulator modules; keeping the
    # telemetry package import-light mirrors summary.py's table import.
    from repro.experiments.fct import DEFAULT_SIZE_BUCKETS, bucket_label

    flows = snap.get("flows") or []
    if not flows:
        return (
            '<section id="fct-cdf"><h2>FCT CDF by flow class</h2>'
            '<p class="note">no flows completed in this run</p></section>'
        )
    series = []
    for low, high in DEFAULT_SIZE_BUCKETS:
        fcts = [f["fct"] for f in flows if low <= f["size"] < high]
        if fcts:
            xs, ys = _cdf(fcts)
            series.append((f"{bucket_label(low, high)} (n={len(fcts)})", xs, ys))
    chart = _svg_chart(series, y_label="P(FCT <= x)")
    total = snap.get("flows_total", len(flows))
    note = ""
    if total > len(flows):
        note = (
            f'<p class="note">{len(flows)} of {total} completed flows '
            "retained (deterministic decimation)</p>"
        )
    return (
        '<section id="fct-cdf"><h2>FCT CDF by flow class</h2>'
        f"{chart}{note}</section>"
    )


def _queue_section(snap: Dict[str, Any]) -> str:
    time = snap.get("time") or []
    switches = snap.get("switches") or {}
    series = [
        (name, time, data["queue_bytes"]) for name, data in switches.items()
    ]
    chart = _svg_chart(series, y_label="egress queue bytes")
    return (
        '<section id="queue-depth"><h2>Queue depth</h2>'
        f"{chart}</section>"
    )


def _rate_alpha_section(snap: Dict[str, Any]) -> str:
    time = snap.get("time") or []
    qp = snap.get("qp") or {}
    rate_chart = _svg_chart(
        [
            ("rate mean", time, qp.get("rate_mean", [])),
            ("rate min", time, qp.get("rate_min", [])),
        ],
        y_label="DCQCN rate (bit/s)",
    )
    alpha_chart = _svg_chart(
        [
            ("alpha mean", time, qp.get("alpha_mean", [])),
            ("alpha max", time, qp.get("alpha_max", [])),
        ],
        y_label="DCQCN alpha",
    )
    return (
        '<section id="rate-alpha"><h2>DCQCN rate / alpha</h2>'
        f"{rate_chart}{alpha_chart}</section>"
    )


def _pfc_section(snap: Dict[str, Any]) -> str:
    time = snap.get("time") or []
    switches = snap.get("switches") or {}
    series = [
        (name, time, data["pfc_pauses"]) for name, data in switches.items()
    ]
    rows = "".join(
        f"<tr><td>{_html.escape(name)}</td>"
        f"<td>{data['pfc_pauses'][-1] if data['pfc_pauses'] else 0}</td>"
        f"<td>{data['ecn_marked'][-1] if data['ecn_marked'] else 0}</td>"
        f"<td>{data['dropped'][-1] if data['dropped'] else 0}</td></tr>"
        for name, data in switches.items()
    )
    table = (
        "<table><tr><th>switch</th><th>PFC pauses</th>"
        f"<th>ECN marked</th><th>dropped</th></tr>{rows}</table>"
    )
    chart = _svg_chart(series, y_label="cumulative PFC pauses")
    return (
        '<section id="pfc-events"><h2>PFC events</h2>'
        f"{chart}{table}</section>"
    )


def _utility_section(snap: Dict[str, Any]) -> str:
    net = snap.get("network") or {}
    weights = (snap.get("meta") or {}).get("weights")
    time = snap.get("time") or []

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    components = [
        ("O_TP", mean(net.get("throughput_util", []))),
        ("O_RTT", mean(net.get("norm_rtt", []))),
        ("O_PFC", mean(net.get("pfc_ok", []))),
    ]
    rows = []
    for i, (name, value) in enumerate(components):
        weight = weights[i] if weights and len(weights) == 3 else None
        contrib = f"{weight * value:.4f}" if weight is not None else "-"
        wtext = f"{weight:.2f}" if weight is not None else "-"
        rows.append(
            f"<tr><td>{name}</td><td>{value:.4f}</td>"
            f"<td>{wtext}</td><td>{contrib}</td></tr>"
        )
    table = (
        "<table><tr><th>term</th><th>mean</th><th>weight</th>"
        f"<th>contribution</th></tr>{''.join(rows)}"
        f"<tr><th>U</th><td>{mean(net.get('utility', [])):.4f}</td>"
        "<td></td><td></td></tr></table>"
    )
    chart = _svg_chart(
        [
            ("utility", time, net.get("utility", [])),
            ("O_TP", time, net.get("throughput_util", [])),
            ("O_RTT", time, net.get("norm_rtt", [])),
            ("O_PFC", time, net.get("pfc_ok", [])),
        ],
        y_label="utility",
    )
    return (
        '<section id="utility"><h2>Utility breakdown</h2>'
        f"{chart}{table}</section>"
    )


def _meta_section(snap: Dict[str, Any]) -> str:
    meta = snap.get("meta") or {}
    samples = snap.get("samples") or {}
    rows = "".join(
        f"<tr><td>{_html.escape(str(k))}</td>"
        f"<td>{_html.escape(str(v))}</td></tr>"
        for k, v in list(meta.items()) + [
            ("samples seen", samples.get("seen")),
            ("samples kept", samples.get("kept")),
            ("decimation stride", samples.get("stride")),
            ("flows recorded", len(snap.get("flows") or [])),
        ]
    )
    return (
        '<section id="run-meta"><h2>Run metadata</h2>'
        f"<table>{rows}</table></section>"
    )


def _control_plane_section(snap: Dict[str, Any]) -> str:
    """Tier byte totals + Table IV comparison for controlplane runs."""
    cp = snap.get("control_plane")
    if not cp:
        return ""
    intervals = cp.get("intervals") or 0
    agents = cp.get("agents") or 0
    per_switch = cp.get("per_switch_report_bytes") or 0.0
    tier_rows = "".join(
        f"<tr><td>{label}</td><td>{senders}</td>"
        f"<td>{cp.get(key, 0)}</td></tr>"
        for label, senders, key in (
            ("agent &rarr; rack", agents, "agent_rack_bytes"),
            ("rack &rarr; pod", cp.get("racks", 0), "rack_pod_bytes"),
            ("pod &rarr; global", cp.get("pods", 0), "pod_global_bytes"),
            ("param dispatch", cp.get("tenants", 0), "param_update_bytes"),
        )
    )
    tier_table = (
        "<table><tr><th>tier</th><th>senders</th>"
        f"<th>total bytes ({intervals} intervals)</th></tr>{tier_rows}"
        "</table>"
    )
    # Table IV: the paper reports ~520 B per switch report per interval.
    table4 = (
        "<table><tr><th>quantity</th><th>paper (Table IV)</th>"
        "<th>this run</th></tr>"
        "<tr><td>switch report, per switch per interval</td>"
        f"<td>~520 B</td><td>{per_switch:.0f} B</td></tr></table>"
    )
    retunes = cp.get("retunes") or []
    retune_rows = "".join(
        f"<tr><td>{r.get('tenant')}</td><td>{r.get('trigger_interval')}</td>"
        f"<td>{r.get('finished_interval')}</td>"
        f"<td>{r.get('utility', 0.0):.4f}</td>"
        f"<td>{r.get('evaluations')}</td></tr>"
        for r in retunes
    )
    retune_table = (
        "<table><tr><th>tenant</th><th>triggered</th><th>finished</th>"
        f"<th>utility</th><th>evaluations</th></tr>{retune_rows}</table>"
        if retunes
        else "<p>no retunes fired</p>"
    )
    return (
        '<section id="control-plane"><h2>Control-plane message bytes</h2>'
        f"<p>{cp.get('shards')} shards &times; "
        f"{(agents // cp.get('shards')) if cp.get('shards') else 0} agents, "
        f"{cp.get('tenants')} tenants</p>"
        f"{tier_table}{table4}<h2>Per-tenant retunes</h2>{retune_table}"
        "</section>"
    )


def _trace_section(trace_summary: Optional[Any], top: int) -> str:
    if trace_summary is None:
        return ""
    from repro.telemetry.summary import format_summary

    text = format_summary(trace_summary, top=top)
    return (
        '<section id="trace-summary"><h2>Trace span self-time</h2>'
        f"<pre>{_html.escape(text)}</pre></section>"
    )


# ---------------------------------------------------------------------------
# Public renderers
# ---------------------------------------------------------------------------


def render_html(recording: Dict[str, Any],
                trace_summary: Optional[Any] = None,
                top: int = 10) -> str:
    """A single-file HTML run report (inline CSS + SVG, no assets)."""
    mode = (recording.get("meta") or {}).get("hybrid_mode", "off")
    body = "".join(
        [
            f"<h1>Run report (engine mode: {_html.escape(str(mode))})</h1>",
            _meta_section(recording),
            _fct_section(recording),
            _queue_section(recording),
            _rate_alpha_section(recording),
            _pfc_section(recording),
            _utility_section(recording),
            _control_plane_section(recording),
            _trace_section(trace_summary, top),
        ]
    )
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>repro run report</title><style>{_CSS}</style>"
        f"</head><body>{body}</body></html>"
    )


def render_markdown(recording: Dict[str, Any],
                    trace_summary: Optional[Any] = None,
                    top: int = 10) -> str:
    """Markdown digest of a recording (tables only, no charts)."""
    from repro.experiments.fct import DEFAULT_SIZE_BUCKETS, bucket_label

    meta = recording.get("meta") or {}
    samples = recording.get("samples") or {}
    net = recording.get("network") or {}

    def mean(values: Sequence[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    lines = [
        "# Run report",
        "",
        f"- engine mode: {meta.get('hybrid_mode', 'off')}",
        f"- hosts/switches: {meta.get('n_hosts')}/{meta.get('n_switches')}",
        f"- samples: {samples.get('kept')} kept of {samples.get('seen')} "
        f"(stride {samples.get('stride')})",
        f"- flows completed: {recording.get('flows_total', 0)}",
        f"- mean utility: {mean(net.get('utility', [])):.4f} "
        f"(O_TP {mean(net.get('throughput_util', [])):.4f}, "
        f"O_RTT {mean(net.get('norm_rtt', [])):.4f}, "
        f"O_PFC {mean(net.get('pfc_ok', [])):.4f})",
        "",
        "## FCT by flow class",
        "",
    ]
    flows = recording.get("flows") or []
    if not flows:
        lines.append("_no flows completed in this run_")
    else:
        lines.append("| class | count | mean FCT (s) | max FCT (s) |")
        lines.append("| --- | --- | --- | --- |")
        for low, high in DEFAULT_SIZE_BUCKETS:
            fcts = [f["fct"] for f in flows if low <= f["size"] < high]
            if fcts:
                lines.append(
                    f"| {bucket_label(low, high)} | {len(fcts)} "
                    f"| {sum(fcts) / len(fcts):.3g} | {max(fcts):.3g} |"
                )
    lines.extend(["", "## Switch counters", ""])
    lines.append("| switch | PFC pauses | ECN marked | dropped |")
    lines.append("| --- | --- | --- | --- |")
    for name, data in (recording.get("switches") or {}).items():
        lines.append(
            f"| {name} "
            f"| {data['pfc_pauses'][-1] if data['pfc_pauses'] else 0} "
            f"| {data['ecn_marked'][-1] if data['ecn_marked'] else 0} "
            f"| {data['dropped'][-1] if data['dropped'] else 0} |"
        )
    cp = recording.get("control_plane")
    if cp:
        lines.extend(["", "## Control-plane message bytes", ""])
        lines.append(
            f"- topology: {cp.get('shards')} shards, {cp.get('agents')} "
            f"agents, {cp.get('tenants')} tenants "
            f"({cp.get('intervals')} intervals)"
        )
        lines.append("| tier | total bytes |")
        lines.append("| --- | --- |")
        lines.append(f"| agent → rack | {cp.get('agent_rack_bytes', 0)} |")
        lines.append(f"| rack → pod | {cp.get('rack_pod_bytes', 0)} |")
        lines.append(f"| pod → global | {cp.get('pod_global_bytes', 0)} |")
        lines.append(f"| param dispatch | {cp.get('param_update_bytes', 0)} |")
        lines.append("")
        lines.append("| quantity | paper (Table IV) | this run |")
        lines.append("| --- | --- | --- |")
        lines.append(
            "| switch report, per switch per interval | ~520 B | "
            f"{cp.get('per_switch_report_bytes', 0.0):.0f} B |"
        )
    if trace_summary is not None:
        from repro.telemetry.summary import format_summary

        lines.extend(
            ["", "## Trace span self-time", "", "```",
             format_summary(trace_summary, top=top), "```"]
        )
    return "\n".join(lines) + "\n"


def render(recording: Dict[str, Any], fmt: str = "html",
           trace_summary: Optional[Any] = None, top: int = 10,
           source: str = "snapshot") -> str:
    """Render a recording as ``html`` or ``markdown``."""
    if fmt not in ("html", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    with trace.span("report.render", {"source": source, "format": fmt}):
        if fmt == "html":
            return render_html(recording, trace_summary=trace_summary, top=top)
        return render_markdown(recording, trace_summary=trace_summary, top=top)
