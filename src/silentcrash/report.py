"""Aggregate outcome records into per-bucket success-rate tables.

SR (success rate) for a bucket is the share of ground-truth collisions the
built-in detector missed: ics / (ics + detected). Buckets partition each
parameter axis; boundary values go to the lower bucket, angle values to the
nearest bucket center. Everything here is pure aggregation over an immutable
record list, and exports are byte-deterministic.
"""

from __future__ import annotations

import csv
import functools
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from .oracle import ScenarioType
from .scenario import ControlParameters

if TYPE_CHECKING:  # pragma: no cover
    from .fuzzer import OutcomeRecord

AXES = ("distance", "speed", "angle")
CROSS_PAIRS = (("distance", "speed"), ("speed", "angle"), ("distance", "angle"))

ANGLE_CLASS_EPSILON = 0.05

DISTANCE_EDGES = ((2.0, 3.0), (4.0, 5.0), (6.0, 7.0))
SPEED_EDGES = (
    (0.0, 10.0),
    (10.0, 20.0),
    (20.0, 30.0),
    (30.0, 40.0),
    (40.0, 50.0),
)
ANGLE_CENTERS = (-1.0, -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0)

# each axis's bucket labels, in report order
LABELS = {
    "distance": tuple(f"{lo:g}-{hi:g}" for lo, hi in DISTANCE_EDGES),
    "speed": tuple(f"{lo:g}-{hi:g}" for lo, hi in SPEED_EDGES),
    "angle": tuple(f"{c:g}" for c in ANGLE_CENTERS),
}


@dataclass(frozen=True)
class BucketLabels:
    distance: str
    speed: str
    angle: str


@dataclass(frozen=True)
class CategoryLabel:
    distance: str  # L / M / F
    speed: str  # L / M / H
    angle: str  # N / 0 / P


def bucket(params: ControlParameters) -> BucketLabels:
    """Bucket labels for one parameter triple; equal labels are one shared instance."""
    return _shared_labels(
        _edge_bucket(params.d, DISTANCE_EDGES, LABELS["distance"]),
        _edge_bucket(params.v_hat, SPEED_EDGES, LABELS["speed"]),
        _nearest_center(params.a, ANGLE_CENTERS),
    )


# at most 3 * 5 * 9 label triples, so a campaign's list of its records'
# buckets costs a pointer per record
_shared_labels = functools.cache(BucketLabels)


def _edge_bucket(value: float, edges: tuple[tuple[float, float], ...], labels: tuple[str, ...]) -> str:
    # boundary goes to the lower bucket: value <= hi selects the bucket
    for (_, hi), label in zip(edges[:-1], labels):
        if value <= hi:
            return label
    return labels[-1]


def _nearest_center(value: float, centers: tuple[float, ...]) -> str:
    # centers ascend and min keeps the first of equal distances: a tie goes to the lower center
    best = min(centers, key=lambda c: abs(value - c))
    return f"{best:g}"


def categorize(params: ControlParameters) -> CategoryLabel:
    d, v, a = params.d, params.v_hat, params.a
    return CategoryLabel(
        distance="L" if d <= 3.0 else ("M" if d <= 5.0 else "F"),
        speed="L" if v <= 20.0 else ("M" if v <= 40.0 else "H"),
        angle="N" if a < -ANGLE_CLASS_EPSILON else ("P" if a > ANGLE_CLASS_EPSILON else "0"),
    )


@dataclass(frozen=True)
class BucketStats:
    bucket: str
    executions: int
    collisions: int
    ics: int
    sr: float | None  # absent when the bucket saw no ground-truth collision

    @property
    def sr_percent(self) -> float | None:
        return None if self.sr is None else 100.0 * self.sr


@dataclass(frozen=True)
class SRReport:
    axes: dict[str, tuple[BucketStats, ...]]
    cross: dict[tuple[str, str], dict[tuple[str, str], BucketStats]]
    summary: dict


def _stats(bucket_label: str, counts: dict[ScenarioType, int]) -> BucketStats:
    ics = counts.get(ScenarioType.IC, 0)
    dc = counts.get(ScenarioType.DC, 0)
    executions = sum(counts.values())
    collisions = ics + dc
    return BucketStats(
        bucket=bucket_label,
        executions=executions,
        collisions=collisions,
        ics=ics,
        sr=(ics / collisions) if collisions else None,
    )


def success_rates(records: Sequence["OutcomeRecord"], buckets: Iterable[BucketLabels] | None = None) -> SRReport:
    """The SR report of the records; `buckets` are their buckets, in order, when the caller derived them already."""
    if not records:
        raise ValueError("records must not be empty")
    if buckets is None:
        buckets = (rec.buckets for rec in records)

    axis_counts: dict[str, dict[str, dict[ScenarioType, int]]] = {axis: {} for axis in AXES}
    cross_counts: dict[tuple[str, str], dict[tuple[str, str], dict[ScenarioType, int]]] = {
        pair: {} for pair in CROSS_PAIRS
    }
    for rec, labels in zip(records, buckets):
        for axis in AXES:
            cell = axis_counts[axis].setdefault(getattr(labels, axis), {})
            cell[rec.verdict] = cell.get(rec.verdict, 0) + 1
        for pair in CROSS_PAIRS:
            key = (getattr(labels, pair[0]), getattr(labels, pair[1]))
            cell = cross_counts[pair].setdefault(key, {})
            cell[rec.verdict] = cell.get(rec.verdict, 0) + 1

    axes = {}
    for axis in AXES:
        ordered = [label for label in LABELS[axis] if label in axis_counts[axis]]
        axes[axis] = tuple(_stats(label, axis_counts[axis][label]) for label in ordered)

    cross = {}
    for pair in CROSS_PAIRS:
        cross[pair] = {
            key: _stats(f"{key[0]}|{key[1]}", counts) for key, counts in sorted(cross_counts[pair].items())
        }

    return SRReport(axes=axes, cross=cross, summary=_summary(records))


def _kind_offsets(records: Sequence["OutcomeRecord"]) -> dict:
    """Virtual-clock offset of each scenario kind's first execution."""
    offsets = {}
    for rec in records:
        if rec.kind not in offsets:
            offsets[rec.kind] = rec.clock_seconds - rec.sim_seconds
    return offsets


def verdict_totals(records: Iterable["OutcomeRecord"]) -> dict[ScenarioType, int]:
    """Executions per verdict, with every verdict present."""
    totals = {t: 0 for t in ScenarioType}
    for rec in records:
        totals[rec.verdict] += 1
    return totals


def _summary(records: Sequence["OutcomeRecord"]) -> dict:
    totals = verdict_totals(records)
    executions = len(records)

    offsets = _kind_offsets(records)
    campaign_end = records[-1].clock_seconds
    first_ics = {}
    for rec in records:
        if rec.verdict is ScenarioType.IC and rec.kind not in first_ics:
            first_ics[rec.kind] = rec.clock_seconds - offsets[rec.kind]
    # kinds without any ICS are censored at the campaign end
    per_kind = {
        kind: first_ics.get(kind, campaign_end - offsets[kind]) for kind in offsets
    }
    return {
        "executions": executions,
        "totals": {t.value: totals[t] for t in ScenarioType},
        "proportion": totals[ScenarioType.IC] / executions,
        "time_to_first_ics": {k.value: round(v, 9) for k, v in per_kind.items()},
        "mean_time_to_first_ics": round(sum(per_kind.values()) / len(per_kind), 9),
        "kinds_with_ics": sorted(k.value for k in first_ics),
    }


def empty_report() -> SRReport:
    return SRReport(
        axes={},
        cross={},
        summary={
            "executions": 0,
            "totals": {t.value: 0 for t in ScenarioType},
            "proportion": None,
            "time_to_first_ics": {},
            "mean_time_to_first_ics": None,
            "kinds_with_ics": [],
        },
    )


CSV_HEADER = ("axis", "bucket", "executions", "collisions", "ics", "sr_percent")


def report_csv(report: SRReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for axis in AXES:
        for stats in report.axes.get(axis, ()):
            writer.writerow(_csv_row(axis, stats))
    return buf.getvalue()


def cross_csv(report: SRReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("axis_pair", "bucket_pair", "executions", "collisions", "ics", "sr_percent"))
    for pair in CROSS_PAIRS:
        for key, stats in report.cross.get(pair, {}).items():
            writer.writerow(
                (
                    f"{pair[0]}x{pair[1]}",
                    f"{key[0]}|{key[1]}",
                    stats.executions,
                    stats.collisions,
                    stats.ics,
                    _fmt_sr(stats.sr_percent),
                )
            )
    return buf.getvalue()


def _csv_row(axis: str, stats: BucketStats):
    return (axis, stats.bucket, stats.executions, stats.collisions, stats.ics, _fmt_sr(stats.sr_percent))


def _fmt_sr(sr_percent: float | None) -> str:
    return "" if sr_percent is None else f"{sr_percent:.4f}"


_SVG_BAR_W = 34
_SVG_GAP = 10
_SVG_PLOT_H = 120


def report_svg(report: SRReport) -> str:
    """One bar chart per axis of SR versus bucket, as a static SVG document."""
    panels = []
    x0 = 10
    for axis in AXES:
        stats = report.axes.get(axis, ())
        panel, width = _svg_panel(axis, stats, x0)
        panels.append(panel)
        x0 += width + 30
    body = "\n".join(panels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{x0}" height="200" '
        f'font-family="monospace" font-size="10">\n{body}\n</svg>\n'
    )


def _svg_panel(axis: str, stats: Iterable[BucketStats], x0: int) -> tuple[str, int]:
    stats = tuple(stats)
    parts = [f'<text x="{x0}" y="14">{axis} SR %</text>']
    x = x0
    for st in stats:
        pct = st.sr_percent or 0.0
        h = round(_SVG_PLOT_H * pct / 100.0, 2)
        y = round(20 + _SVG_PLOT_H - h, 2)
        parts.append(
            f'<rect x="{x}" y="{y}" width="{_SVG_BAR_W}" height="{h}" fill="#4477aa"/>'
        )
        parts.append(f'<text x="{x}" y="{20 + _SVG_PLOT_H + 12}">{st.bucket}</text>')
        parts.append(f'<text x="{x}" y="{y - 3}">{_fmt_sr(st.sr_percent) or "-"}</text>')
        x += _SVG_BAR_W + _SVG_GAP
    width = max(x - x0, _SVG_BAR_W)
    return "\n".join(parts), width


def export(report: SRReport, fmt: str, out_dir) -> list:
    """Write the report as CSV (plus cross matrices) or SVG; returns paths."""
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        main = out / "report.csv"
        main.write_text(report_csv(report))
        cross = out / "report_cross.csv"
        cross.write_text(cross_csv(report))
        return [main, cross]
    if fmt == "svg":
        path = out / "report.svg"
        path.write_text(report_svg(report))
        return [path]
    raise ValueError(f"unknown report format {fmt!r}")
