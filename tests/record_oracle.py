"""Reference spellings of a log record and of its labels.

`record_json_dict` is a record's log line as a dict, and `record_line` is
that dict as json.dumps(..., sort_keys=True) spells it, with its newline:
the bytes `cli._write_records` must give for the record. The log writer
spells its lines from a template instead.

`bucket_reference` and `categorize_reference` derive a record's labels the
plain way: each edge bucket by a loop over the upper edges, the angle
bucket as the minimum distance over all centers (min keeps the first of
equal distances, so a tie goes to the lower center), and a new
CategoryLabel per call. `report.bucket` bisects instead, and both it and
`report.categorize` share one instance per label triple.
"""

import json

from silentcrash.report import (
    ANGLE_CENTERS,
    ANGLE_CLASS_EPSILON,
    DISTANCE_EDGES,
    SPEED_EDGES,
    BucketLabels,
    CategoryLabel,
)


def record_json_dict(rec, buckets=None) -> dict:
    """The record's log line as a dict; `buckets` are its buckets when the caller derived them already."""
    return {
        "ordinal": rec.ordinal,
        "kind": rec.kind.value,
        "d": rec.params.d,
        "v_hat": rec.params.v_hat,
        "theta_long": rec.params.theta_long,
        "theta_lat": rec.params.theta_lat,
        "angle": rec.params.a,
        "verdict": rec.verdict.value,
        "first_contact_time": rec.first_contact_time,
        "sim_seconds": rec.sim_seconds,
        "clock_seconds": rec.clock_seconds,
        "buckets": vars(buckets or rec.buckets),
        "category": vars(rec.category),
    }


def record_line(rec, buckets=None) -> str:
    return json.dumps(record_json_dict(rec, buckets), sort_keys=True) + "\n"


def _edge_bucket_reference(value, edges) -> str:
    # boundary goes to the lower bucket: value <= hi selects the bucket
    for lo, hi in edges[:-1]:
        if value <= hi:
            return f"{lo:g}-{hi:g}"
    lo, hi = edges[-1]
    return f"{lo:g}-{hi:g}"


def bucket_reference(params) -> BucketLabels:
    return BucketLabels(
        distance=_edge_bucket_reference(params.d, DISTANCE_EDGES),
        speed=_edge_bucket_reference(params.v_hat, SPEED_EDGES),
        angle=f"{min(ANGLE_CENTERS, key=lambda c: abs(params.a - c)):g}",
    )


def categorize_reference(params) -> CategoryLabel:
    d, v, a = params.d, params.v_hat, params.a
    return CategoryLabel(
        distance="L" if d <= 3.0 else ("M" if d <= 5.0 else "F"),
        speed="L" if v <= 20.0 else ("M" if v <= 40.0 else "H"),
        angle="N" if a < -ANGLE_CLASS_EPSILON else ("P" if a > ANGLE_CLASS_EPSILON else "0"),
    )
