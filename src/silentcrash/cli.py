"""Campaign runner and utilities.

Subcommands:
    run             execute a campaign from a JSON config
    replay          re-simulate one logged execution and check its verdict
    report          rebuild CSV/SVG reports from a result log
    sweep-step      step-size sweep for one control-parameter axis
    sweep-threshold precision/recall sweep over overlap thresholds

Exit codes: 0 success, 1 config error, 2 I/O error, 3 internal invariant
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import functools
import itertools
import json
import math
import os
import struct
import sys
from pathlib import Path

# .detector, and numpy with it, is imported before .report on purpose: the
# other order measured about 20 ms (15 %) slower to import this module
from .detector import DefectModel, builtin_cd, ground_truth, silenced_by
from . import report as report_mod
from .config import ConfigError, load_config_file, parse_config
from .fuzzer import (
    CampaignConfig,
    InvalidSeedError,
    OutcomeRecord,
    run_campaign,
    step_size_sweep,
)
from .oracle import ScenarioType, check_ic, recall_sweep
from .scenario import ScenarioKind
from .simulator import simulate, trace_to_jsonl


class ExitStatus(enum.IntEnum):
    OK = 0
    CONFIG_ERROR = 1
    IO_ERROR = 2
    INTERNAL_ERROR = 3


def _fail(status: ExitStatus, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return int(status)


# The record index beside a log: this magic line, then little-endian u64s:
# the log's byte size, the record count n, and the n+1 byte offsets at which
# the log's lines start (the last is the log's end).
_INDEX_MAGIC = b"silentcrash record index 1\n"
_INDEX_HEAD = len(_INDEX_MAGIC) + 16


def _index_path(log: Path) -> Path:
    """The index of a log is named after the log, so a renamed or copied log has none."""
    return log.with_name(log.name + ".idx")


# A log line as json.dumps(..., sort_keys=True) spells a record, with a %s
# slot for each value in key order. "category" sorts right after "buckets",
# so the buckets slot takes one fragment that holds both.
_LINE_KEYS = ("angle", "buckets", "clock_seconds", "d", "first_contact_time", "kind", "ordinal")
_LINE_KEYS += ("sim_seconds", "theta_lat", "theta_long", "v_hat", "verdict")
_LINE = json.dumps(dict.fromkeys(_LINE_KEYS, "\0"), sort_keys=True)
_LINE = _LINE.replace('"buckets": "\\u0000"', "%s").replace('"\\u0000"', "%s") + "\n"
_KIND_JSON = {kind: json.dumps(kind.value) for kind in ScenarioKind}
_VERDICT_JSON = {verdict: json.dumps(verdict.value) for verdict in ScenarioType}


def _labels_fragment(labels, category) -> str:
    """The "buckets" and "category" fields of a log line."""
    spelled = (json.dumps(vars(labels), sort_keys=True), json.dumps(vars(category), sort_keys=True))
    return '"buckets": %s, "category": %s' % spelled


def _json_number(value) -> str:
    """A numeric field of a log line as json.dumps spells it."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)  # float.__repr__ or int.__repr__
    return "null" if value is None else json.dumps(value)  # NaN, Infinity, true, subclasses


def _write_records(records, path: Path, buckets=None) -> None:
    """Write the log line by line, then its index; a write that stops in between leaves no index.

    `buckets` are the records' report buckets, in order, when the caller
    derived them already. Each line fills _LINE, so its bytes are those of
    json.dumps(..., sort_keys=True) of the record. The labels fragment is
    spelled once per distinct (buckets, category) pair.
    """
    index = _index_path(path)
    index.unlink(missing_ok=True)
    offsets = [0]
    fragments = {}
    with path.open("w") as fh:
        for rec, labels in zip(records, buckets or itertools.repeat(None)):
            p = rec.params
            a = p.a  # an atan2 on each read
            pair = (labels or report_mod.bucket(p), report_mod.categorize(p, a))
            fragment = fragments.get(pair) or fragments.setdefault(pair, _labels_fragment(*pair))
            numbers = (a, rec.clock_seconds, p.d, rec.first_contact_time, rec.ordinal)
            numbers += (rec.sim_seconds, p.theta_lat, p.theta_long, p.v_hat)
            angle, clock, d, t, ordinal, sim, lat, lon, v = map(_json_number, numbers)
            kind, verdict = _KIND_JSON[rec.kind], _VERDICT_JSON[rec.verdict]
            line = _LINE % (angle, fragment, clock, d, t, kind, ordinal, sim, lat, lon, v, verdict)
            fh.write(line)
            # ensure_ascii: one character per byte
            offsets.append(offsets[-1] + len(line))
    index.write_bytes(_INDEX_MAGIC + struct.pack(f"<{len(offsets) + 2}Q", offsets[-1], len(offsets) - 1, *offsets))


class LogError(Exception):
    """A result log that cannot be read as outcome records."""


def _parse_record(line: bytes, path: Path, lineno: int) -> OutcomeRecord:
    try:
        return OutcomeRecord.from_json_dict(json.loads(line))
    except (KeyError, TypeError, ValueError) as exc:
        raise _record_error(exc, path, lineno) from None


def _record_error(exc: Exception, path: Path, lineno: int) -> LogError:
    """The one-line error for a log line that json.loads or from_json_dict rejected with exc."""
    if isinstance(exc, json.JSONDecodeError):
        return LogError(f"{path} line {lineno}: invalid JSON at column {exc.colno}: {exc.msg}")
    return LogError(f"{path} line {lineno}: malformed record: {type(exc).__name__}: {exc}")


def _numbered_records(fh):
    """(line number, line) of the non-blank lines of a log opened in binary mode."""
    return ((lineno, line) for lineno, line in enumerate(fh, 1) if line.strip())


def _read_records(path: Path) -> list[OutcomeRecord]:
    with path.open("rb") as fh:
        return [_parse_record(line, path, lineno) for lineno, line in _numbered_records(fh)]


def _indexed_record(path: Path, ordinal: int) -> OutcomeRecord | None:
    """The record at ordinal, read through the log's index; None if the index cannot be trusted.

    The index is trusted for this ordinal only when it is whole, was written
    no earlier than the log was last modified, records the log's size, and
    points at exactly one line whose record parses and carries this ordinal.
    """
    try:
        # unbuffered, so that each read takes only the bytes it asks for
        with open(path, "rb", buffering=0) as log, open(_index_path(path), "rb", buffering=0) as idx:
            log_stat, idx_stat = os.fstat(log.fileno()), os.fstat(idx.fileno())
            head = idx.read(_INDEX_HEAD)
            if not head.startswith(_INDEX_MAGIC) or log_stat.st_mtime_ns > idx_stat.st_mtime_ns:
                return None
            size, count = struct.unpack_from("<QQ", head, len(_INDEX_MAGIC))
            whole = idx_stat.st_size == _INDEX_HEAD + 8 * (count + 1)
            if not (whole and size == log_stat.st_size and 0 <= ordinal < count):
                return None
            idx.seek(_INDEX_HEAD + 8 * ordinal)
            start, stop = struct.unpack("<QQ", idx.read(16))
            if not start < stop <= size:
                return None
            before = 1 if start else 0  # the byte before the line must end the previous one
            log.seek(start - before)
            chunk = log.read(stop - start + before)
    except (OSError, struct.error):  # struct.error: a header or offset pair cut short
        return None
    line = chunk[before:]
    if chunk[:before] != b"\n" * before or line.find(b"\n") != len(line) - 1:  # one whole line
        return None
    try:
        data = json.loads(line)
        if type(data) is not dict or data.get("ordinal") != ordinal:
            return None
        return OutcomeRecord.from_json_dict(data)
    except (KeyError, TypeError, ValueError):
        return None


def _read_record_at(path: Path, ordinal: int) -> OutcomeRecord:
    """Parse only the requested record: through the log's index, or else by streaming the log.

    When the index cannot be trusted, the log is read no further than the
    record's line. Ordinals count non-blank lines, which are skipped without
    a Python-level loop. Line numbers are counted only for the error
    messages: the log is read again up to the record's line when the record
    is damaged or carries another ordinal (two records merged onto one line
    shift every later one), and in full when the ordinal is out of range.
    Every error comes from this streaming path.
    """
    record = _indexed_record(path, ordinal)
    if record is not None:
        return record
    with path.open("rb") as fh:
        if 0 <= ordinal <= sys.maxsize:  # the range islice accepts
            line = next(itertools.islice(filter(bytes.strip, fh), ordinal, None), None)
            if line is not None:
                try:
                    record = OutcomeRecord.from_json_dict(json.loads(line))
                except (KeyError, TypeError, ValueError) as exc:
                    error = exc
                else:
                    if record.ordinal == ordinal:
                        return record
                    error = None
                fh.seek(0)
                lineno, _ = next(itertools.islice(_numbered_records(fh), ordinal, None))
                if error is None:
                    raise LogError(f"{path} line {lineno}: record carries ordinal {record.ordinal}, not {ordinal}")
                raise _record_error(error, path, lineno) from None
        fh.seek(0)
        count = sum(1 for _ in filter(bytes.strip, fh))
    raise LogError(f"ordinal {ordinal} outside log (0..{count - 1})")


def _kind_summary_line(kind, records) -> str:
    mine = [r for r in records if r.kind is kind]
    counts = report_mod.verdict_totals(mine)
    collisions = counts[ScenarioType.IC] + counts[ScenarioType.DC]
    sr = f"{100.0 * counts[ScenarioType.IC] / collisions:.2f}%" if collisions else "-"
    return (
        f"{kind.value}: executions={len(mine)} IC={counts[ScenarioType.IC]} "
        f"DC={counts[ScenarioType.DC]} NC={counts[ScenarioType.NC]} "
        f"FP={counts[ScenarioType.FP]} SR={sr}"
    )


def cmd_run(args) -> int:
    try:
        config, data, digest = load_config_file(args.config)
    except FileNotFoundError:
        return _fail(ExitStatus.IO_ERROR, f"config file not found: {args.config}")
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot read {args.config}: {exc.strerror}")
    except ConfigError as exc:
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))

    out = Path(args.out)
    try:
        created = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot create output directory {out}: {exc.strerror}")

    try:
        result = run_campaign(config)
    except (InvalidSeedError, ValueError) as exc:
        for path in created:
            path.rmdir()
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))

    # each record's buckets, derived once for the report and the log
    buckets = [rec.buckets for rec in result.records]
    report = report_mod.success_rates(result.records, buckets) if result.records else report_mod.empty_report()
    manifest = result.manifest(report.summary)
    manifest["config"] = data
    manifest["config_digest"] = digest
    try:
        _write_records(result.records, out / "records.jsonl", buckets)
        (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        report_mod.export(report, "csv", out)
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot write {exc.filename or out}: {exc.strerror}")

    for kind in config.kinds:
        print(_kind_summary_line(kind, result.records))
    print(f"total executions={len(result.records)} proportion={result.proportion:.4f}")
    return int(ExitStatus.OK)


def _defect_override(args, base: DefectModel) -> tuple[DefectModel, bool]:
    fields = {}
    if args.sample_period is not None:
        fields["sample_period"] = args.sample_period
    if args.min_penetration is not None:
        fields["min_penetration"] = args.min_penetration
    if args.min_impact_speed is not None:
        fields["min_impact_speed"] = args.min_impact_speed
    if not fields:
        return base, False
    return dataclasses.replace(base, **fields), True


class _NotAnObject(Exception):
    """A manifest whose JSON is not an object."""


@functools.lru_cache(maxsize=1)
def _manifest_config(raw: bytes) -> CampaignConfig:
    """The config held by a manifest's bytes, parsed once while the same bytes come back.

    lru_cache keeps only a config that parsed, so bytes that fail raise their
    error again on every call.
    """
    manifest = json.loads(raw)
    if not isinstance(manifest, dict):
        raise _NotAnObject
    return parse_config(manifest["config"])


def cmd_replay(args) -> int:
    log_path = Path(args.log)
    manifest_path = log_path.parent / "manifest.json"
    try:
        record = _read_record_at(log_path, args.ordinal)
        raw = manifest_path.read_bytes()
    except FileNotFoundError as exc:
        return _fail(ExitStatus.IO_ERROR, f"missing file: {exc.filename}")
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot read {exc.filename}: {exc.strerror}")
    except LogError as exc:
        return _fail(ExitStatus.IO_ERROR, str(exc))

    try:
        config = _manifest_config(raw)
    except json.JSONDecodeError as exc:
        return _fail(ExitStatus.IO_ERROR, f"{manifest_path} line {exc.lineno}: invalid JSON: {exc.msg}")
    except UnicodeDecodeError as exc:
        return _fail(ExitStatus.IO_ERROR, f"{manifest_path}: not UTF-8/16/32 text: {exc.reason} at byte {exc.start}")
    except _NotAnObject:
        return _fail(ExitStatus.IO_ERROR, f"{manifest_path}: not a JSON object")
    except (KeyError, ConfigError) as exc:
        return _fail(ExitStatus.CONFIG_ERROR, f"manifest config invalid: {exc}")

    try:
        defect, overridden = _defect_override(args, config.defect)
    except ValueError as exc:
        return _fail(ExitStatus.CONFIG_ERROR, f"defect override invalid: {exc}")
    spec, _ = config.seed_for(record.kind)
    trace = simulate(spec, record.params, config.sim)
    verdict = check_ic(trace, defect, config.oracle)

    out = Path(args.out) if args.out else log_path.parent / f"trace_{args.ordinal}.jsonl"
    try:
        out.write_text(trace_to_jsonl(trace))
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot write {out}: {exc.strerror}")
    print(f"ordinal={args.ordinal} kind={record.kind.value} verdict={verdict.value} trace={out}")
    if verdict is ScenarioType.IC:
        print(f"silenced_by={silenced_by(trace, defect)}")

    if not overridden and verdict is not record.verdict:
        return _fail(
            ExitStatus.INTERNAL_ERROR,
            f"replay verdict {verdict.value} != logged {record.verdict.value} (nondeterminism bug)",
        )
    return int(ExitStatus.OK)


def cmd_report(args) -> int:
    try:
        records = _read_records(Path(args.log))
    except FileNotFoundError:
        return _fail(ExitStatus.IO_ERROR, f"log not found: {args.log}")
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot read {args.log}: {exc.strerror}")
    except LogError as exc:
        return _fail(ExitStatus.IO_ERROR, str(exc))
    report = report_mod.success_rates(records) if records else report_mod.empty_report()
    try:
        paths = report_mod.export(report, args.format, args.out)
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot write {exc.filename or args.out}: {exc.strerror}")
    for p in paths:
        print(p)
    return int(ExitStatus.OK)


def _parse_float_list(raw: str, field: str) -> list[float]:
    items = [s for s in (part.strip() for part in raw.split(",")) if s]
    if not items:
        raise ConfigError(f"{field}: list must not be empty")
    try:
        return [float(s) for s in items]
    except ValueError:
        raise ConfigError(f"{field}: entries must be numbers") from None


def _write_csv(out: str, lines: list[str]) -> int:
    """Write the CSV lines to out and print its path; exit 2 if it cannot be written."""
    try:
        Path(out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot write {out}: {exc.strerror}")
    print(out)
    return int(ExitStatus.OK)


def _load_optional_config(path, fallback: CampaignConfig) -> CampaignConfig:
    if path is None:
        return fallback
    config, _, _ = load_config_file(path)
    return config


def cmd_sweep_step(args) -> int:
    try:
        steps = _parse_float_list(args.steps, "steps")
        fallback = parse_config({"kinds": [args.kind], "budget": 1})
        config = _load_optional_config(args.config, fallback)
        points = step_size_sweep(args.kind, args.axis, steps, args.trials, config)
    except FileNotFoundError:
        return _fail(ExitStatus.IO_ERROR, f"config file not found: {args.config}")
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot read {args.config}: {exc.strerror}")
    except (ConfigError, ValueError) as exc:
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))

    lines = ["step,mean_ics,trial_counts"]
    for pt in points:
        lines.append(f"{pt.step:g},{pt.mean_ics:.6f},{'|'.join(str(c) for c in pt.counts)}")
    return _write_csv(args.out, lines)


_SWEEP_THRESHOLD_DEFAULT = {
    "kinds": ["FLB", "PSF", "LC"],
    "budget": 600,
    "mutator": "guided",
    "plans": {"default": {"speed_start": 10.0, "speed_step": 10.0}},
}


def cmd_sweep_threshold(args) -> int:
    try:
        thresholds = _parse_float_list(args.thresholds, "thresholds")
        for t in thresholds:
            if not (0.0 <= t < 1.0):
                raise ConfigError(f"thresholds: {t:g} outside 0..1")
        config = _load_optional_config(args.config, parse_config(_SWEEP_THRESHOLD_DEFAULT))
    except FileNotFoundError:
        return _fail(ExitStatus.IO_ERROR, f"config file not found: {args.config}")
    except OSError as exc:
        return _fail(ExitStatus.IO_ERROR, f"cannot read {args.config}: {exc.strerror}")
    except (ConfigError, ValueError) as exc:
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))

    try:
        result = run_campaign(config)
    except (InvalidSeedError, ValueError) as exc:
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))
    labeled = []
    specs = {kind: config.seed_for(kind)[0] for kind in config.kinds}
    cruise = None
    for rec in result.records:
        trace = simulate(specs[rec.kind], rec.params, config.sim, cruise)
        cruise = trace.cruise
        label = ground_truth(trace) is not None and not builtin_cd(trace, config.defect)
        labeled.append((trace, label))

    try:
        points = recall_sweep(labeled, thresholds, config.defect)
    except ValueError as exc:
        return _fail(ExitStatus.CONFIG_ERROR, str(exc))

    lines = ["threshold,tp,fp,fn,precision,recall"]
    for pt in points:
        precision = "" if pt.precision is None else f"{pt.precision:.6f}"
        recall = "" if pt.recall is None else f"{pt.recall:.6f}"
        lines.append(f"{pt.threshold:g},{pt.tp},{pt.fp},{pt.fn},{precision},{recall}")
    return _write_csv(args.out, lines)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse_args call gets a fresh namespace."""
    parser = argparse.ArgumentParser(prog="silentcrash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a fuzzing campaign")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-simulate one logged execution")
    p_replay.add_argument("--log", required=True)
    p_replay.add_argument("--ordinal", type=int, required=True)
    p_replay.add_argument("--out")
    p_replay.add_argument("--sample-period", type=int, dest="sample_period")
    p_replay.add_argument("--min-penetration", type=float, dest="min_penetration")
    p_replay.add_argument("--min-impact-speed", type=float, dest="min_impact_speed")
    p_replay.set_defaults(func=cmd_replay)

    p_report = sub.add_parser("report", help="rebuild reports from a result log")
    p_report.add_argument("--log", required=True)
    p_report.add_argument("--format", choices=("csv", "svg"), default="csv")
    p_report.add_argument("--out", required=True)
    p_report.set_defaults(func=cmd_report)

    p_step = sub.add_parser("sweep-step", help="step-size sweep for one axis")
    p_step.add_argument("--kind", required=True)
    p_step.add_argument("--axis", required=True)
    p_step.add_argument("--steps", required=True, help="comma-separated step sizes")
    p_step.add_argument("--trials", type=int, default=10)
    p_step.add_argument("--config")
    p_step.add_argument("--out", required=True)
    p_step.set_defaults(func=cmd_sweep_step)

    p_thr = sub.add_parser("sweep-threshold", help="oracle threshold precision/recall sweep")
    p_thr.add_argument("--thresholds", required=True, help="comma-separated thresholds")
    p_thr.add_argument("--config")
    p_thr.add_argument("--out", required=True)
    p_thr.set_defaults(func=cmd_sweep_threshold)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map them onto the config-error code
        return int(ExitStatus.CONFIG_ERROR) if exc.code else int(ExitStatus.OK)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
