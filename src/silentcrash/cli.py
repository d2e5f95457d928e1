"""Campaign runner and utilities.

Subcommands:
    run             execute a campaign from a JSON config
    replay          re-simulate one logged execution and check its verdict
    report          rebuild CSV/SVG reports from a result log
    sweep-step      step-size sweep for one control-parameter axis
    sweep-threshold precision/recall sweep over overlap thresholds

Exit codes: 0 success, 1 config error, 2 I/O error, 3 internal invariant
violation. Commands raise their failures, and `main` turns each into one
`error:` line on stderr and its exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import errno
import functools
import json
import os
import shutil
import stat
import struct
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

from .detector import DefectModel, builtin_cd, ground_truth, silenced_by
from . import report as report_mod
from .config import ConfigError, load_config_file, parse_config
from .fuzzer import CampaignConfig, OutcomeRecord, run_campaign, step_size_sweep
from .oracle import ScenarioType, check_ic, recall_sweep
from .scenario import ScenarioKind
from .simulator import SimulationError, TextBudget, _json_scalar, simulate, trace_to_jsonl


class ExitStatus(enum.IntEnum):
    OK = 0
    CONFIG_ERROR = 1
    IO_ERROR = 2
    INTERNAL_ERROR = 3


class _Failure(Exception):
    """A failure whose message needs its command's context, with the status main exits with."""

    def __init__(self, status: ExitStatus, message: str):
        super().__init__(message)
        self.status = status


# The record index beside a log: this magic line, then little-endian u64s:
# the log's byte size, the record count n, and the n+1 byte offsets at which
# the log's lines start (the last is the log's end).
_INDEX_MAGIC = b"silentcrash record index 1\n"
_INDEX_HEAD = len(_INDEX_MAGIC) + 16


def _index_name(log: str | Path) -> str:
    """The index of a log is named after the log, so a renamed or copied log has none.

    The name is the log's path string plus ".idx": a path with no name, such
    as / or ., still names one.
    """
    return os.fspath(log) + ".idx"


def _index_path(log: Path) -> Path:
    """_index_name as a Path, to write the index and to name it in messages."""
    return Path(_index_name(log))


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


def _write_records(records, path: Path, buckets) -> None:
    """Write the log line by line, then its index; a write that stops in between leaves no index.

    `buckets` are the records' report buckets, in order. Each line fills
    _LINE, so its bytes are those of json.dumps(..., sort_keys=True) of the
    record. The labels fragment is spelled once per distinct (buckets,
    category) pair.
    """
    index = _index_path(path)
    index.unlink(missing_ok=True)
    offsets = [0]
    fragments = {}
    with path.open("w") as fh:
        for rec, labels in zip(records, buckets):
            p = rec.params
            a = p.a  # an atan2 on each read
            pair = (labels, report_mod.categorize(p, a))
            fragment = fragments.get(pair) or fragments.setdefault(pair, _labels_fragment(*pair))
            numbers = (a, rec.clock_seconds, p.d, rec.first_contact_time, rec.ordinal)
            numbers += (rec.sim_seconds, p.theta_lat, p.theta_long, p.v_hat)
            angle, clock, d, t, ordinal, sim, lat, lon, v = map(_json_scalar, numbers)
            kind, verdict = _KIND_JSON[rec.kind], _VERDICT_JSON[rec.verdict]
            line = _LINE % (angle, fragment, clock, d, t, kind, ordinal, sim, lat, lon, v, verdict)
            fh.write(line)
            # ensure_ascii: one character per byte
            offsets.append(offsets[-1] + len(line))
    index.write_bytes(_INDEX_MAGIC + struct.pack(f"<{len(offsets) + 2}Q", offsets[-1], len(offsets) - 1, *offsets))


class LogError(Exception):
    """A result log that cannot be read as outcome records."""


def _parse_record(line: bytes, path: Path, lineno: int) -> OutcomeRecord:
    """The record of one log line; a LogError of one line when json.loads or from_json_dict rejects it."""
    try:
        return OutcomeRecord.from_json_dict(json.loads(line))
    except json.JSONDecodeError as exc:
        raise LogError(f"{path} line {lineno}: invalid JSON at column {exc.colno}: {exc.msg}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past float range
        raise LogError(f"{path} line {lineno}: malformed record: {type(exc).__name__}: {exc}") from None


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
    log = idx = -1  # the descriptors opened so far
    try:
        log = os.open(path, os.O_RDONLY)
        idx = os.open(_index_name(path), os.O_RDONLY)
        log_stat, idx_stat = os.fstat(log), os.fstat(idx)
        head = os.pread(idx, _INDEX_HEAD, 0)
        if not head.startswith(_INDEX_MAGIC) or log_stat.st_mtime_ns > idx_stat.st_mtime_ns:
            return None
        size, count = struct.unpack_from("<QQ", head, len(_INDEX_MAGIC))
        whole = idx_stat.st_size == _INDEX_HEAD + 8 * (count + 1)
        if not (whole and size == log_stat.st_size and 0 <= ordinal < count):
            return None
        start, stop = struct.unpack("<QQ", os.pread(idx, 16, _INDEX_HEAD + 8 * ordinal))
        if not start < stop <= size:
            return None
        before = 1 if start else 0  # the byte before the line must end the previous one
        chunk = os.pread(log, stop - start + before, start - before)
    except (OSError, struct.error):  # struct.error: a header or offset pair cut short
        return None
    finally:
        for fd in (log, idx):
            if fd >= 0:
                os.close(fd)
    line = chunk[before:]
    if chunk[:before] != b"\n" * before or line.find(b"\n") != len(line) - 1:  # one whole line
        return None
    try:
        record = _parse_record(line, path, 0)  # the line number only goes into the message
    except LogError:
        return None
    return record if record.ordinal == ordinal else None


def _read_record_at(path: str | Path, ordinal: int) -> OutcomeRecord:
    """Parse only the requested record: through the log's index, or else by streaming the log.

    When the index cannot be trusted, one pass over the log counts its
    non-blank lines and parses only the ordinal's, with the parser that
    `report` runs on every line, reading no further than that line. A
    record that carries another ordinal (two records merged onto one line
    shift every later one) is an error, and an ordinal out of range reads
    the whole log to name the range, or to say that it holds no records.
    Every error comes from this streaming path, and spells path as
    str(Path(path)) does.
    """
    record = _indexed_record(path, ordinal)
    if record is not None:
        return record
    path = Path(path)
    count = 0
    with path.open("rb") as fh:
        for lineno, line in _numbered_records(fh):
            if count == ordinal:
                record = _parse_record(line, path, lineno)
                if record.ordinal != ordinal:
                    raise LogError(f"{path} line {lineno}: record carries ordinal {record.ordinal}, not {ordinal}")
                return record
            count += 1
    if not count:
        raise LogError(f"{path} holds no records")
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


# What `run` writes, in the order the files take their names: a log before
# its index, so that an index in place is never older than the log
_RUN_OUTPUTS = ("records.jsonl", "records.jsonl.idx", "manifest.json", "report.csv", "report_cross.csv")


def _write_run_outputs(out: Path, records, buckets, manifest: dict, report) -> None:
    """Write every output of a run into a temporary directory in out, then move each over its name.

    Nothing is moved until every file is written and no output's name is
    taken by a directory, so a write that fails, or a directory in the way,
    leaves the outputs of an earlier run as they were; the temporary
    directory goes in any case. An error names the output (or out), not
    the temporary path that stood in for it.
    """
    try:
        tmp = Path(tempfile.mkdtemp(prefix=".run-", dir=out))
    except OSError as exc:
        exc.filename = str(out)
        raise
    try:
        _write_records(records, tmp / "records.jsonl", buckets)
        (tmp / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        report_mod.export(report, "csv", tmp)
        for name in _RUN_OUTPUTS:
            target = out / name
            if target.is_dir() and not target.is_symlink():  # os.replace replaces a symlink itself
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
        for name in _RUN_OUTPUTS:
            os.replace(tmp / name, out / name)
    except OSError as exc:
        if exc.filename is not None and Path(exc.filename).parent == tmp:
            exc.filename = str(out / Path(exc.filename).name)
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _load_config(path, fallback: CampaignConfig | None = None) -> tuple[CampaignConfig, dict | None, str | None]:
    """load_config_file(path), or (fallback, None, None) when path is None; exit 2 when the file cannot be read."""
    if path is None:
        return fallback, None, None
    try:
        return load_config_file(path)
    except FileNotFoundError:
        raise _Failure(ExitStatus.IO_ERROR, f"config file not found: {path}")
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot read {path}: {exc.strerror}")


def cmd_run(args) -> None:
    config, data, digest = _load_config(args.config)
    out = Path(args.out)
    try:
        created = [p for p in (out, *out.parents) if not p.exists()]  # deepest first
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot create output directory {out}: {exc.strerror}")
    try:
        result = run_campaign(config)
    except ValueError:
        for path in created:
            path.rmdir()
        raise

    # each record's buckets, derived once for the report and the log
    buckets = [rec.buckets for rec in result.records]
    report = report_mod.success_rates(result.records, buckets) if result.records else report_mod.empty_report()
    manifest = result.manifest(report.summary)
    manifest["config"] = data
    manifest["config_digest"] = digest
    try:
        _write_run_outputs(out, result.records, buckets, manifest, report)
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot write {exc.filename or out}: {exc.strerror}")

    for kind in config.kinds:
        print(_kind_summary_line(kind, result.records))
    print(f"total executions={len(result.records)} proportion={result.proportion:.4f}")


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


# The most cruise stages kept per manifest: a config may hold 6 kinds x 10000
# distances, and a stage takes about 2 KB without its text.
_STAGES_KEPT = 1024


class _Replays(NamedTuple):
    """What the replays of one manifest share: its config, the cruise stages built for it, and the text kept.

    stages holds a cruise stage per (kind, d), each built from the kind's
    seed spec, and text the one budget that keeps the stages' segment text
    and each kind's NPC rows, giving up the oldest first.
    """

    config: CampaignConfig
    stages: dict
    text: TextBudget


@functools.lru_cache(maxsize=1)
def _manifest_config(raw: bytes) -> _Replays:
    """The config held by a manifest's bytes, parsed once while the same bytes come back.

    The replays' cruise stages and the budget of their text are kept with
    it, so bytes that change drop them too. lru_cache keeps only a config
    that parsed, so bytes that fail raise their error again on every call.
    """
    manifest = json.loads(raw)
    if not isinstance(manifest, dict):
        raise _NotAnObject
    return _Replays(parse_config(manifest["config"]), {}, TextBudget())


def _write_in_place(path: Path, text: str, keep: list) -> os.stat_result | None:
    """Write text over path from its first byte, then cut a regular file to the bytes written.

    Unlike opening with truncation, this lets the file system keep the blocks
    of an older trace at the same path (ext4 flushes a file truncated to zero
    when it is closed). Bytes past what was written are cut even when the
    write fails, so no tail of an older trace survives. Symlinks are
    followed; a device or FIFO is written but not truncated.

    keep holds the stat results of files that must keep their bytes. When
    path opens one of them (the same st_dev and st_ino, so through any
    spelling, symlink or hard link), nothing is written and that result is
    returned; else None.
    """
    data = text.encode()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        opened = os.fstat(fd)
        for seen in keep:
            if os.path.samestat(opened, seen):
                return seen
        written = 0
        try:
            with memoryview(data) as view:
                while written < len(data):
                    written += os.write(fd, view[written:])
        finally:
            if stat.S_ISREG(opened.st_mode):
                os.ftruncate(fd, written)
    finally:
        os.close(fd)
    return None


def _read_file(name: str) -> tuple[bytes, os.stat_result]:
    """The bytes of the file at name, as Path.read_bytes gives them, without a file object, and its stat result.

    An OSError from os.read (EISDIR for a directory) carries no filename.
    """
    fd = os.open(name, os.O_RDONLY)
    try:
        seen = os.fstat(fd)
        chunks = [os.read(fd, seen.st_size + 1)]  # + 1: a file that grew is read on
        while chunks[-1]:
            chunks.append(os.read(fd, 1 << 16))
    finally:
        os.close(fd)
    return b"".join(chunks), seen


def _manifest_path(log: str) -> Path:
    """The manifest beside a log, spelled as messages spell it."""
    return Path(log).parent / "manifest.json"


def _read_error(exc: OSError, name) -> _Failure:
    if isinstance(exc, FileNotFoundError):
        return _Failure(ExitStatus.IO_ERROR, f"missing file: {name}")
    return _Failure(ExitStatus.IO_ERROR, f"cannot read {name}: {exc.strerror}")


def cmd_replay(args) -> None:
    # The log and the manifest are opened by path string; a Path is built
    # only where a message or the default --out spells a path. Path reads
    # records.jsonl/ and records.jsonl/. as records.jsonl, which
    # os.path.dirname would take for a directory, so they are normalized first.
    log = args.log
    if os.path.basename(log) in ("", "."):
        log = str(Path(log))
    try:
        record = _read_record_at(log, args.ordinal)
        log_seen = os.stat(log)
    except OSError as exc:
        raise _read_error(exc, exc.filename)
    try:
        raw, manifest_seen = _read_file(os.path.join(os.path.dirname(log), "manifest.json"))
    except OSError as exc:
        raise _read_error(exc, _manifest_path(log))

    try:
        replays = _manifest_config(raw)
    except json.JSONDecodeError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"{_manifest_path(log)} line {exc.lineno}: invalid JSON: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"{_manifest_path(log)}: not UTF-8/16/32 text: {exc.reason} at byte {exc.start}")
    except _NotAnObject:
        raise _Failure(ExitStatus.IO_ERROR, f"{_manifest_path(log)}: not a JSON object")
    except (KeyError, ConfigError) as exc:
        raise _Failure(ExitStatus.CONFIG_ERROR, f"manifest config invalid: {exc}")
    config = replays.config

    try:
        defect, overridden = _defect_override(args, config.defect)
    except ValueError as exc:
        raise _Failure(ExitStatus.CONFIG_ERROR, f"defect override invalid: {exc}")
    stages, key = replays.stages, (record.kind, record.params.d)
    stage = stages.get(key)
    spec = config.seed_for(record.kind)[0] if stage is None else stage.spec
    try:
        trace = simulate(spec, record.params, config.sim, stage)
    except SimulationError as exc:
        raise _Failure(ExitStatus.CONFIG_ERROR, f"manifest config invalid: {exc}")
    if stage is None:
        if len(stages) >= _STAGES_KEPT:
            del stages[next(iter(stages))]  # the stage kept longest
        stages[key] = trace.cruise
    verdict = check_ic(trace, defect, config.oracle)

    out = Path(args.out) if args.out else Path(log).parent / f"trace_{args.ordinal}.jsonl"
    keep = [log_seen, manifest_seen]
    try:
        keep.append(os.stat(_index_name(log)))
    except OSError:
        pass  # a renamed or copied log has no index
    try:
        kept = _write_in_place(out, trace_to_jsonl(trace, replays.text), keep)
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot write {out}: {exc.strerror}")
    if kept is not None:
        read = Path(log) if kept is log_seen else _manifest_path(log) if kept is manifest_seen else _index_path(log)
        raise _Failure(ExitStatus.IO_ERROR, f"cannot write {out}: it is {read}, which replay reads; nothing written")
    print(f"ordinal={args.ordinal} kind={record.kind.value} verdict={verdict.value} trace={out}")
    if verdict is ScenarioType.IC:
        print(f"silenced_by={silenced_by(trace, defect)}")

    if not overridden and verdict is not record.verdict:
        message = f"replay verdict {verdict.value} != logged {record.verdict.value} (nondeterminism bug)"
        raise _Failure(ExitStatus.INTERNAL_ERROR, message)


def cmd_report(args) -> None:
    try:
        records = _read_records(Path(args.log))
    except FileNotFoundError:
        raise _Failure(ExitStatus.IO_ERROR, f"log not found: {args.log}")
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot read {args.log}: {exc.strerror}")
    report = report_mod.success_rates(records) if records else report_mod.empty_report()
    try:
        paths = report_mod.export(report, args.format, args.out)
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot write {exc.filename or args.out}: {exc.strerror}")
    for p in paths:
        print(p)


def _parse_float_list(raw: str, field: str) -> list[float]:
    items = [s for s in (part.strip() for part in raw.split(",")) if s]
    if not items:
        raise ConfigError(f"{field}: list must not be empty")
    try:
        return [float(s) for s in items]
    except ValueError:
        raise ConfigError(f"{field}: entries must be numbers") from None


def _write_csv(out: str, lines: list[str]) -> None:
    """Write the CSV lines to out and print its path; exit 2 if it cannot be written."""
    try:
        Path(out).write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise _Failure(ExitStatus.IO_ERROR, f"cannot write {out}: {exc.strerror}")
    print(out)


def cmd_sweep_step(args) -> None:
    steps = _parse_float_list(args.steps, "steps")
    config, _, _ = _load_config(args.config, parse_config({"kinds": [args.kind], "budget": 1}))
    points = step_size_sweep(args.kind, args.axis, steps, args.trials, config)
    lines = ["step,mean_ics,trial_counts"]
    for pt in points:
        lines.append(f"{pt.step:g},{pt.mean_ics:.6f},{'|'.join(str(c) for c in pt.counts)}")
    _write_csv(args.out, lines)


_SWEEP_THRESHOLD_DEFAULT = {
    "kinds": ["FLB", "PSF", "LC"],
    "budget": 600,
    "mutator": "guided",
    "plans": {"default": {"speed_start": 10.0, "speed_step": 10.0}},
}


def cmd_sweep_threshold(args) -> None:
    thresholds = _parse_float_list(args.thresholds, "thresholds")
    for t in thresholds:
        if not (0.0 <= t < 1.0):
            raise ConfigError(f"thresholds: {t:g} outside 0..1")
    config, _, _ = _load_config(args.config, parse_config(_SWEEP_THRESHOLD_DEFAULT))
    result = run_campaign(config)
    labeled = []
    specs = {kind: config.seed_for(kind)[0] for kind in config.kinds}
    cruise = None
    for rec in result.records:
        trace = simulate(specs[rec.kind], rec.params, config.sim, cruise)
        cruise = trace.cruise
        label = ground_truth(trace) is not None and not builtin_cd(trace, config.defect)
        labeled.append((trace, label))

    points = recall_sweep(labeled, thresholds, config.defect)
    lines = ["threshold,tp,fp,fn,precision,recall"]
    for pt in points:
        precision = "" if pt.precision is None else f"{pt.precision:.6f}"
        recall = "" if pt.recall is None else f"{pt.recall:.6f}"
        lines.append(f"{pt.threshold:g},{pt.tp},{pt.fp},{pt.fn},{precision},{recall}")
    _write_csv(args.out, lines)


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
    """Run one command; argv[1:] of a command goes straight to that command's parser.

    The top-level parser would only match each argument against its -h and
    then pass argv[1:] on to the same subparser, so the result, the messages
    and the exits are those of parser.parse_args(argv). Anything else (no
    command, an unknown one, an option first) takes parser.parse_args.

    A command returns nothing or raises: a _Failure exits with its status,
    a LogError with 2 and any other ValueError with 1, each after one
    `error:` line on stderr.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    commands = next(a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    try:
        command = commands.get(argv[0]) if argv else None
        if command is None:
            args = parser.parse_args(argv)
        else:
            args, rest = command.parse_known_args(argv[1:])
            if rest:
                parser.error("unrecognized arguments: %s" % " ".join(rest))
            args.command = argv[0]
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map them onto the config-error code
        return int(ExitStatus.CONFIG_ERROR) if exc.code else int(ExitStatus.OK)
    try:
        args.func(args)
        return int(ExitStatus.OK)
    except _Failure as exc:
        status, message = exc.status, str(exc)
    except LogError as exc:
        status, message = ExitStatus.IO_ERROR, str(exc)
    except ValueError as exc:  # ConfigError, InvalidSeedError and SimulationError among them
        status, message = ExitStatus.CONFIG_ERROR, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
