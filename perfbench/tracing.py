"""In-memory span tracing of silentcrash layers, installed from outside `src/`.

`from .x import f` binds `f` in the importing module at import time, so a
function is wrapped in every module that looks it up by name, not only in
the module that defines it. Each span records its name, start, end and the
span that caused it; spans stay in memory and are aggregated after a pass.
"""

from __future__ import annotations

import contextlib
import importlib
from collections import defaultdict
from time import perf_counter

from silentcrash.oracle import ScenarioType
from silentcrash.simulator import SimConfig


def _count_frames(counts, args, kwargs, trace) -> None:
    cfg = args[2] if len(args) > 2 else kwargs.get("cfg", SimConfig())
    counts["frames_returned"] += len(trace)
    counts["frames_computed"] += int(round(cfg.horizon / cfg.dt)) + 1


def _count_bytes(counts, args, kwargs, text) -> None:
    counts["trace_bytes"] += len(text)


def _count_campaign(counts, args, kwargs, result) -> None:
    counts["executions"] += len(result.records)
    counts["ics"] += sum(rec.verdict is ScenarioType.IC for rec in result.records)


# (span name, defining module, attribute, modules that call it by that name, counter hook)
SPANS = (
    ("simulator.simulate", "simulator", "simulate", ("fuzzer", "cli", "simulator"), _count_frames),
    ("simulator.trace_to_jsonl", "simulator", "trace_to_jsonl", ("cli",), _count_bytes),
    ("cli.read_record_at", "cli", "_read_record_at", ("cli",), None),
    ("cli.write_records", "cli", "_write_records", ("cli",), None),
    ("oracle.check_ic", "oracle", "check_ic", ("fuzzer", "cli", "oracle"), None),
    ("detector.ground_truth", "detector", "ground_truth", ("oracle", "cli"), None),
    ("detector.builtin_cd", "detector", "builtin_cd", ("oracle", "cli"), None),
    ("oracle.max_iou", "oracle", "max_iou", ("oracle",), None),
    ("geometry.iou", "geometry", "iou", ("oracle",), None),
    ("oracle.recall_sweep", "oracle", "recall_sweep", ("cli",), None),
    ("fuzzer.run_campaign", "fuzzer", "run_campaign", ("cli",), _count_campaign),
    ("report.bucket", "report", "bucket", ("report",), None),
    ("report.categorize", "report", "categorize", ("report",), None),
    ("report.success_rates", "report", "success_rates", ("report",), None),
    ("report.export", "report", "export", ("report",), None),
    ("scenario.validate_seed", "scenario", "validate_seed", ("fuzzer",), None),
    ("config.parse_config", "config", "parse_config", ("cli", "config"), None),
)


COUNTED = ("simulator.simulate", "oracle.max_iou", "geometry.iou", "scenario.validate_seed")
PER_LAYER_UNITS = {
    **{f"{span[0]}.self_s": "s" for span in SPANS},
    **{f"{name}.calls": "count" for name in COUNTED},
    "simulator.frame_yield": "ratio",
    "simulator.trace_to_jsonl.bytes": "B",
    "cli.log_bytes_read": "B",
    "fuzzer.executions": "count",
    "fuzzer.ic_yield": "ratio",
    "trace.pass_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
}


def _rchar() -> int:
    """Bytes this process has passed through read() calls so far (Linux)."""
    with open("/proc/self/io") as fh:
        for line in fh:
            if line.startswith("rchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no rchar line")


class Tracer:
    """Spans as [name, start, end, parent index] plus counters, per pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        first = _rchar()
        self._probe_bytes = _rchar() - first  # what one rchar probe itself reads

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        return traced

    def count_reads(self, fn):
        """Count the bytes read while `fn` runs; the probes sit outside its span."""

        def counted(*args, **kwargs):
            before = _rchar()
            try:
                return fn(*args, **kwargs)
            finally:
                self.counts["log_bytes_read"] += _rchar() - before - self._probe_bytes

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Wrap every SPANS function at each of its lookup sites; undo on exit."""
        saved = []
        try:
            for name, home, attr, sites, hook in SPANS:
                original = getattr(importlib.import_module(f"silentcrash.{home}"), attr)
                wrapper = self.wrap(name, original, hook)
                if name == "cli.read_record_at":
                    wrapper = self.count_reads(wrapper)
                for site in sites:
                    module = importlib.import_module(f"silentcrash.{site}")
                    if getattr(module, attr, None) is original:
                        saved.append((module, attr, original))
                        setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and call count per span name for the current pass.

        Self time is a span's duration minus the durations of the spans it
        caused, so the self times of all spans add up to the time covered
        by the outermost spans.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for (name, start, end, _), inner in zip(self.spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        return dict(self_s), dict(calls)

    def pass_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of the current pass, which took `wall_s`.

        `trace.overhead_s` needs untraced passes too; the caller adds it.
        """
        self_s, calls = self.layer_totals()
        counts = self.counts
        metrics = {f"{span[0]}.self_s": self_s.get(span[0], 0.0) for span in SPANS}
        metrics.update({f"{name}.calls": calls.get(name, 0) for name in COUNTED})
        replays = calls.get("cli.read_record_at", 0)
        computed, executions = counts["frames_computed"], counts["executions"]
        metrics.update(
            {
                "simulator.frame_yield": counts["frames_returned"] / computed if computed else 0.0,
                "simulator.trace_to_jsonl.bytes": counts["trace_bytes"],
                "cli.log_bytes_read": counts["log_bytes_read"] / replays if replays else 0.0,
                "fuzzer.executions": executions,
                "fuzzer.ic_yield": counts["ics"] / executions if executions else 0.0,
                "trace.pass_s": wall_s,
                "trace.untraced_s": wall_s - sum(self_s.values()),
            }
        )
        return metrics
