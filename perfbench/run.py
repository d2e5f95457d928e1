"""silentcrash benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload campaign-reference --seed 1 --seconds 20 --trace 0

Run from the root of a checkout (it imports `src/silentcrash` and reads
`configs/`). A run makes passes over the workload until they have taken the
`--seconds` it asks for, and at least 3. With `--trace 0`
the last line carries the end-to-end metrics, with no tracing spans
installed and every timing taken to reference host speed (hostspeed.py);
with `--trace 1` it carries per-layer metrics from traced passes, alternated
with untraced passes so that the tracing overhead can be reported. The line
before the last holds the details: every pass's wall, CPU and workload time,
the unscaled figures, the error rate, sample counts, the seed and the
machine. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time
from typing import TYPE_CHECKING

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from hostspeed import REFERENCE_S, HostClock  # noqa: E402  imports numpy, so after the thread pins

if TYPE_CHECKING:
    from workloads import PassResult

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 3
SETUP_LAUNCHES = 24

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "peak_rss_mb": "MB",
}


def machine_info() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(root: Path, load_code: str, launches: int) -> list[tuple[float, float]]:
    """(seconds, reference seconds) for each of `launches` fresh interpreters.

    Each imports silentcrash.cli and loads the config, timed, and then times
    the reference work, so that its set-up can be taken to reference host speed.
    """
    code = (
        "import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
        f"from silentcrash import cli; {load_code}; t = time.perf_counter() - t; "
        f"sys.path.insert(0, {str(BENCH_DIR)!r}); import hostspeed; print(t, hostspeed.reference_time(50))"
    )
    samples = []
    for _ in range(launches):
        done = subprocess.run([sys.executable, "-c", code], cwd=root, check=True, capture_output=True, text=True)
        seconds, reference = map(float, done.stdout.split())
        samples.append((seconds, reference))
    return samples


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(math.ceil(q * len(sorted_values)) - 1, 0)]


@dataclass
class Pass:
    """What a pass leaves once it is done: its times and its ops' latencies,
    as measured and at reference host speed. Only this much is kept, so that
    the harness adds little to the process's peak memory."""

    traced: bool
    wall_s: float  # the whole pass: output checks and reference work included
    cpu_s: float
    work_s: float  # workload time only (HostClock)
    normalised_s: float
    ops: int
    failed: int
    latencies_s: array
    normalised_latencies_s: array

    @classmethod
    def of(cls, traced: bool, wall_s: float, cpu_s: float, clock: HostClock, result: PassResult) -> Pass:
        # an op's latency is the sum of its timed calls, each scaled by the segment it ended in
        raw, scaled = array("d"), array("d")
        for op in result.ops:
            raw.append(sum(seconds for seconds, _ in op))
            scaled.append(sum(seconds * clock.scale(segment) for seconds, segment in op))
        return cls(traced, wall_s, cpu_s, clock.work_s, clock.normalised_s, len(result.ops), result.failed, raw, scaled)

    def summary(self) -> dict:
        return {
            "traced": self.traced,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "work_s": self.work_s,
            "normalised_s": self.normalised_s,
            "ops": self.ops,
            "failed": self.failed,
        }


def run_passes(workload, seconds: float, min_passes: int, tracer=None, between=None):
    """Run passes until they have taken `seconds` and there are at least
    `min_passes`; with a tracer, alternate untraced and traced passes, and
    run no reference work in either. `between` is called with the seconds
    the passes have taken after each untraced pass.

    Returns the passes, the per-layer metrics of each traced pass and the
    spans of the first traced pass."""
    passes, layers, first_spans = [], [], []
    elapsed = 0.0
    while len(passes) < min_passes or elapsed < seconds:
        gc.collect()  # every pass starts from the same collector state
        traced = tracer is not None and len(passes) % 2 == 1
        clock = HostClock(enabled=tracer is None)
        wall, cpu = perf_counter(), process_time()
        if traced:
            tracer.reset()
            with tracer.installed():
                result = workload.run_pass(clock)
        else:
            result = workload.run_pass(clock)
        clock.finish()
        passes.append(Pass.of(traced, perf_counter() - wall, process_time() - cpu, clock, result))
        elapsed += passes[-1].wall_s
        if traced:
            layers.append(tracer.pass_metrics(clock.work_s))
            first_spans = first_spans or tracer.spans
        elif between is not None:
            between(elapsed)
    return passes, layers, first_spans


def write_spans(path: Path, spans: list) -> None:
    path.parent.mkdir(exist_ok=True)
    with path.open("w") as fh:
        for index, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps({"id": index, "name": name, "start": start, "end": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [p for p in ("src/silentcrash/cli.py", "configs/reference.json") if not (root / p).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found; run from the root of a silentcrash checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from tracing import PER_LAYER_UNITS, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cls = WORKLOADS[args.workload]

    setup: list[tuple[float, float]] = []
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH_DIR) as work:

        def sample_setup(elapsed: float) -> None:
            # SETUP_LAUNCHES in all, spread over the run in step with the passes
            due = min(SETUP_LAUNCHES, math.ceil(SETUP_LAUNCHES * elapsed / args.seconds))
            setup.extend(measure_setup(root, cls.setup_code, due - len(setup)))

        if not args.trace:
            measure_setup(root, cls.setup_code, 1)  # only warms the bytecode cache
        workload = cls(root, Path(work), args.seed)
        passes, layers, spans = run_passes(
            workload,
            args.seconds,
            2 if args.trace else MIN_PASSES,
            Tracer() if args.trace else None,
            None if args.trace else sample_setup,
        )
    if args.trace:
        write_spans(BENCH_DIR / "out" / f"spans-{args.workload}.jsonl", spans)

    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)
    untraced = [p for p in passes if not p.traced]
    latencies = sorted(x for p in untraced for x in p.normalised_latencies_s)
    raw_latencies = sorted(x for p in untraced for x in p.latencies_s)
    if args.trace:
        # the traced pass of median time, so its self times and its
        # untraced remainder add up to its trace.pass_s
        metrics = dict(sorted(layers, key=lambda m: m["trace.pass_s"])[(len(layers) - 1) // 2])
        metrics["trace.overhead_s"] = statistics.median(p.work_s for p in passes if p.traced) - statistics.median(
            p.work_s for p in untraced
        )
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(seconds * REFERENCE_S / reference for seconds, reference in setup),
            "ops_per_s": statistics.median(p.ops / p.normalised_s for p in untraced),
            "op_p50_ms": 1e3 * percentile(latencies, 0.50),
            "op_p95_ms": 1e3 * percentile(latencies, 0.95),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS

    samples = len(latencies)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "error_rate": failed / attempted,
        "latency_samples": samples,
        "beyond_p95": samples - math.ceil(0.95 * samples),
        # the same figures before scaling to reference host speed
        "raw": {
            "setup_s": statistics.median(seconds for seconds, _ in setup) if setup else None,
            "ops_per_s": statistics.median(p.ops / p.work_s for p in untraced),
            "op_p50_ms": 1e3 * percentile(raw_latencies, 0.50),
            "op_p95_ms": 1e3 * percentile(raw_latencies, 0.95),
        },
        "setup_samples": [{"seconds": seconds, "reference_s": reference} for seconds, reference in setup],
        "passes": [p.summary() for p in passes],
    }
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
