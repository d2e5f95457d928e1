"""Run the benchmark over several seeds and report how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Run from the root of a checkout. For every workload (default: all in
BENCHMARK.json) and seed it runs `run.py --trace 0` for `run_seconds` and
reports, per end-to-end metric, the median, the quartiles and the spread
(third minus first quartile, as a share of the median) next to the metric's
bound, and beside it the spread of the same timing before it was taken to
reference host speed. It also reports each pass's process CPU time against
its wall time, which shows whether slow passes did more work or waited on
the host, and how long each run took.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload]
    argv += ["--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = perf_counter()
    lines = subprocess.run(argv, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), perf_counter() - start


def summarize(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append")
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        raw: dict[str, list[float]] = {}
        cpu_share, walls, run_s, failed = [], [], [], 0
        for seed in args.seeds:
            details, result, took = run_once(workload, seed, bench["run_seconds"])
            failed += result["failed"]
            run_s.append(took)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name, value in details["raw"].items():
                raw.setdefault(name, []).append(value)
            cpu_share += [p["cpu_s"] / p["wall_s"] for p in details["passes"]]
            run_walls = [p["wall_s"] for p in details["passes"]]
            walls += run_walls
            print(
                f"{workload} seed {seed}: run {took:.1f} s, pass wall {min(run_walls):.3f}..{max(run_walls):.3f} s",
                file=sys.stderr,
            )
        metrics = {name: summarize(vals, bounds[name]) for name, vals in values.items()}
        raw_metrics = {name: summarize(vals, bounds[name]) for name, vals in raw.items()}
        report[workload] = {
            "seeds": args.seeds,
            "failed": failed,
            "machine": details["machine"],
            "metrics": metrics,
            "raw_metrics": raw_metrics,
            "run_s": run_s,
            "pass_wall_s": {"min": min(walls), "median": statistics.median(walls), "max": max(walls)},
            "pass_cpu_over_wall": {"min": min(cpu_share), "median": statistics.median(cpu_share), "max": max(cpu_share)},
        }
        for name, m in metrics.items():
            flag = "" if m["spread"] < m["bound"] / 3 else "  <-- above bound/3"
            unscaled = f" (unscaled {raw_metrics[name]['spread']:.4f})" if name in raw_metrics else ""
            print(
                f"{workload:20s} {name:12s} median {m['median']:.4g} spread {m['spread']:.4f}{unscaled}"
                f" bound {m['bound']}{flag}"
            )
        print(f"{workload:20s} run_s max {max(run_s):.1f} median {statistics.median(run_s):.1f}")
        for key in ("pass_wall_s", "pass_cpu_over_wall"):
            print(f"{workload:20s} {key} {report[workload][key]}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
