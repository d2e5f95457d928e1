"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Campaign-level criteria share session fixtures (see conftest) so the
reference campaign and its baselines run once.
"""

import contextlib
import hashlib
import io
import time

import numpy as np
import pytest
from scipy import stats as scipy_stats

from conftest import CONFIG_DIR
from mc_oracles import mc_intersection_area, random_box
from silentcrash.cli import main
from silentcrash.detector import DefectModel, builtin_cd, ground_truth
from silentcrash.fuzzer import step_size_sweep
from silentcrash.geometry import AREA_EPSILON, intersection_area, overlaps
from silentcrash.oracle import ScenarioType, check_ic, classify, recall_sweep
from silentcrash.report import AXES, CROSS_PAIRS, success_rates
from silentcrash.scenario import ControlParameters, ScenarioKind, make_seed
from silentcrash.simulator import simulate


# sha256 of the replay traces of every reference-log record, concatenated in
# ordinal order
REFERENCE_TRACES_DIGEST = "11439c50a6e69e850a01de68b4e33e3e5d9c66c426449c758132a2a911a079d6"


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def fuzzed_traces(count, seed=101):
    rng = np.random.default_rng(seed)
    kinds = list(ScenarioKind)
    specs = {kind: make_seed(kind)[0] for kind in kinds}
    for i in range(count):
        kind = kinds[i % len(kinds)]
        params = ControlParameters.from_angle(
            d=float(rng.uniform(2, 7)),
            v_hat=float(rng.uniform(0.5, 50)),
            a=float(rng.uniform(-1, 1)),
        )
        yield simulate(specs[kind], params)


def test_criterion_1_geometry_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    disagreements = 0
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        got = intersection_area(a, b)
        want = mc_intersection_area(a, b, 1_000_000, rng)
        worst = max(worst, abs(got - want) - max(0.01 * want, 1e-3))
        if overlaps(a, b) != (got > AREA_EPSILON):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.0 and disagreements == 0 and elapsed < 60.0
    report_line(
        1,
        ok,
        f"1000 box pairs vs 1e6-sample Monte-Carlo: worst excess {worst:.2e}, "
        f"{disagreements} overlap/area disagreements, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_oracle_truth_table():
    table_ok = (
        classify(True, False) is ScenarioType.IC
        and classify(False, False) is ScenarioType.NC
        and classify(True, True) is ScenarioType.DC
        and classify(False, True) is ScenarioType.FP
    )
    defect = DefectModel()
    mismatches = 0
    seen = set()
    for trace in fuzzed_traces(1000):
        verdict = check_ic(trace, defect)
        cond1 = ground_truth(trace) is not None
        cond2 = builtin_cd(trace, defect)
        if verdict is not classify(cond1, cond2) or verdict not in ScenarioType:
            mismatches += 1
        seen.add(verdict)
    ok = table_ok and mismatches == 0 and len(seen) >= 3
    report_line(
        2,
        ok,
        f"4-cell table exact, {mismatches} mismatches over 1000 fuzzed traces "
        f"(verdicts seen: {sorted(v.value for v in seen)})",
    )


def test_criterion_3_perfect_detector_collapse(perfect_result):
    totals = perfect_result.totals
    ok = totals[ScenarioType.IC] == 0 and totals[ScenarioType.FP] == 0 and len(perfect_result.records) > 0
    report_line(
        3,
        ok,
        f"perfect-detector guided campaign over all six kinds: "
        f"{len(perfect_result.records)} executions, IC={totals[ScenarioType.IC]}, FP={totals[ScenarioType.FP]}",
    )


def test_criterion_4_determinism_and_replay(tmp_path):
    config_path = str(CONFIG_DIR / "reference.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", config_path, "--out", str(out_a)]) == 0
    assert main(["run", "--config", config_path, "--out", str(out_b)]) == 0
    identical = (out_a / "records.jsonl").read_bytes() == (out_b / "records.jsonl").read_bytes() and (
        out_a / "manifest.json"
    ).read_bytes() == (out_b / "manifest.json").read_bytes()

    records = (out_a / "records.jsonl").read_text().splitlines()
    trace_out = tmp_path / "trace.jsonl"
    replay_failures = 0
    traces = hashlib.sha256()
    with contextlib.redirect_stdout(io.StringIO()):
        for ordinal in range(len(records)):
            code = main(
                ["replay", "--log", str(out_a / "records.jsonl"), "--ordinal", str(ordinal), "--out", str(trace_out)]
            )
            if code != 0:
                replay_failures += 1
            else:
                traces.update(trace_out.read_bytes())
    pinned = traces.hexdigest() == REFERENCE_TRACES_DIGEST
    ok = identical and replay_failures == 0 and pinned
    report_line(
        4,
        ok,
        f"two runs byte-identical: {identical}; cmd_replay reproduced "
        f"{len(records) - replay_failures}/{len(records)} logged verdicts; traces pinned: {pinned}",
    )


def test_criterion_5_defect_rediscovery(reference_config, reference_result):
    records = reference_result.records
    ics = [r for r in records if r.verdict is ScenarioType.IC]
    kinds_with_ics = {r.kind for r in ics}
    tunneling = [r for r in ics if r.buckets.speed in ("30-40", "40-50")]
    graze = [r for r in ics if abs(float(r.buckets.angle)) >= 0.75]
    ok = (
        reference_config.budget <= 20_000
        and len(records) <= reference_config.budget
        and len(kinds_with_ics) >= 4
        and len(tunneling) >= 1
        and len(graze) >= 1
        and reference_result.wall_seconds <= 600.0
    )
    report_line(
        5,
        ok,
        f"{len(records)} executions (budget {reference_config.budget}), "
        f"{len(ics)} ICSs across {len(kinds_with_ics)}/6 kinds, "
        f"tunneling-class {len(tunneling)}, graze-class {len(graze)}, "
        f"{reference_result.wall_seconds:.1f}s wall",
    )


def test_criterion_6_baseline_dominance(reference_result, random_result, nc_start_result):
    def metrics(result):
        summary = success_rates(result.records).summary
        return result.proportion, summary["mean_time_to_first_ics"]

    g_prop, g_time = metrics(reference_result)
    r_prop, r_time = metrics(random_result)
    n_prop, n_time = metrics(nc_start_result)
    ok = (
        g_prop >= 2.0 * r_prop
        and g_prop >= 2.0 * n_prop
        and g_time <= 0.5 * r_time
        and g_time <= 0.5 * n_time
    )
    report_line(
        6,
        ok,
        f"proportion guided {100 * g_prop:.2f}% vs random {100 * r_prop:.2f}% ({g_prop / r_prop:.1f}x) "
        f"and nc-start {100 * n_prop:.2f}% ({g_prop / n_prop:.1f}x); "
        f"mean time-to-first-ICS {g_time:.0f}s vs {r_time:.0f}s / {n_time:.0f}s",
    )


def test_criterion_7_trend_reproduction(tunneling_result, graze_result):
    speed_stats = success_rates(tunneling_result.records).axes["speed"]
    srs = [s.sr for s in speed_stats if s.sr is not None]
    rho = float(scipy_stats.spearmanr(range(len(srs)), srs).statistic)

    angle_stats = success_rates(graze_result.records).axes["angle"]
    outer_ic = outer_coll = inner_ic = inner_coll = 0
    for s in angle_stats:
        magnitude = abs(float(s.bucket))
        if magnitude >= 0.75:
            outer_ic, outer_coll = outer_ic + s.ics, outer_coll + s.collisions
        if magnitude <= 0.25:
            inner_ic, inner_coll = inner_ic + s.ics, inner_coll + s.collisions
    outer_sr = outer_ic / outer_coll
    inner_sr = inner_ic / inner_coll
    ok = len(srs) == 5 and rho > 0.0 and outer_sr > inner_sr
    report_line(
        7,
        ok,
        f"tunneling defect: SR over speed buckets {[f'{100 * v:.0f}%' for v in srs]}, spearman rho={rho:.2f}; "
        f"graze defect: SR |a|>=0.75 {100 * outer_sr:.1f}% vs |a|<=0.25 {100 * inner_sr:.1f}%",
    )


def test_criterion_8_step_size_sweep():
    steps = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08]
    points = step_size_sweep(ScenarioKind.FLB, "angle", steps, trials=40)
    means = [p.mean_ics for p in points]
    inversions = sum(1 for i in range(len(means) - 1) if means[i + 1] > means[i] + 1e-12)
    ok = inversions <= 1
    report_line(
        8,
        ok,
        f"FLB angle-axis mean ICS counts over steps {steps}: "
        f"{[round(m, 2) for m in means]}, {inversions} inversion(s)",
    )


@pytest.fixture(scope="module")
def labeled_reference_traces(reference_config, reference_result):
    specs = {kind: reference_config.seed_for(kind)[0] for kind in reference_config.kinds}
    labeled = []
    for rec in reference_result.records:
        trace = simulate(specs[rec.kind], rec.params, reference_config.sim)
        label = ground_truth(trace) is not None and not builtin_cd(trace, reference_config.defect)
        labeled.append((trace, label))
    return labeled


def test_criterion_9_threshold_sweep(reference_config, labeled_reference_traces):
    thresholds = [0.0, 0.05, 0.1, 0.15, 0.2]
    points = recall_sweep(labeled_reference_traces, thresholds, reference_config.defect)
    recalls = [p.recall for p in points]
    monotone = all(recalls[i] >= recalls[i + 1] for i in range(len(recalls) - 1))
    ok = recalls[0] == 1.0 and monotone
    report_line(
        9,
        ok,
        f"recall over thresholds {thresholds}: {[round(r, 3) for r in recalls]} "
        f"(recall(0)={recalls[0]}, monotone non-increasing: {monotone})",
    )


def test_criterion_10_report_conservation(reference_result):
    report = success_rates(reference_result.records)
    total = len(reference_result.records)
    axis_ok = all(sum(s.executions for s in report.axes[axis]) == total for axis in AXES)
    marginals_ok = True
    for pair in CROSS_PAIRS:
        for axis, position in zip(pair, range(2)):
            sums = {}
            for key, cell in report.cross[pair].items():
                sums[key[position]] = sums.get(key[position], 0) + cell.executions
            if sums != {s.bucket: s.executions for s in report.axes[axis]}:
                marginals_ok = False
    ok = axis_ok and marginals_ok
    report_line(
        10,
        ok,
        f"per-axis bucket counts sum to {total} executions: {axis_ok}; "
        f"cross-matrix marginals match single-axis counts: {marginals_ok}",
    )
