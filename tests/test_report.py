import math
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from record_oracle import bucket_reference, categorize_reference
from silentcrash.fuzzer import CampaignConfig, OutcomeRecord, SearchPlan, run_campaign
from silentcrash.oracle import ScenarioType
from silentcrash.report import (
    ANGLE_CENTERS,
    ANGLE_CLASS_EPSILON,
    AXES,
    CROSS_PAIRS,
    DISTANCE_EDGES,
    SPEED_EDGES,
    bucket,
    categorize,
    cross_csv,
    empty_report,
    report_csv,
    report_svg,
    success_rates,
)
from silentcrash.scenario import ControlParameters, ScenarioKind


def params(d=3.0, v=10.0, a=0.0):
    return ControlParameters.from_angle(d=d, v_hat=v, a=a)


def record(ordinal, verdict, d=3.0, v=10.0, a=0.0, kind=ScenarioKind.FLV, clock=None):
    return OutcomeRecord(
        kind=kind,
        params=params(d, v, a),
        verdict=verdict,
        first_contact_time=None,
        ordinal=ordinal,
        sim_seconds=1.0,
        clock_seconds=float(ordinal + 1) if clock is None else clock,
    )


class TestBucketing:
    def test_speed_seventeen(self):
        assert bucket(params(v=17.0)).speed == "10-20"

    def test_distance_boundary_goes_low(self):
        assert bucket(params(d=3.0)).distance == "2-3"
        assert bucket(params(d=5.0)).distance == "4-5"
        assert bucket(params(d=3.5)).distance == "4-5"

    def test_speed_boundary_goes_low(self):
        assert bucket(params(v=10.0)).speed == "0-10"
        assert bucket(params(v=50.0)).speed == "40-50"

    def test_angle_nearest_center(self):
        assert bucket(params(a=0.6)).angle == "0.5"
        assert bucket(params(a=-0.9)).angle == "-1"
        assert bucket(params(a=0.0)).angle == "0"

    def test_angle_tie_goes_to_lower_center(self):
        assert bucket(params(a=0.625)).angle == "0.5"


class TestCategories:
    def test_far_middle_positive(self):
        cat = categorize(params(d=6.0, v=25.0, a=0.8))
        assert (cat.distance, cat.speed, cat.angle) == ("F", "M", "P")

    def test_angle_epsilon_band_is_zero_class(self):
        assert categorize(params(a=0.04)).angle == "0"
        assert categorize(params(a=-0.06)).angle == "N"
        assert categorize(params(a=0.06)).angle == "P"


def _with_neighbours(values):
    return sorted({w for v in values for w in (math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf))})


# every edge and center, the angle midpoints (where a tie goes to the lower
# center) and the category thresholds, each with its float neighbours
EDGE_VALUES = _with_neighbours(
    [x for edges in (DISTANCE_EDGES, SPEED_EDGES) for edge in edges for x in edge]
    + [20.0, 40.0]
    + list(ANGLE_CENTERS)
    + [(lo + hi) / 2 for lo, hi in zip(ANGLE_CENTERS, ANGLE_CENTERS[1:])]
    + [-ANGLE_CLASS_EPSILON, ANGLE_CLASS_EPSILON, 0.0, -1.0 - 1e-9, 1.0 + 1e-9]
)
LABEL_VALUES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-60.0, 60.0), st.floats(allow_nan=False))
# normalized angles lie within 1e-9 of [-1, 1]; a wider span checks the bracketing
ANGLES = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1.0 - 1e-9, 1.0 + 1e-9), st.floats(-4.0, 4.0))


def assert_labels_match_reference(p):
    assert bucket(p) == bucket_reference(p)
    assert categorize(p) == categorize_reference(p)
    assert categorize(p, p.a) == categorize_reference(p)


class TestLabelsAgainstReference:
    def test_every_edge_and_midpoint_with_its_neighbours(self):
        # each label depends on one field only, so one value can stand in all three
        for x in EDGE_VALUES:
            assert_labels_match_reference(SimpleNamespace(d=x, v_hat=x, a=x))

    @settings(max_examples=500, deadline=None)
    @given(d=LABEL_VALUES, v=LABEL_VALUES, a=ANGLES)
    def test_random_values(self, d, v, a):
        assert_labels_match_reference(SimpleNamespace(d=d, v_hat=v, a=a))

    def test_an_angle_midpoint_goes_to_the_lower_center(self):
        for lo, hi in zip(ANGLE_CENTERS, ANGLE_CENTERS[1:]):
            mid = (lo + hi) / 2
            assert bucket(SimpleNamespace(d=3.0, v_hat=10.0, a=mid)).angle == f"{lo:g}"
            assert bucket(SimpleNamespace(d=3.0, v_hat=10.0, a=math.nextafter(mid, 2.0))).angle == f"{hi:g}"

    def test_equal_labels_are_one_instance(self):
        first, second = params(d=2.5, v=15.0, a=0.3), params(d=2.9, v=12.0, a=0.2)
        assert bucket(first) is bucket(second)
        assert categorize(first) is categorize(second)
        assert categorize(first) is not categorize(params(d=6.0, v=15.0, a=0.3))


class TestSuccessRates:
    def test_sr_arithmetic(self):
        records = [record(i, ScenarioType.IC) for i in range(3)]
        records += [record(3 + i, ScenarioType.DC) for i in range(9)]
        report = success_rates(records)
        stats = report.axes["distance"][0]
        assert stats.executions == 12
        assert stats.collisions == 12
        assert stats.ics == 3
        assert stats.sr == pytest.approx(0.25)

    def test_all_nc_has_no_defined_sr(self):
        records = [record(i, ScenarioType.NC, d=2.0 + i % 5) for i in range(20)]
        report = success_rates(records)
        for axis in AXES:
            assert all(stats.sr is None for stats in report.axes[axis])

    def test_rejects_empty_records(self):
        with pytest.raises(ValueError):
            success_rates([])


@pytest.fixture(scope="module")
def campaign_records():
    kind = ScenarioKind.FLB
    plan = SearchPlan(
        distance_schedule=(4.0, 6.0),
        speed_schedule=(10.0, 30.0, 50.0),
        angle_step_long=0.04,
        angle_step_lat=0.03,
    )
    config = CampaignConfig(kinds=(kind,), budget=2000, plans={kind: plan})
    return run_campaign(config).records


class TestOnCampaign:
    def test_conservation_per_axis(self, campaign_records):
        report = success_rates(campaign_records)
        for axis in AXES:
            assert sum(s.executions for s in report.axes[axis]) == len(campaign_records)

    def test_cross_matrix_marginals(self, campaign_records):
        report = success_rates(campaign_records)
        for pair in CROSS_PAIRS:
            cells = report.cross[pair]
            for axis, position in zip(pair, range(2)):
                sums = {}
                for key, stats in cells.items():
                    sums[key[position]] = sums.get(key[position], 0) + stats.executions
                expected = {s.bucket: s.executions for s in report.axes[axis]}
                assert sums == expected

    def test_bucket_labels_recomputable(self, campaign_records):
        for rec in campaign_records:
            assert bucket(rec.params) == rec.buckets
            assert categorize(rec.params) == rec.category

    def test_csv_row_count_matches_defined_buckets(self, campaign_records):
        report = success_rates(campaign_records)
        lines = report_csv(report).splitlines()
        defined = sum(len(report.axes[axis]) for axis in AXES)
        assert len(lines) == defined + 1

    def test_exports_are_deterministic(self, campaign_records):
        report = success_rates(campaign_records)
        assert report_csv(report) == report_csv(report)
        assert cross_csv(report) == cross_csv(report)
        assert report_svg(report) == report_svg(report)

    def test_svg_is_well_formed(self, campaign_records):
        svg = report_svg(success_rates(campaign_records))
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert len(list(root)) > 0


def test_empty_report_exports_header_only():
    report = empty_report()
    lines = report_csv(report).splitlines()
    assert lines == ["axis,bucket,executions,collisions,ics,sr_percent"]
    assert report.summary["executions"] == 0


def test_summary_counts_and_proportion(campaign_records):
    summary = success_rates(campaign_records).summary
    totals = summary["totals"]
    assert sum(totals.values()) == summary["executions"] == len(campaign_records)
    assert summary["proportion"] == pytest.approx(totals["IC"] / len(campaign_records))
    assert "FLB" in summary["time_to_first_ics"]
