import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import struct
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from record_oracle import record_line
from silentcrash import cli, report
from silentcrash.cli import main
from silentcrash.config import parse_config
from silentcrash.fuzzer import AngleMode, OutcomeRecord, run_campaign
from silentcrash.oracle import ScenarioType
from silentcrash.report import bucket
from silentcrash.scenario import ControlParameters, ScenarioKind

# sha256 of (records.jsonl, manifest.json) for each shipped config; these
# bytes change only with a deliberate, documented change of the campaign
SHIPPED_DIGESTS = {
    "reference": (
        "d6b1e78f5353ccd5a6d090e2760f0c4771bb3aa68369f05a5fd0963a35c08f75",
        "c9906cc7bc8e3026431dbfb7dd0c2c3e64fbff2b80946aa3a8d0455baa304260",
    ),
    "tunneling": (
        "9bde12f4f14b3a8ec9e2005735baa6cc47e6eab6e91bc23818b27761f65245aa",
        "2f43bd688439a964ff9c5a7e336450ef226f0985bde1ac501549651b7a5b7673",
    ),
    "graze": (
        "c12241bc6e60654f09ef9efdeba5aac513518fbe8dd796deb266f69ecb794114",
        "97821175ef688cf79ae6426a710725e3b9021dcc423bce3ba62f2b79d3e67d4f",
    ),
}

# sha256 of (records.jsonl.idx, report.csv, report_cross.csv) for each
# shipped config, taken beside SHIPPED_DIGESTS: the other files `run` writes
SHIPPED_RUN_DIGESTS = {
    "reference": (
        "19619807f8bf9ab25690548f0d5ee6ab54c44b611176990d0bdea922df920586",
        "8ce570cc44c96e8bf0670c487701de512d531d4f9ab619b1c6604e7e0ff475a4",
        "faf5e114b69e5ec3e538f1c55eba940ef0298977e9daab114cb92a6b4af19a2b",
    ),
    "tunneling": (
        "f229da71bf1a7e28cd4a9738cb1093d6a9259443a6a78e7250ef23e021de364c",
        "a6b27c594b86e7ed8b45e7cf094e5054b0b4c8b42ed09bb41c856fdd76763bf3",
        "14a4af9345c3e44348808e6aa57ec06d3b1bf6fea7bc0088a937c170ed579c15",
    ),
    "graze": (
        "19619807f8bf9ab25690548f0d5ee6ab54c44b611176990d0bdea922df920586",
        "11d98fa4d0f0568fd8cb14731d8c5440fb1b9e91c78a9031ea699cc37a3fe63f",
        "a389157eafe8000fc08bda26725259eff96a38e917bc51431600fbaf2278efcf",
    ),
}

# sha256 of `sweep-threshold --thresholds 0,0.05,0.1,0.15,0.2` with the
# default config
SWEEP_CSV_DIGEST = "48efd22cfa844f7cc711c0cf505c17c1bf3c2476ce073c948da43a1f528107d2"

# sha256 of the `replay` trace JSONL of reference-log ordinals: IC (FLB),
# DC (LC), NC (InC), IC (PSF) and the last record, NC (PCF)
REFERENCE_TRACE_DIGESTS = {
    13: "fd5b6ba4e83af0c2353ddb9dd8bb7389e688bc34cd177edddacdfea7a726374c",
    1298: "62b8d3c2e8402ba6a0406e946cd7dd6cfe903593758f99ef9f3d576e70741a1c",
    2774: "aad33b5f480eeaffdca5ca87267f1d9ad5dbe838d4e2209a27e3d0feca1d05ce",
    3323: "3b8d6f303712a7420e99e27ba5a8a3a93c2a425f8ebcde90275b2bb70eb5148a",
    5229: "03d4becfafd0ed29da5ead8f10beca77610397469ae752762e0455391b9de625",
}

# (sha256 of records.jsonl, record count) of reference-config variants that
# the shipped configs do not run
VARIANT_DIGESTS = {
    "nc_start": ("9062f21471b0bf8ac8c1a47eacc7d490ec812991bfc1f3d1ce5f91abeb111ede", 10529),
    "random": ("017ba15598f831cd432fba686fade0f725bbd4e98262767a3099ec0136b89343", 20000),
    "per-axis": ("e343d299eb91b0167ed194f51bd387d0bc938f375aba55129b7cc94b1e80b53a", 7146),
}

MINI_CONFIG = {
    "kinds": ["FLB"],
    "mutator": "guided",
    "budget": 50,
    "rng_seed": 5,
    "plans": {
        "FLB": {
            "distance_schedule": [4, 5, 6, 7],
            "speed_start": 10.0,
            "speed_step": 10.0,
            "angle_step_long": 0.04,
            "angle_step_lat": 0.03,
        }
    },
}


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=1))
    return path


def unwritable(tmp_path, how):
    """An --out path in a directory that does not exist, or one that is a directory."""
    return tmp_path / "missing" / "out.csv" if how == "missing-dir" else tmp_path


def assert_one_error_line(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert all(fragment in err for fragment in fragments), err


def run_mini(tmp_path, budget=50, out="out"):
    config = dict(MINI_CONFIG, budget=budget)
    path = write_config(tmp_path, config)
    out_dir = tmp_path / out
    code = main(["run", "--config", str(path), "--out", str(out_dir)])
    return code, out_dir


class TestRun:
    def test_budget_is_respected_exactly(self, tmp_path, capsys):
        code, out_dir = run_mini(tmp_path)
        assert code == 0
        lines = (out_dir / "records.jsonl").read_text().splitlines()
        assert len(lines) == 50
        assert "FLB:" in capsys.readouterr().out

    def test_each_record_is_bucketed_once_for_the_log_and_the_report(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(report, "bucket", lambda params: calls.append(params) or bucket(params))
        code, out_dir = run_mini(tmp_path)
        assert code == 0 and len(calls) == 50
        records = [json.loads(line) for line in (out_dir / "records.jsonl").read_text().splitlines()]
        assert [r["buckets"] for r in records] == [vars(bucket(p)) for p in calls]

    def test_outputs_include_manifest_and_report(self, tmp_path):
        _, out_dir = run_mini(tmp_path)
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["executions"] == 50
        assert manifest["budget"] == 50
        assert set(manifest["totals"]) == {"IC", "DC", "NC", "FP"}
        assert (out_dir / "report.csv").read_text().startswith("axis,bucket,")
        assert (out_dir / "report_cross.csv").exists()

    def test_out_of_range_distance_names_the_range(self, tmp_path, capsys):
        bad = dict(MINI_CONFIG)
        bad["plans"] = {"FLB": {"distance_schedule": [2, 9]}}
        path = write_config(tmp_path, bad)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "2..7" in capsys.readouterr().err

    def test_unknown_config_key_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINI_CONFIG, weather="rain"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "weather" in capsys.readouterr().err

    def test_nan_min_penetration_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINI_CONFIG, defect={"min_penetration": float("nan")}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "finite" in capsys.readouterr().err

    def test_infinite_horizon_is_a_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(MINI_CONFIG, sim={"horizon": float("inf")}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["x", 1.5, True, -1])
    def test_rng_seed_must_be_an_integer(self, tmp_path, capsys, seed):
        path = write_config(tmp_path, dict(MINI_CONFIG, rng_seed=seed))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "rng_seed" in capsys.readouterr().err

    def test_fractional_k_nc_is_a_config_error(self, tmp_path, capsys):
        bad = dict(MINI_CONFIG, plans={"FLB": dict(MINI_CONFIG["plans"]["FLB"], k_nc=2.7)})
        path = write_config(tmp_path, bad)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "plans.FLB.k_nc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "block, value",
        [("defect", {"sample_period": 2.5}), ("defect", {"sample_period": "3"}), ("sim", {"settle_frames": 2.5})],
        ids=["fractional-sample-period", "string-sample-period", "fractional-settle-frames"],
    )
    def test_non_integer_frame_counts_are_config_errors(self, tmp_path, capsys, block, value):
        path = write_config(tmp_path, dict(MINI_CONFIG, **{block: value}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, f"{block}.{next(iter(value))}: must be an integer")

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"kinds": ["FLB\xff"], "budget": 3}'], ids=["utf16-bom", "bad-utf8"])
    def test_config_bytes_that_are_not_text_are_a_config_error(self, tmp_path, capsys, raw):
        path = tmp_path / "config.json"
        path.write_bytes(raw)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, str(path), "not UTF-8/16/32 text")

    @pytest.mark.parametrize("how", ["file", "under-a-file"])
    def test_out_that_cannot_be_a_directory_is_io_error_before_the_campaign(self, tmp_path, capsys, monkeypatch, how):
        taken = tmp_path / "taken"
        taken.write_text("keep\n")
        out = taken if how == "file" else taken / "out"
        monkeypatch.setattr("silentcrash.cli.run_campaign", lambda config: pytest.fail("the campaign ran"))
        path = write_config(tmp_path, dict(MINI_CONFIG, budget=3))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert_one_error_line(capsys, f"cannot create output directory {out}")
        assert taken.read_text() == "keep\n"

    @pytest.mark.parametrize(
        "change, fragment",
        [
            ({"plans": {"FLV": [1]}}, "plans.FLV"),
            ({"scenario_overrides": {"FLV": {"npc": [1]}}}, "scenario_overrides.FLV"),
            ({"scenario_overrides": {"FLV": {"npc": {"speed": float("nan")}}}}, "scenario_overrides.FLV"),
            ({"scenario_overrides": {"FLB": {"npc": {"speed": 1e308}}}}, "non-finite"),
            ({"defect": {"min_penetration": 10**400}}, "defect.min_penetration"),
            ({"sim": {"dt": 10**400}}, "sim.dt"),
            ({"scenario_overrides": {"FLV": {"npc": {"yaw": 1e300}}}}, "scenario_overrides.FLV: npc override 'yaw'"),
        ],
        ids=[
            "plan-block-list",
            "actor-override-list",
            "nan-npc-speed",
            "overflowing-npc-speed",
            "huge-integer-penetration",
            "huge-integer-dt",
            "npc-yaw-out-of-range",
        ],
    )
    def test_malformed_config_shapes_are_config_errors(self, tmp_path, capsys, change, fragment):
        path = write_config(tmp_path, dict(MINI_CONFIG, **change))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert_one_error_line(capsys, fragment)

    @pytest.mark.parametrize("command", ["run", "sweep-threshold"])
    @pytest.mark.parametrize("sim", [{"horizon": 1e12}, {"dt": 1e-300}], ids=["huge-horizon", "tiny-dt"])
    def test_a_frame_count_above_the_cap_is_a_config_error(self, tmp_path, capsys, command, sim):
        config = dict(json.loads((CONFIG_DIR / "reference.json").read_text()), budget=60, sim=sim)
        path = write_config(tmp_path, config)
        out = ["--out", str(tmp_path / "o")] if command == "run" else ["--thresholds", "0.1", "--out", str(tmp_path / "o.csv")]
        assert main([command, "--config", str(path), *out]) == 1
        assert_one_error_line(capsys, "sim.horizon / sim.dt", "more than 100000 steps")
        assert not (tmp_path / "o").exists() and not (tmp_path / "o.csv").exists()

    def test_failed_campaign_removes_only_the_out_directory_it_created(self, tmp_path, capsys):
        config = {"kinds": ["FLB"], "budget": 10, "scenario_overrides": {"FLB": {"npc": {"y": 30.0}}}}
        path = write_config(tmp_path, config)
        existing = tmp_path / "existing"
        existing.mkdir()
        for out in (tmp_path / "new" / "out", existing):
            assert main(["run", "--config", str(path), "--out", str(out)]) == 1
            assert_one_error_line(capsys, "determined collision")
        assert not (tmp_path / "new").exists()
        assert existing.is_dir()

    def test_unwritable_output_file_is_io_error(self, tmp_path, capsys):
        (tmp_path / "out" / "records.jsonl").mkdir(parents=True)
        code, _ = run_mini(tmp_path, budget=3)
        assert code == 2
        assert_one_error_line(capsys, "cannot write", "records.jsonl")

    def test_rerun_is_byte_identical(self, tmp_path):
        _, first = run_mini(tmp_path, out="a")
        _, second = run_mini(tmp_path, out="b")
        assert (first / "records.jsonl").read_bytes() == (second / "records.jsonl").read_bytes()
        assert (first / "manifest.json").read_bytes() == (second / "manifest.json").read_bytes()
        assert (first / "report.csv").read_bytes() == (second / "report.csv").read_bytes()

    def test_config_digest_tracks_file_bytes(self, tmp_path):
        path_a = write_config(tmp_path, MINI_CONFIG, "a.json")
        path_b = tmp_path / "b.json"
        path_b.write_text(path_a.read_text() + "\n")
        main(["run", "--config", str(path_a), "--out", str(tmp_path / "da")])
        main(["run", "--config", str(path_b), "--out", str(tmp_path / "db")])
        da = json.loads((tmp_path / "da" / "manifest.json").read_text())
        db = json.loads((tmp_path / "db" / "manifest.json").read_text())
        assert da["config_digest"] != db["config_digest"]
        assert da["totals"] == db["totals"]


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_config_outputs_are_pinned(name, tmp_path):
    assert main(["run", "--config", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path)]) == 0
    files = ("records.jsonl", "manifest.json", "records.jsonl.idx", "report.csv", "report_cross.csv")
    for file, digest in zip(files, SHIPPED_DIGESTS[name] + SHIPPED_RUN_DIGESTS[name], strict=True):
        assert hashlib.sha256((tmp_path / file).read_bytes()).hexdigest() == digest, file


@pytest.mark.parametrize("variant", sorted(VARIANT_DIGESTS))
def test_reference_variant_records_are_pinned(variant, request, reference_config, tmp_path):
    if variant == "per-axis":
        plans = {k: dataclasses.replace(p, angle_mode=AngleMode.PER_AXIS) for k, p in reference_config.plans.items()}
        records = run_campaign(dataclasses.replace(reference_config, plans=plans)).records
    else:
        records = request.getfixturevalue(f"{variant}_result").records
    cli._write_records(records, tmp_path / "records.jsonl")
    digest = hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest()
    assert (digest, len(records)) == VARIANT_DIGESTS[variant]


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    assert main(["run", "--config", str(CONFIG_DIR / "reference.json"), "--out", str(out)]) == 0
    return out


def copy_log(campaign, dest, text):
    """A log with the given text beside a copy of the campaign's manifest."""
    dest.mkdir()
    shutil.copy(campaign / "manifest.json", dest)
    (dest / "records.jsonl").write_text(text)
    return dest / "records.jsonl"


@pytest.mark.parametrize("ordinal", sorted(REFERENCE_TRACE_DIGESTS))
def test_reference_replay_traces_are_pinned(reference_run, tmp_path, capsys, ordinal):
    out = tmp_path / "trace.jsonl"
    log = reference_run / "records.jsonl"
    assert main(["replay", "--log", str(log), "--ordinal", str(ordinal), "--out", str(out)]) == 0
    assert f"ordinal={ordinal} " in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_TRACE_DIGESTS[ordinal]


@pytest.mark.parametrize("ordinal", [-1, 5230, 10**20])
def test_reference_ordinal_outside_log_names_the_range(reference_run, capsys, ordinal):
    assert main(["replay", "--log", str(reference_run / "records.jsonl"), "--ordinal", str(ordinal)]) == 2
    assert capsys.readouterr().err == f"error: ordinal {ordinal} outside log (0..5229)\n"


@pytest.fixture(scope="module")
def tunneling_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tunneling")
    assert main(["run", "--config", str(CONFIG_DIR / "tunneling.json"), "--out", str(out)]) == 0
    return out


def test_replays_of_two_campaigns_in_turn_each_use_their_own_manifest(reference_run, tunneling_run, tmp_path, capsys):
    # the parsed manifest config is kept per process, keyed by the manifest's
    # bytes: replays that alternate between two campaigns must each use their own
    logs = {run: [json.loads(line) for line in (run / "records.jsonl").read_text().splitlines()]
            for run in (reference_run, tunneling_run)}
    ics = [r["ordinal"] for r in logs[tunneling_run] if r["verdict"] == "IC"]
    tunneling_ordinals = [ics[0], ics[len(ics) // 2], ics[-1], 13, 1298]
    out = tmp_path / "trace.jsonl"

    def replay(run, ordinal, *extra):
        argv = ["replay", "--log", str(run / "records.jsonl"), "--ordinal", str(ordinal), "--out", str(out)]
        code = main([*argv, *extra])
        return code, capsys.readouterr().out

    reference_defect = ["--sample-period", "5", "--min-penetration", "0.05", "--min-impact-speed", "0.5"]
    differs = 0
    for ordinal, other in zip(sorted(REFERENCE_TRACE_DIGESTS), tunneling_ordinals):
        code, printed = replay(reference_run, ordinal)
        assert code == 0 and f"verdict={logs[reference_run][ordinal]['verdict']} " in printed
        assert hashlib.sha256(out.read_bytes()).hexdigest() == REFERENCE_TRACE_DIGESTS[ordinal]
        code, printed = replay(tunneling_run, other)
        assert code == 0 and f"verdict={logs[tunneling_run][other]['verdict']} " in printed
        # the same record judged by the reference campaign's detector
        _, judged = replay(tunneling_run, other, *reference_defect)
        differs += judged.split()[2] != printed.split()[2]
    # so a replay given the other campaign's config would have failed
    assert differs > 0


def test_records_merged_onto_one_line_do_not_replay_under_another_ordinal(reference_run, tmp_path, capsys):
    # the newline after record 3 turned into a space: line 4 holds records 3
    # and 4, and from line 5 on each line holds the record one past its place
    text = (reference_run / "records.jsonl").read_text()
    cut = sum(len(line) + 1 for line in text.splitlines()[:4]) - 1
    log = copy_log(reference_run, tmp_path / "merged", text[:cut] + " " + text[cut + 1 :])
    assert not (log.parent / "records.jsonl.idx").exists()
    argv = ["replay", "--log", str(log), "--out", str(tmp_path / "t.jsonl"), "--ordinal"]
    assert main([*argv, "10"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {log} line 11: record carries ordinal 11, not 10\n"
    assert main([*argv, "3"]) == 2
    assert_one_error_line(capsys, f"error: {log} line 4: invalid JSON")
    assert main([*argv, "2"]) == 0
    assert capsys.readouterr().out.startswith("ordinal=2 ")


class TestReplay:
    @pytest.fixture()
    def campaign(self, tmp_path):
        code, out_dir = run_mini(tmp_path, budget=300)
        assert code == 0
        return out_dir

    def test_replay_reproduces_logged_verdict(self, campaign, capsys):
        records = [json.loads(l) for l in (campaign / "records.jsonl").read_text().splitlines()]
        ics = [r for r in records if r["verdict"] == "IC"]
        assert ics, "campaign should contain at least one ignored collision"
        code = main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", str(ics[0]["ordinal"])])
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=IC" in out
        assert (campaign / f"trace_{ics[0]['ordinal']}.jsonl").exists()

    def test_replay_with_perfect_detector_never_reports_ic(self, campaign, capsys):
        records = [json.loads(l) for l in (campaign / "records.jsonl").read_text().splitlines()]
        ics = [r for r in records if r["verdict"] == "IC"]
        code = main(
            [
                "replay",
                "--log",
                str(campaign / "records.jsonl"),
                "--ordinal",
                str(ics[0]["ordinal"]),
                "--sample-period",
                "1",
                "--min-penetration",
                "0",
                "--min-impact-speed",
                "0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "verdict=DC" in out or "verdict=NC" in out

    @pytest.mark.parametrize(
        "overrides, gate",
        [
            (["--sample-period", "100000"], "sampling"),
            (["--sample-period", "1", "--min-penetration", "100", "--min-impact-speed", "0"], "penetration"),
            (["--sample-period", "1", "--min-penetration", "0", "--min-impact-speed", "1000"], "closing_speed"),
        ],
        ids=["sampling", "penetration", "closing_speed"],
    )
    def test_ignored_collision_names_the_gate_that_silenced_it(self, campaign, tmp_path, capsys, overrides, gate):
        records = [json.loads(l) for l in (campaign / "records.jsonl").read_text().splitlines()]
        detected = next(r for r in records if r["verdict"] == "DC" and r["first_contact_time"] > 0.0)
        out = tmp_path / "trace.jsonl"
        argv = ["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", str(detected["ordinal"])]
        assert main([*argv, "--out", str(out), *overrides]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "verdict=IC " in lines[0] and lines[1:] == [f"silenced_by={gate}"]
        assert "silenced_by" not in out.read_text()
        assert main([*argv, "--out", str(out)]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_logged_ignored_collisions_name_the_gate_their_trace_shows(self, campaign, tmp_path, capsys):
        # the gate recomputed from the replayed trace's own frames under the
        # default defect model: every 5th frame, depth 0.05, closing speed 0.5
        records = [json.loads(l) for l in (campaign / "records.jsonl").read_text().splitlines()]
        ics = [r for r in records if r["verdict"] == "IC"][:20]
        gates = set()
        for record in ics:
            out = tmp_path / "trace.jsonl"
            argv = ["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", str(record["ordinal"])]
            assert main([*argv, "--out", str(out)]) == 0
            frames = [json.loads(l) for l in out.read_text().splitlines()][::5]
            touching = [f for f in frames if f["gt_overlap"]]
            deep = [f for f in touching if f["penetration"] >= 0.05]
            assert not any(f["closing_speed"] >= 0.5 for f in deep)
            gate = "closing_speed" if deep else "penetration" if touching else "sampling"
            assert capsys.readouterr().out.splitlines()[1:] == [f"silenced_by={gate}"]
            gates.add(gate)
        assert len(gates) > 1

    @pytest.mark.parametrize("flag, value", [("--min-penetration", "nan"), ("--min-impact-speed", "-1")])
    def test_invalid_defect_override_is_config_error(self, campaign, capsys, flag, value):
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0", flag, value]) == 1
        assert "defect override invalid" in capsys.readouterr().err

    def test_options_of_one_call_do_not_reach_the_next(self, campaign, capsys, monkeypatch):
        seen = []
        override = cli._defect_override

        def spy(args, defect):
            seen.append(args.min_penetration)
            return override(args, defect)

        monkeypatch.setattr(cli, "_defect_override", spy)
        argv = ["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0"]
        assert main([*argv, "--min-penetration", "100"]) == 0
        assert main(argv) == 0
        assert seen == [100.0, None]
        assert cli.build_parser() is cli.build_parser()

    def test_ordinal_out_of_range_is_io_error(self, campaign):
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "99999"]) == 2

    def test_missing_log_is_io_error(self, tmp_path):
        assert main(["replay", "--log", str(tmp_path / "none.jsonl"), "--ordinal", "0"]) == 2

    def test_blank_lines_do_not_count_as_ordinals(self, campaign, tmp_path, capsys):
        lines = (campaign / "records.jsonl").read_text().splitlines()
        spaced = copy_log(campaign, tmp_path / "spaced", "\n" + "".join(f"{line}\n \n\t\r\n" for line in lines))
        for ordinal in (0, 7, len(lines) - 1):
            plain_out, spaced_out = tmp_path / "plain.jsonl", tmp_path / "spaced.jsonl"
            assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", str(ordinal), "--out", str(plain_out)]) == 0
            assert main(["replay", "--log", str(spaced), "--ordinal", str(ordinal), "--out", str(spaced_out)]) == 0
            assert plain_out.read_bytes() == spaced_out.read_bytes()
        capsys.readouterr()
        assert main(["replay", "--log", str(spaced), "--ordinal", str(len(lines))]) == 2
        assert f"outside log (0..{len(lines) - 1})" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, message",
        [
            (lambda line: line[: len(line) // 2], "invalid JSON"),
            (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "v_hat"}), "KeyError"),
            (lambda line: line.replace('"verdict": "', '"verdict": "X'), "ValueError"),
            (lambda line: "[1, 2]", "TypeError"),
            (lambda line: json.dumps(dict(json.loads(line), theta_long=math.nan)), "ValueError: direction pair must be finite"),
        ],
        ids=["truncated", "missing-field", "bad-verdict", "not-an-object", "nan-direction"],
    )
    def test_damaged_record_is_io_error_naming_the_line(self, campaign, tmp_path, capsys, damage, message):
        lines = (campaign / "records.jsonl").read_text().splitlines()
        cut = 120
        log = copy_log(campaign, tmp_path / "damaged", "\n".join(lines[:cut] + [damage(lines[cut])]))
        assert main(["replay", "--log", str(log), "--ordinal", str(cut - 1), "--out", str(tmp_path / "t.jsonl")]) == 0
        capsys.readouterr()
        assert main(["replay", "--log", str(log), "--ordinal", str(cut)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {log} line {cut + 1}: ") and message in err and err.count("\n") == 1
        assert main(["report", "--log", str(log), "--format", "csv", "--out", str(tmp_path / "r")]) == 2
        assert f"line {cut + 1}: " in capsys.readouterr().err

    def test_damaged_record_after_blank_lines_names_its_physical_line(self, campaign, tmp_path, capsys):
        # the lookup skips blank lines without numbering them; only a damaged
        # record's error message counts the physical lines up to it
        lines = (campaign / "records.jsonl").read_text().splitlines()
        physical = ["", " ", "\t\r", lines[0], "", lines[1], "   ", "\t", lines[2][: len(lines[2]) // 2], lines[3]]
        log = copy_log(campaign, tmp_path / "spaced", "\n".join(physical) + "\n")
        argv = ["replay", "--log", str(log), "--out", str(tmp_path / "t.jsonl"), "--ordinal"]
        assert main([*argv, "2"]) == 2
        assert_one_error_line(capsys, f"error: {log} line 9: invalid JSON")
        assert main([*argv, "3"]) == 0 and main([*argv, "1"]) == 0
        capsys.readouterr()
        assert main([*argv, "4"]) == 2
        assert_one_error_line(capsys, "outside log (0..3)")

    def test_corrupt_manifest_is_io_error(self, campaign, capsys):
        (campaign / "manifest.json").write_text("{")
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0"]) == 2
        assert "manifest.json" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", [b"\xff\xfe{", b'{"config": "\xff"}'], ids=["utf16-bom", "bad-utf8"])
    def test_manifest_that_is_not_text_is_io_error(self, campaign, capsys, raw):
        (campaign / "manifest.json").write_bytes(raw)
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0"]) == 2
        assert_one_error_line(capsys, "manifest.json", "not UTF-8/16/32 text")

    def test_manifest_that_is_not_an_object_is_io_error(self, campaign, capsys):
        (campaign / "manifest.json").write_text("[]\n")
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0"]) == 2
        assert_one_error_line(capsys, "manifest.json", "not a JSON object")

    def test_a_manifest_rewritten_in_place_is_read_anew(self, campaign, capsys, monkeypatch):
        records = [json.loads(line) for line in (campaign / "records.jsonl").read_text().splitlines()]
        detected = next(r for r in records if r["verdict"] == "DC" and r["first_contact_time"] > 0.0)
        manifest_path = campaign / "manifest.json"
        original = manifest_path.read_bytes()
        manifest = json.loads(original)
        parses = []
        monkeypatch.setattr(cli, "parse_config", lambda data: parses.append(data) or parse_config(data))
        cli._manifest_config.cache_clear()
        argv = ["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", str(detected["ordinal"])]

        def replay(raw):
            manifest_path.write_bytes(raw)
            return main(argv)

        assert replay(original) == 0 and replay(original) == 0
        assert capsys.readouterr().out.count("verdict=DC ") == 2
        assert len(parses) == 1  # the second replay reused the first one's config
        blind = dict(manifest, config=dict(manifest["config"], defect={"sample_period": 100000}))
        rejected = dict(manifest, config=dict(manifest["config"], budget=-1))
        for raw, code, message in [
            (json.dumps(blind).encode(), 3, "replay verdict IC != logged DC"),
            (original[:-5], 2, "manifest.json line"),
            (json.dumps(rejected).encode(), 1, "manifest config invalid: budget"),
            (b"[]", 2, "not a JSON object"),
        ]:
            assert replay(original) == 0
            assert "verdict=DC " in capsys.readouterr().out
            assert replay(raw) == code
            assert_one_error_line(capsys, message)
            assert replay(raw) == code  # an error is not kept: the same bytes fail again
            assert_one_error_line(capsys, message)
        assert replay(original) == 0
        assert "verdict=DC " in capsys.readouterr().out

    def test_log_that_is_a_directory_is_io_error(self, campaign, capsys):
        assert main(["replay", "--log", str(campaign), "--ordinal", "0"]) == 2
        assert_one_error_line(capsys, str(campaign))

    @pytest.mark.parametrize("how", ["missing-dir", "directory"])
    def test_unwritable_trace_out_is_io_error(self, campaign, tmp_path, capsys, how):
        out = unwritable(tmp_path, how)
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0", "--out", str(out)]) == 2
        assert_one_error_line(capsys, f"cannot write {out}")

    def test_verdict_mismatch_is_internal_error(self, campaign, capsys):
        log = campaign / "records.jsonl"
        lines = log.read_text().splitlines()
        first = json.loads(lines[0])
        first["verdict"] = "IC" if first["verdict"] != "IC" else "DC"
        tampered = campaign / "tampered.jsonl"
        tampered.write_text("\n".join([json.dumps(first, sort_keys=True)] + lines[1:]) + "\n")
        assert main(["replay", "--log", str(tampered), "--ordinal", "0"]) == 3
        assert "nondeterminism" in capsys.readouterr().err

    def test_replay_writes_trace_jsonl(self, campaign, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", "0", "--out", str(out)])
        assert code == 0
        frames = [json.loads(l) for l in out.read_text().splitlines()]
        assert frames[0]["t"] == 0.0
        assert {"ev", "npc", "penetration"} <= set(frames[0])


def replay_result(log, ordinal, out):
    """(exit code, stdout, stderr, trace bytes) of one replay into out, which is removed afterwards."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["replay", "--log", str(log), "--ordinal", str(ordinal), "--out", str(out)])
    trace = out.read_bytes() if out.exists() else None
    out.unlink(missing_ok=True)
    return code, stdout.getvalue(), stderr.getvalue(), trace


def without_index(log, ordinal, out):
    """replay_result with the log's index moved aside for the call."""
    index = cli._index_path(log)
    aside = index.with_name("aside.idx")
    index.rename(aside)
    try:
        return replay_result(log, ordinal, out)
    finally:
        aside.rename(index)


def set_mtime_after(path, other):
    """Give path a modification time one second later than other's."""
    ns = other.stat().st_mtime_ns + 10**9
    os.utime(path, ns=(ns, ns))


def patch_offset(index, ordinal, value):
    raw = bytearray(index.read_bytes())
    struct.pack_into("<Q", raw, cli._INDEX_HEAD + 8 * ordinal, value)
    index.write_bytes(bytes(raw))


# Each damage below changes a run's log or index in place and returns an
# ordinal whose lookup the index must refuse.


def swap_equal_length_records(log, index):
    lines = log.read_bytes().splitlines(keepends=True)
    by_length = {}
    for i, line in enumerate(lines):
        by_length.setdefault(len(line), []).append(i)
    i, j = next(group for group in by_length.values() if len(group) > 1)[:2]
    lines[i], lines[j] = lines[j], lines[i]
    log.write_bytes(b"".join(lines))
    return i


def append_record(log, index):
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines) + json.dumps(dict(json.loads(lines[-1]), ordinal=len(lines)), sort_keys=True) + "\n")
    return len(lines) - 1


def cut_log_short(log, index):
    raw = log.read_bytes()
    log.write_bytes(raw[: raw.index(b"\n", len(raw) // 2) + 40])
    return raw.count(b"\n", 0, len(raw) // 2) + 1


def cut_index(length):
    def damage(log, index):
        index.write_bytes(index.read_bytes()[:length])
        return 5

    return damage


def garbage_index(keep_header):
    def damage(log, index):
        raw = index.read_bytes()
        head = raw[: cli._INDEX_HEAD] if keep_header else b""
        index.write_bytes(head + bytes(range(7, 256, 13)) * (len(raw) // 19))
        return 5

    return damage


def inflate_count(log, index):
    raw = bytearray(index.read_bytes())
    struct.pack_into("<Q", raw, len(cli._INDEX_MAGIC) + 8, 2**63)
    index.write_bytes(bytes(raw))
    return 5


def offset_mid_line(log, index):
    start = struct.unpack_from("<Q", index.read_bytes(), cli._INDEX_HEAD + 8 * 5)[0]
    patch_offset(index, 5, start + 7)
    return 5


def stop_one_byte_short(log, index):
    # the slice is record 5 without its newline: it parses, but it is not a whole line
    stop = struct.unpack_from("<Q", index.read_bytes(), cli._INDEX_HEAD + 8 * 6)[0]
    patch_offset(index, 6, stop - 1)
    return 5


def offset_past_eof(log, index):
    patch_offset(index, 5, log.stat().st_size + 64)
    return 4


def blank_a_record_in_place(log, index):
    # same size, and every other record keeps its offset and ordinal; only
    # the modification times tell that the log changed after its index
    lines = log.read_bytes().splitlines(keepends=True)
    lines[5] = b" " * (len(lines[5]) - 1) + b"\n"
    log.write_bytes(b"".join(lines))
    return 6


# every numeric field of a record: an int (a bool too) or a float, with -0.0,
# subnormals, the largest floats and the non-finite ones drawn often
EXTREME_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]
LABEL_NUMBERS = st.one_of(
    st.sampled_from(EXTREME_FLOATS + [math.nan, math.inf, -math.inf]), st.floats(), st.integers(-(2**64), 2**64)
)
NUMBERS = st.one_of(LABEL_NUMBERS, st.integers(-(10**400), 10**400), st.booleans())


@st.composite
def log_records(draw):
    """A record with any number, or none, in each numeric field, and buckets equal to shared ones, or none."""
    optional = st.one_of(st.none(), NUMBERS)
    # the labels compare d, v_hat and a with floats and subtract from a, so those hold a float or an int in float range
    params = SimpleNamespace(
        d=draw(LABEL_NUMBERS),
        v_hat=draw(LABEL_NUMBERS),
        theta_long=draw(optional),
        theta_lat=draw(optional),
        a=draw(LABEL_NUMBERS),
    )
    rec = OutcomeRecord(
        kind=draw(st.sampled_from(ScenarioKind)),
        params=params,
        verdict=draw(st.sampled_from(ScenarioType)),
        first_contact_time=draw(optional),
        ordinal=draw(optional),
        sim_seconds=draw(optional),
        clock_seconds=draw(optional),
    )
    labels = [st.sampled_from(report.LABELS[axis]) for axis in ("distance", "speed", "angle")]
    return rec, draw(st.one_of(st.none(), st.builds(report.BucketLabels, *labels)))


def assert_log_matches_reference(path, records, buckets):
    cli._write_records(records, path, buckets)
    lines = [record_line(rec, labels) for rec, labels in zip(records, buckets or itertools.repeat(None))]
    assert path.read_text() == "".join(lines)
    raw = cli._index_path(path).read_bytes()
    size, count, *offsets = struct.unpack(f"<{(len(raw) - len(cli._INDEX_MAGIC)) // 8}Q", raw[len(cli._INDEX_MAGIC) :])
    assert (size, count) == (path.stat().st_size, len(records))
    assert offsets == [0, *itertools.accumulate(map(len, lines))]


class TestLogWriter:
    """`_write_records` spells each line from a template, with the bytes of json.dumps(..., sort_keys=True)."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.lists(log_records(), min_size=1, max_size=6), with_buckets=st.booleans())
    def test_lines_are_those_of_json_dumps(self, tmp_path_factory, drawn, with_buckets):
        records = [rec for rec, _ in drawn]
        buckets = [labels or report.bucket(rec.params) for rec, labels in drawn] if with_buckets else None
        assert_log_matches_reference(tmp_path_factory.getbasetemp() / "records.jsonl", records, buckets)

    def test_every_kind_and_verdict(self, tmp_path):
        params = ControlParameters.from_angle(4.0, 20.0, 0.3)
        records = [
            OutcomeRecord(kind, params, verdict, t, i, 1.25, 2.5)
            for i, (kind, verdict, t) in enumerate(itertools.product(ScenarioKind, ScenarioType, (None, 0.5)))
        ]
        assert_log_matches_reference(tmp_path / "records.jsonl", records, None)


class TestRecordIndex:
    """`run` writes records.jsonl.idx; `replay` reads through it only when it can trust it."""

    @pytest.fixture()
    def campaign(self, tmp_path):
        code, out_dir = run_mini(tmp_path, budget=300)
        assert code == 0
        return out_dir

    def test_intact_index_gives_every_record_as_streaming_does(self, campaign):
        log = campaign / "records.jsonl"
        records = cli._read_records(log)
        assert [cli._indexed_record(log, i) for i in range(len(records))] == records
        assert cli._indexed_record(log, -1) is None and cli._indexed_record(log, len(records)) is None

    @pytest.mark.parametrize(
        "damage",
        [
            lambda log, index: index.unlink() or 5,
            append_record,
            cut_log_short,
            swap_equal_length_records,
            cut_index(10),
            cut_index(len(cli._INDEX_MAGIC) + 5),
            garbage_index(keep_header=False),
            garbage_index(keep_header=True),
            inflate_count,
            offset_mid_line,
            stop_one_byte_short,
            offset_past_eof,
            blank_a_record_in_place,
        ],
        ids=[
            "index-deleted",
            "record-appended",
            "log-cut-short",
            "equal-length-records-swapped",
            "index-cut-mid-magic",
            "index-cut-mid-header",
            "index-garbage",
            "index-garbage-after-header",
            "index-count-inflated",
            "offset-mid-line",
            "stop-one-byte-short",
            "offset-past-eof",
            "log-blanked-in-place",
        ],
    )
    def test_untrusted_index_changes_no_replay(self, campaign, tmp_path, damage):
        log, index = campaign / "records.jsonl", campaign / "records.jsonl.idx"
        n = len(log.read_text().splitlines())
        ordinal = damage(log, index)
        if index.exists():
            if damage is blank_a_record_in_place:
                set_mtime_after(log, index)
            else:  # so that only the content checks can reject the index
                set_mtime_after(index, log)
        assert cli._indexed_record(log, ordinal) is None
        out = tmp_path / "trace.jsonl"
        for o in sorted({0, ordinal - 1, ordinal, ordinal + 1, n - 1, n, n + 1, -1, 10**20}):
            seen = replay_result(log, o, out)
            assert seen == (without_index(log, o, out) if index.exists() else replay_result(log, o, out))
            assert seen[0] in (0, 2, 3) and seen[2].count("\n") <= 1, seen[2]

    def test_damaged_record_and_out_of_range_errors_name_the_same_lines(self, campaign, tmp_path):
        log, index = campaign / "records.jsonl", campaign / "records.jsonl.idx"
        lines = log.read_text().splitlines(keepends=True)
        lines[7] = lines[7].replace('"kind": "FLB"', '"kind": "FLX"')  # same size, same offsets
        log.write_text("".join(lines))
        set_mtime_after(index, log)
        out = tmp_path / "trace.jsonl"
        errors = {7: f"error: {log} line 8: malformed record: ValueError: ", 300: "error: ordinal 300 outside log (0..299)"}
        for ordinal, message in errors.items():
            seen = replay_result(log, ordinal, out)
            assert seen == without_index(log, ordinal, out)
            assert seen[0] == 2 and seen[2].startswith(message) and seen[2].count("\n") == 1

    def test_a_copy_under_another_name_streams(self, campaign, tmp_path):
        log = campaign / "records.jsonl"
        copy = campaign / "copy.jsonl"
        shutil.copy(log, copy)
        assert not cli._index_path(copy).exists() and cli._indexed_record(copy, 3) is None
        out = tmp_path / "trace.jsonl"
        for ordinal in (0, 3, 299, 300):
            assert replay_result(copy, ordinal, out)[:2] == replay_result(log, ordinal, out)[:2]

    def test_a_log_write_that_stops_leaves_no_index(self, campaign):
        log, index = campaign / "records.jsonl", campaign / "records.jsonl.idx"
        records = cli._read_records(log)

        def stopping():
            yield from records[:10]
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            cli._write_records(stopping(), log)
        assert not index.exists() and len(cli._read_records(log)) == 10

    def test_index_bytes_are_deterministic_and_a_rerun_replaces_them(self, tmp_path):
        _, first = run_mini(tmp_path, budget=120, out="first")
        _, second = run_mini(tmp_path, budget=120, out="second")
        raw = (first / "records.jsonl.idx").read_bytes()
        assert raw == (second / "records.jsonl.idx").read_bytes()
        log = (first / "records.jsonl").read_bytes()
        size, count, *offsets = struct.unpack(f"<{(len(raw) - len(cli._INDEX_MAGIC)) // 8}Q", raw[len(cli._INDEX_MAGIC) :])
        assert raw.startswith(cli._INDEX_MAGIC) and (size, count) == (len(log), 120)
        assert offsets == [0, *itertools.accumulate(len(line) for line in log.splitlines(keepends=True))]

        # a run into a directory that holds another config's log and index replaces both
        other = write_config(tmp_path, dict(MINI_CONFIG, budget=200, rng_seed=11), name="other.json")
        for out_dir in (first, tmp_path / "fresh"):
            assert main(["run", "--config", str(other), "--out", str(out_dir)]) == 0
        for name in ("records.jsonl", "records.jsonl.idx"):
            assert (first / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        out = tmp_path / "trace.jsonl"
        for ordinal in (5, 119, 150, 199):
            assert cli._indexed_record(first / "records.jsonl", ordinal) is not None
            assert replay_result(first / "records.jsonl", ordinal, out) == replay_result(tmp_path / "fresh" / "records.jsonl", ordinal, out)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    code, out_dir = run_mini(tmp_path_factory.mktemp("small"), budget=120)
    assert code == 0
    return out_dir


# (file, how, where, xor mask): cut the file at a position, or flip bits of one byte
DAMAGE = st.lists(
    st.tuples(
        st.sampled_from(["records.jsonl", "records.jsonl.idx"]),
        st.sampled_from(["cut", "flip"]),
        st.integers(0, 2**21),
        st.integers(1, 255),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(damage=DAMAGE, ordinal=st.integers(-1, 121) | st.just(10**20), fresh_index=st.booleans())
def test_damaged_log_or_index_ends_in_an_exit_code_not_a_traceback(small_run, damage, ordinal, fresh_index):
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp) / "out"
        shutil.copytree(small_run, out_dir)
        for name, how, where, mask in damage:
            path = out_dir / name
            raw = bytearray(path.read_bytes())
            if how == "cut":
                del raw[where % (len(raw) + 1) :]
            elif raw:
                raw[where % len(raw)] ^= mask
            path.write_bytes(bytes(raw))
        log, index = out_dir / "records.jsonl", out_dir / "records.jsonl.idx"
        if fresh_index:
            set_mtime_after(index, log)
        trace = Path(tmp) / "trace.jsonl"
        seen = replay_result(log, ordinal, trace)
        if all(name == index.name for name, *_ in damage):
            assert seen == without_index(log, ordinal, trace)
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["report", "--log", str(log), "--format", "csv", "--out", str(Path(tmp) / "report")])
        for code, err in ((seen[0], seen[2]), (code, stderr.getvalue())):
            assert code in (0, 2, 3)
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err


class TestReportCommand:
    def test_csv_and_svg_outputs(self, tmp_path, capsys):
        _, out_dir = run_mini(tmp_path, budget=120)
        assert main(["report", "--log", str(out_dir / "records.jsonl"), "--format", "csv", "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "report.csv").read_text().count("\n") > 1
        assert main(["report", "--log", str(out_dir / "records.jsonl"), "--format", "svg", "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "report.svg").read_text().startswith("<svg")

    def test_empty_log_gives_header_only(self, tmp_path):
        log = tmp_path / "records.jsonl"
        log.write_text("")
        assert main(["report", "--log", str(log), "--format", "csv", "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "report.csv").read_text().splitlines() == [
            "axis,bucket,executions,collisions,ics,sr_percent"
        ]

    def test_missing_log_is_io_error(self, tmp_path):
        assert main(["report", "--log", str(tmp_path / "none.jsonl"), "--format", "csv", "--out", str(tmp_path / "r")]) == 2

    def test_log_that_is_a_directory_is_io_error(self, tmp_path, capsys):
        assert main(["report", "--log", str(tmp_path), "--format", "csv", "--out", str(tmp_path / "r")]) == 2
        assert_one_error_line(capsys, f"cannot read {tmp_path}")

    @pytest.mark.parametrize("fmt", ["csv", "svg"])
    @pytest.mark.parametrize("below", [False, True])
    def test_out_that_is_a_file_is_io_error(self, tmp_path, capsys, fmt, below):
        log = tmp_path / "records.jsonl"
        log.write_text("")
        blocker = tmp_path / "some_file"
        blocker.write_text("kept")
        out = blocker / "sub" if below else blocker
        assert main(["report", "--log", str(log), "--format", fmt, "--out", str(out)]) == 2
        assert_one_error_line(capsys, f"cannot write {out}: ")
        assert blocker.read_text() == "kept"


class TestSweepStep:
    def test_single_step_gives_one_row(self, tmp_path):
        out = tmp_path / "steps.csv"
        code = main(["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", "0.05", "--trials", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,mean_ics,trial_counts"
        assert len(lines) == 2

    def test_step_giving_too_many_values_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        assert main(["sweep-step", "--kind", "FLV", "--axis", "distance", "--steps", "1e-300", "--trials", "1", "--out", str(out)]) == 1
        assert_one_error_line(capsys, "more than 10000 values")
        assert not out.exists()

    @pytest.mark.parametrize("step", ["inf", "-inf", "nan"])
    def test_non_finite_step_is_config_error(self, tmp_path, capsys, step):
        out = tmp_path / "s.csv"
        assert main(["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", f"0.5,{step}", "--trials", "1", "--out", str(out)]) == 1
        assert_one_error_line(capsys, f"step must be positive and finite, got {step}")
        assert not out.exists()

    def test_empty_steps_list_is_config_error(self, tmp_path, capsys):
        assert main(["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", ",", "--trials", "1", "--out", str(tmp_path / "s.csv")]) == 1

    def test_bad_axis_is_config_error(self, tmp_path):
        assert main(["sweep-step", "--kind", "FLB", "--axis", "mass", "--steps", "0.05", "--trials", "1", "--out", str(tmp_path / "s.csv")]) == 1

    @pytest.mark.parametrize("how", ["missing-dir", "directory"])
    def test_unwritable_out_is_io_error(self, tmp_path, capsys, how):
        out = unwritable(tmp_path, how)
        assert main(["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", "0.05", "--trials", "1", "--out", str(out)]) == 2
        assert_one_error_line(capsys, f"cannot write {out}")


class TestSweepThreshold:
    def test_five_thresholds_and_monotone_recall(self, tmp_path):
        out = tmp_path / "thr.csv"
        code = main(["sweep-threshold", "--thresholds", "0,0.05,0.1,0.15,0.2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "threshold,tp,fp,fn,precision,recall"
        assert len(lines) == 6
        recalls = [float(l.split(",")[5]) for l in lines[1:]]
        assert recalls[0] == 1.0
        assert all(recalls[i] >= recalls[i + 1] for i in range(len(recalls) - 1))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_CSV_DIGEST

    @pytest.mark.parametrize("how", ["missing-dir", "directory"])
    def test_unwritable_out_is_io_error(self, tmp_path, capsys, how):
        path = write_config(tmp_path, {"kinds": ["FLB"], "budget": 10})
        out = unwritable(tmp_path, how)
        assert main(["sweep-threshold", "--thresholds", "0,0.1", "--config", str(path), "--out", str(out)]) == 2
        assert_one_error_line(capsys, f"cannot write {out}")

    def test_empty_threshold_list_is_config_error(self, tmp_path):
        assert main(["sweep-threshold", "--thresholds", "", "--out", str(tmp_path / "t.csv")]) == 1

    def test_threshold_out_of_range_is_config_error(self, tmp_path):
        assert main(["sweep-threshold", "--thresholds", "0,1.5", "--out", str(tmp_path / "t.csv")]) == 1

    def test_non_finite_box_corner_is_config_error(self, tmp_path, capsys, monkeypatch):
        simulate = cli.simulate

        def widened(*args):
            trace = simulate(*args)
            trace.npc_half = (math.inf, trace.npc_half[1])
            return trace

        monkeypatch.setattr(cli, "simulate", widened)
        path = write_config(tmp_path, MINI_CONFIG)
        argv = ["sweep-threshold", "--thresholds", "0.1", "--config", str(path), "--out", str(tmp_path / "t.csv")]
        assert main(argv) == 1
        assert_one_error_line(capsys, "non-finite point (inf, ")

    def test_invalid_seed_is_config_error(self, tmp_path, capsys):
        config = {"kinds": ["FLB"], "budget": 10, "scenario_overrides": {"FLB": {"npc": {"y": 30.0}}}}
        path = write_config(tmp_path, config)
        assert main(["sweep-threshold", "--thresholds", "0", "--config", str(path), "--out", str(tmp_path / "t.csv")]) == 1
        err = capsys.readouterr().err
        assert "seed for FLB" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "command",
    [
        ["run"],
        ["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", "0.5", "--trials", "1"],
        ["sweep-threshold", "--thresholds", "0"],
    ],
    ids=["run", "sweep-step", "sweep-threshold"],
)
def test_config_that_is_a_directory_is_io_error(tmp_path, capsys, command):
    assert main([*command, "--config", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert_one_error_line(capsys, f"cannot read {tmp_path}")


def test_usage_errors_map_to_config_error_code(capsys):
    assert main(["run"]) == 1
    assert main([]) == 1
