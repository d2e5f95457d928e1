import argparse
import ast
import contextlib
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import math
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CONFIG_DIR
from record_oracle import record_line
from sim_oracle import DenseExecutor, builtin_cd_full, max_iou_whole_trace, simulate_full, validate_seed_full
from silentcrash import cli, fuzzer, report
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
# sweep-threshold's default config with a built-in detector that never fires
# (no closing speed reaches 1000 m/s), and the sha256 of its CSV
NEVER_FIRES = {"defect": {"sample_period": 1, "min_penetration": 0.0, "min_impact_speed": 1000.0}}
SWEEP_CSV_NEVER_FIRES_DIGEST = "5ada6cfda7623cf20de9e38e1fdb6cf710b511093399ceebfa3453dc8758ac25"

# sha256 of the `replay` trace JSONL of reference-log ordinals: IC (FLB),
# DC (LC), NC (InC), IC (PSF) and the last record, NC (PCF)
REFERENCE_TRACE_DIGESTS = {
    13: "37b94a6308501913c2965fb5dd14a52cfb5e546086c19b94775e1698e6b99a30",
    1298: "eface72f4e22501fd6f4c47874dfbb316ed386fc61d0cca336fc431b06d6edeb",
    2774: "c6a0e89668b8939f86f4979fea397060168896a84190cb670185d9d6d305ef16",
    3323: "8ce3a525cdf382e74cf289df490357c9a76b6962631e13f9bf4c38c7dbeeef72",
    5229: "2de5f23887d7eb5c9d015b318f6d1c6130326a118a4dcf002308575a23d59968",
}

# (sha256 of records.jsonl, record count) of reference-config variants that
# the shipped configs do not run
VARIANT_DIGESTS = {
    "nc_start": ("9062f21471b0bf8ac8c1a47eacc7d490ec812991bfc1f3d1ce5f91abeb111ede", 10529),
    "random": ("017ba15598f831cd432fba686fade0f725bbd4e98262767a3099ec0136b89343", 20000),
    "per-axis": ("e343d299eb91b0167ed194f51bd387d0bc938f375aba55129b7cc94b1e80b53a", 7146),
}

# sha256 of `sweep-step --kind FLB --axis angle --steps 0.05,0.1 --trials 3`
# with the default config: its trials draw their fixed parameters from
# np.random.default_rng([rng_seed, trial])
SWEEP_STEP_CSV_DIGEST = "af0d172ac7acff823e751adb78ced2b80f8ef5d399c66a60e0a891d25301ef48"

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
            # centers past simulator.MAX_COORD, where squared offsets overflow: an error, not a flipped verdict
            (
                {
                    "kinds": ["PSF"],
                    "scenario_overrides": {"PSF": {"npc": {"half_length": 1e155, "x": 2.5e155}, "ev": {"speed": 2e154}}},
                },
                "beyond 1e+150 m",
            ),
            ({"defect": {"min_penetration": 10**400}}, "defect.min_penetration"),
            ({"sim": {"dt": 10**400}}, "sim.dt"),
            ({"scenario_overrides": {"FLV": {"npc": {"yaw": 1e300}}}}, "scenario_overrides.FLV: npc override 'yaw'"),
        ],
        ids=[
            "plan-block-list",
            "actor-override-list",
            "nan-npc-speed",
            "overflowing-npc-speed",
            "centers-beyond-max-coord",
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
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["records.jsonl"]

    @pytest.mark.parametrize("failing", ["records.jsonl.idx", "manifest.json", "report.csv", "report_cross.csv"])
    def test_a_write_that_fails_leaves_the_earlier_outputs_and_no_temporary_file(self, tmp_path, capsys, monkeypatch, failing):
        _, out = run_mini(tmp_path, budget=40)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == sorted(cli._RUN_OUTPUTS)
        for method in ("write_text", "write_bytes"):
            write = getattr(Path, method)

            def failing_write(path, data, *args, write=write, **kwargs):
                if path.name == failing:
                    raise OSError(28, os.strerror(28), str(path))
                return write(path, data, *args, **kwargs)

            monkeypatch.setattr(Path, method, failing_write)
        capsys.readouterr()
        assert run_mini(tmp_path, budget=60)[0] == 2
        assert_one_error_line(capsys, f"cannot write {out / failing}: {os.strerror(28)}")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        # the index still vouches for the log it sits beside
        assert cli._indexed_record(out / "records.jsonl", 39).ordinal == 39

    def test_a_directory_in_an_outputs_place_leaves_the_earlier_outputs(self, tmp_path, capsys):
        _, out = run_mini(tmp_path, budget=30)
        (out / "manifest.json").unlink()
        (out / "manifest.json").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert run_mini(tmp_path, budget=40)[0] == 2
        assert_one_error_line(capsys, f"cannot write {out / 'manifest.json'}: {os.strerror(errno.EISDIR)}")
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted(cli._RUN_OUTPUTS)
        assert len(cli._read_records(out / "records.jsonl")) == 30

    def test_a_rerun_replaces_every_output_and_leaves_no_temporary_file(self, tmp_path):
        _, out = run_mini(tmp_path, budget=40)
        run_mini(tmp_path, budget=60)
        assert sorted(p.name for p in out.iterdir()) == sorted(cli._RUN_OUTPUTS)
        assert len(cli._read_records(out / "records.jsonl")) == 60
        assert cli._indexed_record(out / "records.jsonl", 59).ordinal == 59

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
    cli._write_records(records, tmp_path / "records.jsonl", [rec.buckets for rec in records])
    digest = hashlib.sha256((tmp_path / "records.jsonl").read_bytes()).hexdigest()
    assert (digest, len(records)) == VARIANT_DIGESTS[variant]


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    assert main(["run", "--config", str(CONFIG_DIR / "reference.json"), "--out", str(out)]) == 0
    return out


def with_fields(**fields):
    """A damage of a log line that gives its record these fields."""
    return lambda line: json.dumps(dict(json.loads(line), **fields))


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

    @pytest.mark.parametrize("target", ["records.jsonl", "manifest.json", "records.jsonl.idx"])
    @pytest.mark.parametrize("spelling", ["plain", "dot", "symlink", "hard link"])
    def test_out_over_the_log_or_its_manifest_writes_nothing(self, campaign, tmp_path, capsys, target, spelling):
        """An --out that opens the log, its manifest or its index, however spelled, exits 2 with one line and keeps every byte."""
        log, read = campaign / "records.jsonl", campaign / target
        files = [log, campaign / "manifest.json", cli._index_path(log)]
        before = [f.read_bytes() for f in files]
        if spelling == "plain":
            out = str(read)
        elif spelling == "dot":
            out = f"{campaign}/./{target}"
        elif spelling == "symlink":
            out = tmp_path / "link.jsonl"
            out.symlink_to(read)
        else:
            out = tmp_path / "hard.jsonl"
            os.link(read, out)
        argv = ["replay", "--log", str(log), "--ordinal", "3"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {Path(out)}: it is {read}, which replay reads; nothing written\n"
        assert [f.read_bytes() for f in files] == before
        assert main([*argv, "--out", str(tmp_path / "trace.jsonl")]) == 0

    def test_out_at_the_index_name_of_a_log_with_no_index_is_written(self, campaign, tmp_path, capsys):
        # a copied log has no index, so that name is nothing replay reads
        log = copy_log(campaign, tmp_path / "copy", (campaign / "records.jsonl").read_text())
        out = cli._index_path(log)
        assert not out.exists()
        assert main(["replay", "--log", str(log), "--ordinal", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(f" trace={out}")
        assert out.read_bytes().startswith(b'{"closing_speed": ')

    @pytest.mark.parametrize("ordinal", ["0", "3", "-1"])
    def test_a_log_with_no_records_says_so(self, tmp_path, capsys, ordinal):
        code, out_dir = run_mini(tmp_path, budget=0)
        assert code == 0
        capsys.readouterr()
        log = out_dir / "records.jsonl"
        assert log.read_bytes() == b""
        assert main(["replay", "--log", str(log), "--ordinal", ordinal, "--out", str(tmp_path / "t.jsonl")]) == 2
        assert capsys.readouterr() == ("", f"error: {log} holds no records\n")
        assert not (tmp_path / "t.jsonl").exists()

    @pytest.mark.parametrize("log", ["/", ".", ""], ids=["root", "dot", "empty"])
    def test_a_log_path_with_no_name_is_io_error(self, tmp_path, monkeypatch, capsys, log):
        # the index is named by appending ".idx" to the log's path string, so
        # a path with no last component still gets one
        monkeypatch.chdir(tmp_path)
        assert main(["replay", "--log", log, "--ordinal", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot read {Path(log)}: Is a directory\n" and "Traceback" not in err

    @pytest.mark.parametrize("log", ["{d}/records.jsonl", "{d}//records.jsonl", "./records.jsonl"], ids=["plain", "double-slash", "dot"])
    @pytest.mark.parametrize("manifest", ["missing", "directory"])
    def test_a_manifest_that_cannot_be_read_is_one_error_line(self, campaign, tmp_path, monkeypatch, capsys, log, manifest):
        # the log is read first, so it is whole; the manifest beside it is not a file
        d = tmp_path / "log"
        d.mkdir()
        shutil.copy(campaign / "records.jsonl", d)
        if manifest == "directory":
            (d / "manifest.json").mkdir()
        monkeypatch.chdir(d)
        log = log.format(d=d)
        assert main(["replay", "--log", log, "--ordinal", "0", "--out", str(tmp_path / "t.jsonl")]) == 2
        name = Path(log).parent / "manifest.json"
        want = f"error: missing file: {name}\n" if manifest == "missing" else f"error: cannot read {name}: Is a directory\n"
        assert capsys.readouterr() == ("", want)

    @pytest.mark.parametrize(
        "log",
        ["records.jsonl", "./records.jsonl", "{d}//records.jsonl", "{d}/./records.jsonl", "{d}/records.jsonl/", "{d}/records.jsonl/."],
        ids=["bare", "dot", "double-slash", "dot-segment", "trailing-slash", "trailing-dot"],
    )
    def test_replay_spells_its_paths_as_path_does(self, campaign, tmp_path, monkeypatch, capsys, log):
        monkeypatch.chdir(campaign)
        log = log.format(d=campaign)
        ordinal = 3
        assert main(["replay", "--log", str(campaign / "records.jsonl"), "--ordinal", str(ordinal), "--out", str(tmp_path / "want.jsonl")]) == 0
        want = (tmp_path / "want.jsonl").read_bytes()
        capsys.readouterr()
        default = Path(log).parent / f"trace_{ordinal}.jsonl"
        for out in (None, f"{tmp_path}//./t.jsonl", "./t.jsonl"):
            argv = ["replay", "--log", log, "--ordinal", str(ordinal)] + ([] if out is None else ["--out", out])
            assert main(argv) == 0
            trace = default if out is None else Path(out)
            assert capsys.readouterr().out.splitlines()[0].endswith(f" trace={trace}")
            assert trace.read_bytes() == want
            trace.unlink()
        (campaign / "manifest.json").write_text("{")
        assert main(["replay", "--log", log, "--ordinal", str(ordinal)]) == 2
        assert_one_error_line(capsys, f"error: {Path(log).parent / 'manifest.json'} line 1: invalid JSON")

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
            (with_fields(clock_seconds="x"), "TypeError: clock_seconds must be a number, not str"),
            (with_fields(sim_seconds=None), "TypeError: sim_seconds must be a number, not NoneType"),
            (with_fields(ordinal="120"), "TypeError: ordinal must be an int >= 0, not '120'"),
            (with_fields(v_hat=True), "TypeError: v_hat must be a number, not bool"),
            (with_fields(theta_long=10**400), "OverflowError"),
        ],
        ids=[
            "truncated", "missing-field", "bad-verdict", "not-an-object", "nan-direction",
            "string-clock", "null-sim-seconds", "string-ordinal", "bool-speed", "huge-direction",
        ],
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
        overflowing = dict(manifest, config=dict(manifest["config"], scenario_overrides={"FLB": {"npc": {"speed": 1e308}}}))
        for raw, code, message in [
            (json.dumps(blind).encode(), 3, "replay verdict IC != logged DC"),
            (original[:-5], 2, "manifest.json line"),
            (json.dumps(rejected).encode(), 1, "manifest config invalid: budget"),
            (json.dumps(overflowing).encode(), 1, "manifest config invalid: non-finite positions"),
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


INDEX_DAMAGES = {
    "index-deleted": lambda log, index: index.unlink() or 5,
    "record-appended": append_record,
    "log-cut-short": cut_log_short,
    "equal-length-records-swapped": swap_equal_length_records,
    "index-cut-mid-magic": cut_index(10),
    "index-cut-mid-header": cut_index(len(cli._INDEX_MAGIC) + 5),
    "index-garbage": garbage_index(keep_header=False),
    "index-garbage-after-header": garbage_index(keep_header=True),
    "index-count-inflated": inflate_count,
    "offset-mid-line": offset_mid_line,
    "stop-one-byte-short": stop_one_byte_short,
    "offset-past-eof": offset_past_eof,
    "log-blanked-in-place": blank_a_record_in_place,
}


def apply_damage(log, index, damage):
    """Damage the run's log or index and return the ordinal whose lookup the index must refuse.

    Only the in-place blanking leaves the index older than the log; after
    any other damage the index is the newer, so that only the content
    checks can reject it.
    """
    ordinal = damage(log, index)
    if index.exists():
        if damage is blank_a_record_in_place:
            set_mtime_after(log, index)
        else:
            set_mtime_after(index, log)
    return ordinal


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
    lines = [record_line(rec, labels) for rec, labels in zip(records, buckets)]
    assert path.read_text() == "".join(lines)
    raw = cli._index_path(path).read_bytes()
    size, count, *offsets = struct.unpack(f"<{(len(raw) - len(cli._INDEX_MAGIC)) // 8}Q", raw[len(cli._INDEX_MAGIC) :])
    assert (size, count) == (path.stat().st_size, len(records))
    assert offsets == [0, *itertools.accumulate(map(len, lines))]


class TestLogWriter:
    """`_write_records` spells each line from a template, with the bytes of json.dumps(..., sort_keys=True)."""

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.lists(log_records(), min_size=1, max_size=6))
    def test_lines_are_those_of_json_dumps(self, tmp_path_factory, drawn):
        records = [rec for rec, _ in drawn]
        buckets = [labels or rec.buckets for rec, labels in drawn]
        assert_log_matches_reference(tmp_path_factory.getbasetemp() / "records.jsonl", records, buckets)

    def test_every_kind_and_verdict(self, tmp_path):
        params = ControlParameters.from_angle(4.0, 20.0, 0.3)
        records = [
            OutcomeRecord(kind, params, verdict, t, i, 1.25, 2.5)
            for i, (kind, verdict, t) in enumerate(itertools.product(ScenarioKind, ScenarioType, (None, 0.5)))
        ]
        assert_log_matches_reference(tmp_path / "records.jsonl", records, [rec.buckets for rec in records])


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

    @pytest.mark.parametrize("damage", INDEX_DAMAGES.values(), ids=INDEX_DAMAGES.keys())
    def test_untrusted_index_changes_no_replay(self, campaign, tmp_path, damage):
        log, index = campaign / "records.jsonl", campaign / "records.jsonl.idx"
        n = len(log.read_text().splitlines())
        ordinal = apply_damage(log, index, damage)
        assert cli._indexed_record(log, ordinal) is None
        out = tmp_path / "trace.jsonl"
        for o in sorted({0, ordinal - 1, ordinal, ordinal + 1, n - 1, n, n + 1, -1, 10**20}):
            seen = replay_result(log, o, out)
            assert seen == (without_index(log, o, out) if index.exists() else replay_result(log, o, out))
            assert seen[0] in (0, 2, 3) and seen[2].count("\n") <= 1, seen[2]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
    @pytest.mark.parametrize("damage", [None, *INDEX_DAMAGES.values()], ids=["trusted", *INDEX_DAMAGES])
    def test_a_lookup_leaves_no_descriptor_open(self, campaign, damage):
        log, index = campaign / "records.jsonl", campaign / "records.jsonl.idx"
        ordinal = 5 if damage is None else apply_damage(log, index, damage)
        for o in (ordinal, 0, 299, -1, 300, 10**20):  # the last three out of range
            before = len(os.listdir("/proc/self/fd"))
            record = cli._indexed_record(log, o)
            assert len(os.listdir("/proc/self/fd")) == before, o
            if o == ordinal:
                assert (record is None) == (damage is not None)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd to count descriptors")
    @pytest.mark.parametrize("read", ["pair-cut-short", "log-read-fails"])
    def test_a_read_that_fails_leaves_no_descriptor_open(self, campaign, monkeypatch, read):
        # a read past the end of a file changed after its size was taken
        # returns fewer bytes, and a read of a failing device raises
        pread = os.pread

        def failing(fd, n, offset):
            if read == "pair-cut-short" and n == 16:
                return pread(fd, n, offset)[:8]
            if read == "log-read-fails" and n not in (16, cli._INDEX_HEAD):
                raise OSError(errno.EIO, os.strerror(errno.EIO))
            return pread(fd, n, offset)

        monkeypatch.setattr(os, "pread", failing)
        before = len(os.listdir("/proc/self/fd"))
        assert cli._indexed_record(campaign / "records.jsonl", 5) is None
        assert len(os.listdir("/proc/self/fd")) == before

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
            cli._write_records(stopping(), log, [rec.buckets for rec in records])
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


# JSON values of another type than the log's writer puts in any field: the
# letters spell no scenario kind or verdict, and the ints lie past float range
OTHER_TYPES = st.one_of(
    st.text("xyz0.", max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-2, 2) | st.floats(), max_size=2),
    st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024)),
)


@settings(max_examples=100, deadline=None)
@given(ordinal=st.integers(0, 119), field=st.sampled_from(cli._LINE_KEYS + ("category",)), value=OTHER_TYPES)
def test_a_field_of_another_type_ends_in_an_exit_code_not_a_traceback(small_run, ordinal, field, value):
    """report and replay of a log whose one record has one field replaced exit 0 or 2, with one error line at most.

    A field the record is built from, but for first_contact_time (which may
    be null) and the ordinal (which may be any int >= 0), makes the record a
    damaged one: both exit 2.
    """
    lines = (small_run / "records.jsonl").read_text().splitlines(keepends=True)
    lines[ordinal] = json.dumps(dict(json.loads(lines[ordinal]), **{field: value}), sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        log = copy_log(small_run, Path(tmp) / "damaged", "".join(lines))
        replayed = replay_result(log, ordinal, Path(tmp) / "trace.jsonl")
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = main(["report", "--log", str(log), "--format", "csv", "--out", str(Path(tmp) / "report")])
    codes = (replayed[0], code)
    for exit_code, err in zip(codes, (replayed[2], stderr.getvalue())):
        assert exit_code in (0, 2) and (err == "" if exit_code == 0 else err.startswith("error: ") and err.count("\n") == 1), err
    if field in ("d", "v_hat", "theta_long", "theta_lat", "sim_seconds", "clock_seconds", "kind", "verdict"):
        assert codes == (2, 2)


# a small config whose every field the fuzz below may replace
FUZZ_BASE = {
    "kinds": ["FLB", "LC"],
    "mutator": "guided",
    "budget": 4,
    "rng_seed": 1,
    "defect": {"sample_period": 5, "min_penetration": 0.05, "min_impact_speed": 0.5},
    "oracle": {"t_bbox": 0.0},
    "sim": {"dt": 0.01, "horizon": 15.0, "settle_frames": 20},
    "plans": {"default": {"speed_start": 10.0, "speed_step": 10.0}, "FLB": {"distance_schedule": [4, 6], "k_nc": 2}},
    "scenario_overrides": {"LC": {"npc": {"speed": 3.0}}},
}
PLAN_KEYS = ("distance_step", "distance_start", "speed_step", "speed_start", "distance_schedule", "speed_schedule")
PLAN_KEYS += ("angle_step_long", "angle_step_lat", "angle_mode", "k_nc")
ACTOR_KEYS = ("speed", "half_length", "half_width", "x", "y", "yaw")
FUZZ_PATHS = [
    ("budget",), ("kinds",), ("mutator",), ("rng_seed",), ("defect",), ("sim",), ("oracle",), ("plans",), ("scenario_overrides",),
    *(("defect", key) for key in ("sample_period", "min_penetration", "min_impact_speed")),
    *(("sim", key) for key in ("dt", "horizon", "settle_frames")),
    ("oracle", "t_bbox"),
    *(("plans", plan, key) for plan in ("default", "FLB", "LC") for key in PLAN_KEYS),
    *(("scenario_overrides", kind, actor, key) for kind in ("FLB", "LC") for actor in ("ev", "npc") for key in ACTOR_KEYS),
]
EXTREME_NUMBERS = [0, -1, -0.0, 0.5, 5e-324, 1e-300, -1e-300, 1e308, -1e308, 1.7976931348623157e308, 2**63, 10**400, -(10**400)]
# numbers a field may well accept, and anything else
FUZZ_VALUES = st.one_of(
    st.floats(0.01, 40.0) | st.integers(1, 40),
    st.one_of(
        st.floats(),  # NaN and infinities included
        st.integers(-(10**6), 10**6),
        st.sampled_from(EXTREME_NUMBERS),
        st.none(),
        st.booleans(),
        st.text(max_size=4),
        st.lists(st.integers(-2, 8) | st.floats(), max_size=3),
        st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=1),
    ),
)
# a budget stays small, whatever its type
FUZZ_BUDGETS = st.integers(-3, 6) | st.floats(max_value=6.0) | st.none() | st.booleans() | st.text(max_size=2)
FUZZ_KINDS = st.lists(st.sampled_from(["FLB", "LC", "PSF", "InC", "flb"]), max_size=3)
CALL_SECONDS = 30


class CallTookTooLong(BaseException):
    """Raised into a fuzzed call that outlives CALL_SECONDS; no handler of the program catches it."""


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise CallTookTooLong(f"call took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def fuzzed_configs(draw):
    """FUZZ_BASE with some fields replaced, or new keys added, at any depth."""
    config = json.loads(json.dumps(FUZZ_BASE))
    for path in draw(st.lists(st.sampled_from(FUZZ_PATHS), min_size=1, max_size=3)):
        values = {("budget",): FUZZ_BUDGETS, ("kinds",): FUZZ_KINDS | FUZZ_VALUES}.get(path, FUZZ_VALUES)
        if draw(st.sampled_from([False, False, False, True])):
            path = (*path[:-1], draw(st.text(min_size=1, max_size=5)))  # a key the block does not have
        block = config
        for key in path[:-1]:
            if not isinstance(block.get(key), dict):
                block[key] = {}
            block = block[key]
        block[path[-1]] = draw(values)
    return config


@settings(max_examples=100, deadline=None)
@given(config=fuzzed_configs())
def test_fuzzed_configs_end_in_an_exit_code_not_a_traceback(config):
    commands = {
        "run": ["run"],
        "sweep-threshold": ["sweep-threshold", "--thresholds", "0,0.1"],
        "sweep-step": ["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", "0.5", "--trials", "1"],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        for name, command in commands.items():
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                with time_limit(CALL_SECONDS):
                    code = main([*command, "--config", str(path), "--out", str(Path(tmp) / name)])
            err = stderr.getvalue()
            assert code in (0, 1, 2), (name, code, err)
            assert err == "" if code == 0 else err.startswith("error: ") and err.count("\n") == 1, (name, err)


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

    def test_output_is_pinned(self, tmp_path):
        out = tmp_path / "steps.csv"
        assert main(["sweep-step", "--kind", "FLB", "--axis", "angle", "--steps", "0.05,0.1", "--trials", "3", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_STEP_CSV_DIGEST

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

    @pytest.mark.parametrize(
        ("overrides", "digest"), [({}, SWEEP_CSV_DIGEST), (NEVER_FIRES, SWEEP_CSV_NEVER_FIRES_DIGEST)],
        ids=["default", "never-fires"],
    )
    def test_the_dense_path_writes_the_pinned_csv(self, monkeypatch, tmp_path, overrides, digest):
        """The sweep judged on whole-horizon arrays and OrientedBox IoUs gives the CLI's CSV bytes, which are pinned.

        The campaign runs through sim_oracle.DenseExecutor and
        validate_seed_full. Each execution is labeled from simulate_full's
        arrays: an ignored collision when some frame overlaps and
        builtin_cd_full stays silent. At threshold 0 contact is any overlap
        frame, above it max_iou_whole_trace >= t, the peak over every overlap
        frame's OrientedBox pair with no bound, cursor or stage memo.

        On the default config no IC's peak reaches 0.05, so its rows above 0
        read tp 0. Under NEVER_FIRES every execution that touches is an IC,
        and some row above 0 splits them by their peak.
        """
        data = {**cli._SWEEP_THRESHOLD_DEFAULT, **overrides}
        out = tmp_path / "thr.csv"
        argv = ["sweep-threshold", "--thresholds", "0,0.05,0.1,0.15,0.2", "--out", str(out)]
        assert main([*argv, "--config", str(write_config(tmp_path, data))]) == 0
        config = parse_config(data)
        monkeypatch.setattr(fuzzer, "_Executor", DenseExecutor)
        monkeypatch.setattr(fuzzer, "validate_seed", validate_seed_full)
        records = run_campaign(config).records
        specs = {kind: config.seed_for(kind)[0] for kind in config.kinds}
        judged = []  # (touched, peak, fired) per execution
        for rec in records:
            arrays = simulate_full(specs[rec.kind], rec.params, config.sim)
            touched = bool(arrays.gt_overlap.any())
            judged.append((touched, max_iou_whole_trace(arrays), builtin_cd_full(arrays, config.defect)))
        lines, tps = ["threshold,tp,fp,fn,precision,recall"], []
        for t in (0.0, 0.05, 0.1, 0.15, 0.2):
            tp = fp = fn = 0
            for touched, peak, fired in judged:
                label, predicted = touched and not fired, (touched if t == 0.0 else peak >= t) and not fired
                tp, fp, fn = tp + (predicted and label), fp + (predicted and not label), fn + (label and not predicted)
            precision = f"{tp / (tp + fp):.6f}" if tp + fp else ""
            recall = f"{tp / (tp + fn):.6f}" if tp + fn else ""
            lines.append(f"{t:g},{tp},{fp},{fn},{precision},{recall}")
            tps.append(tp)
        assert len(records) == 600
        assert out.read_text() == "\n".join(lines) + "\n"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert any(0 < tp < 600 for tp in tps[1:]) is bool(overrides)

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
        # sweep-step rejects the seed too, before it writes a row
        step = ["sweep-step", "--kind", "FLB", "--axis", "speed", "--steps", "5", "--trials", "1"]
        assert main([*step, "--config", str(path), "--out", str(tmp_path / "s.csv")]) == 1
        assert_one_error_line(capsys, "seed for FLB does not produce a determined collision")
        assert not (tmp_path / "s.csv").exists()


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


_REPLAY = ["replay", "--log", "x.jsonl", "--ordinal", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        *([command, "--help"] for command in ("run", "replay", "report", "sweep-step", "sweep-threshold")),
        [],
        ["bogus"],
        ["--log", "x.jsonl", "replay"],
        ["replay", "--log", "x.jsonl"],
        ["replay", "--log", "x.jsonl", "--ordinal", "x"],
        [*_REPLAY, "--bogus"],
        [*_REPLAY, "extra"],
        [*_REPLAY, "--", "extra"],
        _REPLAY,
        ["replay", "--log", "x.jsonl", "--ord", "0"],
        ["replay", "--log=x.jsonl", "--ordinal", "-1", "--out", "t.jsonl", "--min-penetration", "0.5"],
        ["replay", "--ordinal", "0", "--log", "--", "x.jsonl"],
        ["report", "--log", "x.jsonl", "--format", "pdf", "--out", "r"],
        ["sweep-step", "--kind", "FLB", "--axis", "speed", "--steps", "1,2", "--out", "s.csv"],
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_main_parses_as_the_full_parser_does(capsys, monkeypatch, argv):
    # each command's function records the namespace it was given instead of running
    parser = cli.build_parser()
    given = []
    for command in next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices.values():
        monkeypatch.setitem(command._defaults, "func", lambda args: given.append(vars(args)) or 0)

    def full(argv):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as exc:
            return 1 if exc.code else 0

    want = full(argv)
    want_printed = capsys.readouterr()
    code = main(argv)
    assert capsys.readouterr() == want_printed
    if isinstance(want, dict):
        assert (code, given) == (0, [want])
    else:
        assert (code, given) == (want, [])


# Run in a fresh interpreter: imports the CLI, loads every config that
# perfbench's set-up loads, then runs commands that never evaluate a frame
# and prints their exit codes and whether numpy was imported.
_WITHOUT_FRAMES = """
import contextlib, io, sys
from silentcrash import cli
for name in ("reference", "tunneling", "graze"):
    cli.load_config_file(f"configs/{name}.json")
cli.parse_config(cli._SWEEP_THRESHOLD_DEFAULT)
log, out, bad = sys.argv[1:]
commands = [
    ["report", "--log", log, "--format", "csv", "--out", out],
    ["report", "--log", log, "--format", "svg", "--out", out],
    ["replay", "--log", log, "--ordinal", "999"],
    ["run", "--config", bad, "--out", out + "/run"],
    ["--help"],
    ["replay", "--help"],
    ["replay", "--log", log],
]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(command) for command in commands]
print(codes, "numpy" in sys.modules)
"""


def test_set_up_reports_and_error_exits_never_import_numpy(tmp_path):
    _, out_dir = run_mini(tmp_path, budget=20)
    bad = write_config(tmp_path, dict(MINI_CONFIG, budget=-1), name="bad.json")
    argv = [sys.executable, "-c", _WITHOUT_FRAMES, str(out_dir / "records.jsonl"), str(tmp_path / "r"), str(bad)]
    env = dict(os.environ, PYTHONPATH="src")
    done = subprocess.run(argv, cwd=CONFIG_DIR.parent, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[0, 0, 2, 1, 0, 0, 1] False\n"
    assert (tmp_path / "r" / "report.csv").exists() and (tmp_path / "r" / "report.svg").exists()


# Run in a fresh interpreter: builds the cruise stage of every shipped kind
# at d = 7, where the EV comes within d before any contact: the trigger
# search reads its window's frames and first_contact's window is empty.
# Prints each stage's trigger and first contact, and whether numpy was imported.
_TRIGGER_SEARCH = """
import sys
from silentcrash import scenario, simulator
stages = [simulator.cruise_stage(scenario.make_seed(kind)[0], 7.0) for kind in scenario.ScenarioKind]
print([(stage.trigger, stage.first_contact) for stage in stages], "numpy" in sys.modules)
"""


def test_trigger_search_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH="src")
    argv = [sys.executable, "-c", _TRIGGER_SEARCH]
    done = subprocess.run(argv, cwd=CONFIG_DIR.parent, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[(154, None), (230, None), (232, None), (119, None), (154, None), (154, None)] False\n"


def test_main_alone_prints_an_error_and_no_command_returns_a_value():
    """Every failure reaches stderr through main.

    cli.py holds one print(..., file=sys.stderr), and it is inside main;
    no cmd_* function returns a value, so each ends by returning nothing or raising.
    """
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def stderr_prints(node):
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "print"
            and any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in call.keywords)
        ]

    assert len(stderr_prints(tree)) == len(stderr_prints(functions["main"])) == 1
    commands = [node for name, node in functions.items() if name.startswith("cmd_")]
    returns = [
        f"{command.name} line {node.lineno}"
        for command in commands
        for node in ast.walk(command)
        if isinstance(node, ast.Return) and node.value is not None
    ]
    assert len(commands) == 5 and returns == []
