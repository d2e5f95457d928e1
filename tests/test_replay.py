"""`silentcrash replay`: the cruise stages and their text kept across replays, and how --out is written.

A replay keeps the cruise stages of its manifest, and one text budget keeps
each stage's trace segments and each kind's NPC side of its rows from the
trigger on, giving up the oldest first. These tests hold every replayed
trace to the bytes of the same replay with nothing kept, and to the
per-frame encoder of tests/sim_oracle.py.
"""

import contextlib
import dataclasses
import errno
import gc
import io
import json
import os
import random
import threading
import weakref
from pathlib import Path

import pytest

from conftest import CONFIG_DIR
from silentcrash import cli, detector, simulator
from silentcrash.cli import main
from silentcrash.fuzzer import OutcomeRecord
from silentcrash.oracle import ScenarioType
from silentcrash.scenario import ScenarioKind
from silentcrash.simulator import simulate, trace_to_jsonl
from sim_oracle import assert_same_text, trace_to_jsonl_per_frame

# the reference config with another frame period and a settle time short
# enough that InC at d=2, whose contact comes before its trigger, ends
# inside its cruise stage
OTHER_SIM = {"dt": 0.02, "horizon": 15.0, "settle_frames": 2}


def run(config: Path, out: Path) -> Path:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    return out / "records.jsonl"


@pytest.fixture(scope="module")
def logs(tmp_path_factory):
    """The logs of the three shipped configs and of the reference config at OTHER_SIM."""
    root = tmp_path_factory.mktemp("replay")
    found = {name: run(CONFIG_DIR / f"{name}.json", root / name) for name in ("reference", "tunneling", "graze")}
    other = json.loads((CONFIG_DIR / "reference.json").read_text())
    other["sim"] = OTHER_SIM
    (root / "other.json").write_text(json.dumps(other))
    found["other"] = run(root / "other.json", root / "other")
    return found


def records(log: Path) -> list[OutcomeRecord]:
    return cli._read_records(log)


def forget() -> None:
    """Drop the kept manifest config, with its cruise stages and their text."""
    cli._manifest_config.cache_clear()


def kept(log: Path) -> cli._Replays:
    """What replays of the log's manifest keep (what replays of another manifest kept is dropped)."""
    return cli._manifest_config((log.parent / "manifest.json").read_bytes())


def replay(log: Path, ordinal: int, out: Path, *extra: str) -> tuple[int, str, bytes | None]:
    """(exit code, stdout and stderr, bytes of out) of one replay into out."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
        code = main(["replay", "--log", str(log), "--ordinal", str(ordinal), "--out", str(out), *extra])
    return code, printed.getvalue(), out.read_bytes() if out.is_file() else None


def cold(log: Path, ordinal: int, out: Path) -> tuple[int, str, bytes | None]:
    """The replay with nothing kept from earlier replays."""
    forget()
    return replay(log, ordinal, out)


def assert_same_replay(got, want, case=None) -> None:
    """Two results of replay are equal; where their traces differ, the first differing line is named."""
    assert got[:2] == want[:2] and (got[2] is None) == (want[2] is None), case
    assert_same_text(got[2], want[2], case)


def contact_in_cruise(log: Path) -> list[int]:
    """Ordinals of the records of InC at d=2, which meet before their trigger."""
    return [rec.ordinal for rec in records(log) if rec.kind is ScenarioKind.InC and rec.params.d == 2.0]


def is_stage_key(key) -> bool:
    """Whether a key of a TextBudget is a cruise stage's segment, (stage, start, stop), rather than a kind's NPC rows."""
    return isinstance(key[0], simulator.CruiseStage)


def kept_text(log: Path) -> list[str]:
    """The cruise stages' segment text that the budget of the log's replays keeps."""
    return [text for key, (text, _) in kept(log).text.kept.items() if is_stage_key(key)]


def kept_npc_rows(log: Path) -> list[tuple[str, ...]]:
    """The NPC rows that the budget of the log's replays keeps, one tuple per kind."""
    return [rows for key, (rows, _) in kept(log).text.kept.items() if not is_stage_key(key)]


def one_per_kind(log: Path) -> list[int]:
    """The first NC ordinal of each kind: full-horizon traces, apart from the trigger on."""
    first = {}
    for rec in records(log):
        if rec.verdict is ScenarioType.NC:
            first.setdefault(rec.kind, rec.ordinal)
    return list(first.values())


def test_replays_of_four_logs_in_turn_give_the_bytes_of_replays_with_nothing_kept(logs, tmp_path):
    rng = random.Random(17)
    samples = {}
    for name, log in logs.items():
        every = records(log)
        samples[name] = rng.sample(range(len(every)), 30) + rng.sample(contact_in_cruise(log), 3)
        rng.shuffle(samples[name])
    out = tmp_path / "trace.jsonl"
    forget()
    seen = {}
    for turn in zip(*samples.values()):
        for name, ordinal in zip(samples, turn):
            seen[name, ordinal] = replay(logs[name], ordinal, out)
            assert seen[name, ordinal][0] == 0
    assert kept_text(logs[name])
    for (name, ordinal), result in seen.items():
        assert_same_replay(cold(logs[name], ordinal, out), result, (name, ordinal))


def test_a_trace_that_ends_inside_its_cruise_stage_keeps_its_bytes(logs, tmp_path):
    log = logs["other"]
    config = kept(log).config
    spec = config.seed_for(ScenarioKind.InC)[0]
    out = tmp_path / "trace.jsonl"
    forget()
    ordinals = contact_in_cruise(log)
    for ordinal in ordinals[:3] + ordinals[-2:]:
        code, _, text = replay(log, ordinal, out)
        assert code == 0
        trace = simulate(spec, records(log)[ordinal].params, config.sim)
        stage = trace.cruise
        assert stage.first_contact is not None and trace.length <= stage.trigger
        assert_same_text(text.decode(), trace_to_jsonl_per_frame(trace), ordinal)


def test_an_ic_replay_scans_its_inspected_frames_once(logs, tmp_path, monkeypatch):
    """check_ic keeps the built-in's gate count in the trace's memo and silenced_by reads it: one scan per replay."""
    log = logs["reference"]
    ordinals = [rec.ordinal for rec in records(log) if rec.verdict is ScenarioType.IC]
    scans, inspect = [], detector._inspect
    monkeypatch.setattr(detector, "_inspect", lambda trace, defect: scans.append(defect) or inspect(trace, defect))
    for ordinal in (ordinals[0], ordinals[-1]):
        del scans[:]
        code, printed, _ = cold(log, ordinal, tmp_path / "trace.jsonl")
        assert code == 0 and "verdict=IC" in printed and "silenced_by=" in printed, printed
        assert scans == [kept(log).config.defect], ordinal


def test_some_replays_match_the_per_frame_encoder(logs, tmp_path):
    out = tmp_path / "trace.jsonl"
    forget()
    for name, log in logs.items():
        config = kept(log).config
        every = records(log)
        for ordinal in (0, contact_in_cruise(log)[0], len(every) // 2, len(every) - 1, 0):
            rec = every[ordinal]
            assert replay(log, ordinal, out)[0] == 0
            trace = simulate(config.seed_for(rec.kind)[0], rec.params, config.sim)
            assert_same_text(out.read_text(), trace_to_jsonl_per_frame(trace), (name, ordinal))


def test_two_stages_of_each_kind_keep_their_bytes(logs, tmp_path):
    """Replays of each kind at two distances build two cruise stages, and each replay keeps its bytes."""
    log = logs["reference"]
    every = records(log)
    config = kept(log).config
    firsts = {}
    for rec in every:
        firsts.setdefault((rec.kind, rec.params.d), rec.ordinal)
    out = tmp_path / "trace.jsonl"
    forget()
    for kind in ScenarioKind:
        ordinals = [ordinal for (k, _), ordinal in firsts.items() if k is kind][:2]
        assert len(ordinals) == 2
        for ordinal in ordinals:
            rec = every[ordinal]
            assert replay(log, ordinal, out)[0] == 0
            trace = simulate(config.seed_for(rec.kind)[0], rec.params, config.sim)
            assert_same_text(out.read_text(), trace_to_jsonl_per_frame(trace), ordinal)
        first, second = (kept(log).stages[kind, every[ordinal].params.d] for ordinal in ordinals)
        assert first is not second
    assert len(kept(log).stages) == 12


def test_stage_text_is_kept_per_segment_start_and_stop(logs):
    """Traces of one cruise stage cut at several lengths: each segment's text is its own (start, stop)'s."""
    log = logs["reference"]
    config = kept(log).config
    rec = records(log)[contact_in_cruise(log)[0]]
    trace = simulate(config.seed_for(rec.kind)[0], rec.params, config.sim)
    stage = trace.cruise
    contact, trigger = stage.first_contact, stage.trigger
    assert contact is not None and contact < trigger < trace.length
    lengths = [1, 7, contact, contact + 1, contact + 3, trigger, trace.length, contact + 2]
    random.Random(3).shuffle(lengths)
    budget = simulator.TextBudget()
    for length in lengths:
        short = dataclasses.replace(trace, length=length, trigger_frame=trigger if trigger < length else None, memo={})
        want = trace_to_jsonl_per_frame(short)
        assert_same_text(trace_to_jsonl(short, budget), want, length)
        assert_same_text(trace_to_jsonl(short, simulator.TextBudget()), want, length)
    texts = [text for (owner, *_), (text, _) in budget.kept.items() if owner is stage]
    assert len(texts) > 2 and budget.bytes == sum(map(len, texts))


def test_a_rewritten_manifest_drops_the_stages_of_the_old_one(logs, tmp_path, monkeypatch):
    source = logs["reference"].parent
    campaign = tmp_path / "campaign"
    campaign.mkdir()
    for name in ("records.jsonl", "records.jsonl.idx", "manifest.json"):
        (campaign / name).write_bytes((source / name).read_bytes())
    log, manifest = campaign / "records.jsonl", campaign / "manifest.json"
    original = manifest.read_bytes()
    rewritten = json.loads(original)
    rewritten["config"]["sim"] = {"settle_frames": 2}
    given, built = [], []

    def recording(spec, params, cfg, cruise=None):
        given.append(cruise and weakref.ref(cruise))
        trace = simulate(spec, params, cfg, cruise)
        built.append(weakref.ref(trace.cruise))
        return trace

    monkeypatch.setattr(cli, "simulate", recording)
    ordinal = contact_in_cruise(log)[0]
    out = tmp_path / "trace.jsonl"
    forget()
    first = replay(log, ordinal, out)
    assert_same_replay(replay(log, ordinal, out), first)
    assert given[0] is None and given[1]() is built[0]()  # the second replay reused the stage
    manifest.write_bytes(json.dumps(rewritten).encode())
    shorter = replay(log, ordinal, out)
    assert given[2] is None  # the rewritten manifest's replay built its own stage
    gc.collect()
    assert built[0]() is None  # and nothing holds the old one
    assert len(shorter[2]) < len(first[2])
    assert_same_replay(shorter, cold(log, ordinal, out))
    manifest.write_bytes(original)
    assert_same_replay(replay(log, ordinal, out), first)


def test_kept_text_stays_within_its_budget_and_replays_past_it_keep_their_bytes(logs, tmp_path, monkeypatch):
    budget = 150_000
    monkeypatch.setattr(simulator, "CRUISE_TEXT_BUDGET", budget)
    log = logs["reference"]
    ordinals = list(range(0, len(records(log)), 23))
    random.Random(5).shuffle(ordinals)
    out = tmp_path / "trace.jsonl"
    forget()
    seen = {}
    stages = set()
    for ordinal in ordinals:
        seen[ordinal] = replay(log, ordinal, out)
        assert seen[ordinal][0] == 0
        texts, replays = kept_text(log), kept(log)
        assert sum(map(len, texts)) == replays.text.bytes <= budget
        assert all(len(text) <= budget for text in texts)
        stages.update(replays.stages.values())
    # more text than fits: some stages gave theirs up
    holding = {key[0] for key in kept(log).text.kept}
    assert len(stages) > 10 and any(stage not in holding for stage in stages) and texts
    for ordinal, result in seen.items():
        assert_same_replay(cold(log, ordinal, out), result, ordinal)


class TestOut:
    """How replay writes --out: over the old bytes, then cut to the new length."""

    @pytest.fixture()
    def log(self, logs):
        forget()
        return logs["reference"]

    def test_a_longer_old_trace_is_cut_to_the_new_length(self, log, tmp_path):
        fresh = replay(log, 13, tmp_path / "fresh.jsonl")
        out = tmp_path / "trace.jsonl"
        out.write_bytes(b"x" * (3 * len(fresh[2])))
        assert_same_text(replay(log, 13, out)[2], fresh[2])
        out.write_bytes(b"y" * 10)
        assert_same_text(replay(log, 13, out)[2], fresh[2])

    def test_dev_null_is_written_and_not_cut(self, log):
        code, printed, _ = replay(log, 13, Path(os.devnull))
        assert code == 0 and printed.startswith("ordinal=13 ")

    def test_a_fifo_is_written_and_not_cut(self, log, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        code, printed, _ = replay(log, 13, fifo)
        reader.join(timeout=60)
        assert code == 0 and printed.startswith("ordinal=13 ")
        assert len(got) == 1
        assert_same_text(got[0], replay(log, 13, tmp_path / "fresh.jsonl")[2])

    def test_a_symlink_updates_its_target(self, log, tmp_path):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        target.write_bytes(b"z" * 10**6)
        link.symlink_to(target)
        assert replay(log, 13, link)[0] == 0
        assert link.is_symlink()
        assert_same_text(target.read_bytes(), replay(log, 13, tmp_path / "fresh.jsonl")[2])

    def test_a_directory_is_an_io_error(self, log, tmp_path):
        code, printed, _ = replay(log, 13, tmp_path)
        assert code == 2 and printed == f"error: cannot write {tmp_path}: Is a directory\n"

    def test_a_write_that_fails_midway_leaves_no_old_bytes_past_the_new_ones(self, log, tmp_path, monkeypatch):
        fresh = replay(log, 5229, tmp_path / "fresh.jsonl")[2]
        out = tmp_path / "trace.jsonl"
        out.write_bytes(b"o" * (2 * len(fresh)))
        inode, write, calls = out.stat().st_ino, os.write, []

        def failing(fd, data):
            if os.fstat(fd).st_ino != inode:
                return write(fd, data)
            calls.append(len(data))
            if len(calls) == 1:
                return write(fd, bytes(data[: len(data) // 3]))
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "write", failing)
        code, printed, left = replay(log, 5229, out)
        assert code == 2 and printed == f"error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n"
        assert len(calls) == 2 and left == fresh[: len(fresh) // 3]


def test_npc_rows_are_kept_once_per_kind_and_count_against_the_budget(logs, tmp_path, monkeypatch):
    log = logs["reference"]
    ordinals = one_per_kind(log)
    spelled, spell = [], simulator._spell_npc_rows
    monkeypatch.setattr(simulator, "_spell_npc_rows", lambda *args: spelled.append(args) or spell(*args))
    out = tmp_path / "trace.jsonl"
    forget()
    for ordinal in ordinals * 2:
        assert replay(log, ordinal, out)[0] == 0
    rows, budget = kept_npc_rows(log), kept(log).text
    assert len(ordinals) == len(rows) == len(spelled) == 6
    assert all(len(kind_rows) == 1501 for kind_rows in rows)
    assert budget.bytes == sum(map(len, kept_text(log))) + sum(len(row) for kind_rows in rows for row in kind_rows)
    config = kept(log).config
    for ordinal in ordinals:
        rec = records(log)[ordinal]
        trace = simulate(config.seed_for(rec.kind)[0], rec.params, config.sim)
        assert_same_text(replay(log, ordinal, out)[2].decode(), trace_to_jsonl_per_frame(trace), ordinal)


def test_a_budget_smaller_than_a_kinds_npc_rows_keeps_none_of_them_and_replays_keep_their_bytes(
    logs, tmp_path, monkeypatch
):
    log = logs["reference"]
    ordinals = one_per_kind(log) + random.Random(11).sample(range(len(records(log))), 20)
    out = tmp_path / "trace.jsonl"
    forget()
    seen = {ordinal: replay(log, ordinal, out) for ordinal in ordinals}
    smallest = min(size for key, (_, size) in kept(log).text.kept.items() if not is_stage_key(key))
    monkeypatch.setattr(simulator, "CRUISE_TEXT_BUDGET", smallest - 1)
    spelled, spell = [], simulator._spell_npc_rows
    monkeypatch.setattr(simulator, "_spell_npc_rows", lambda *args: spelled.append(args) or spell(*args))
    forget()
    for ordinal in ordinals * 2:
        assert_same_replay(replay(log, ordinal, out), seen[ordinal], ordinal)
    budget = kept(log).text
    assert not kept_npc_rows(log) and kept_text(log)
    assert budget.bytes == sum(map(len, kept_text(log))) <= smallest - 1
    # each kind's rows were spelled once, found too long, and not spelled again
    assert len(spelled) == len(budget.too_long) == 6


def test_a_rewritten_manifest_drops_the_npc_rows_of_the_old_one(logs, tmp_path):
    source = logs["reference"].parent
    campaign = tmp_path / "campaign"
    campaign.mkdir()
    for name in ("records.jsonl", "records.jsonl.idx", "manifest.json"):
        (campaign / name).write_bytes((source / name).read_bytes())
    log, manifest = campaign / "records.jsonl", campaign / "manifest.json"
    rewritten = json.loads(manifest.read_bytes())
    rewritten["config"]["sim"] = {"settle_frames": 2}
    ordinal = one_per_kind(log)[0]
    out = tmp_path / "trace.jsonl"
    forget()
    first = replay(log, ordinal, out)
    old_budget, (old_rows,) = weakref.ref(kept(log).text), kept_npc_rows(log)
    manifest.write_bytes(json.dumps(rewritten).encode())
    again = replay(log, ordinal, out)
    (new_rows,) = kept_npc_rows(log)
    assert new_rows is not old_rows and new_rows == old_rows  # settle_frames does not reach an NC trace's rows
    gc.collect()
    assert old_budget() is None  # nothing holds the old manifest's budget, and so its rows
    assert_same_replay(again, first)
    assert_same_replay(first, cold(log, ordinal, out))
