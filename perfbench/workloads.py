"""The three benchmark workloads, each driven in-process through `cli.main`.

Every workload is a closed loop with one caller: an op starts only after the
previous one returned. A workload is measured in passes, and every pass of a
run does the same work in the same order. `run_pass` runs the calls into
silentcrash on the pass's `HostClock`, records the timed calls that make up
each op, and checks the outputs afterwards, with the clock stopped.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import HostClock
from silentcrash import cli, fuzzer, oracle

REFERENCE_CONFIG = "configs/reference.json"
# sha256 of the reference campaign outputs at the first benchmarked commit;
# ROADMAP requires these bytes to stay identical for a given config
REFERENCE_DIGESTS = {
    "records.jsonl": "d6b1e78f5353ccd5a6d090e2760f0c4771bb3aa68369f05a5fd0963a35c08f75",
    "manifest.json": "c9906cc7bc8e3026431dbfb7dd0c2c3e64fbff2b80946aa3a8d0455baa304260",
}
SWEEP_THRESHOLDS = "0,0.05,0.1,0.15,0.2"
SWEEP_CSV_DIGEST = "48efd22cfa844f7cc711c0cf505c17c1bf3c2476ce073c948da43a1f528107d2"
REPLAY_BATCH = 200


# (seconds, HostClock segment it ended in) of one timed call
Call = tuple[float, int]


@dataclass
class PassResult:
    """One pass: each op as the timed calls it is made of, and how many ops failed their check."""

    ops: list[list[Call]]
    failed: int


@contextlib.contextmanager
def _calls(clock: HostClock, owner, attr: str):
    """Collect the Call of every call to owner.attr while active, and let the clock calibrate after each."""
    original = getattr(owner, attr)
    sink: list[Call] = []

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append((perf_counter() - start, clock.segment))
            clock.tick()

    setattr(owner, attr, timed)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def _quiet_main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _run_campaign_process(root: Path, out: Path) -> None:
    """`silentcrash run` on the reference config in a child interpreter."""
    code = (
        "import sys; sys.path.insert(0, 'src'); from silentcrash import cli; "
        f"sys.exit(cli.main(['run', '--config', {REFERENCE_CONFIG!r}, '--out', {str(out)!r}]))"
    )
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, capture_output=True)


class CampaignReference:
    """`silentcrash run --config configs/reference.json`: 5230 executions.

    An op is one guided execution (`fuzzer._Executor.run`: simulate,
    classify, build the record).
    """

    name = "campaign-reference"
    setup_code = f"cli.load_config_file({REFERENCE_CONFIG!r})"

    def __init__(self, root: Path, work: Path, seed: int):
        self.config = root / REFERENCE_CONFIG
        self.out = work / "campaign"

    def run_pass(self, clock: HostClock) -> PassResult:
        argv = ["run", "--config", str(self.config), "--out", str(self.out)]
        with _calls(clock, fuzzer._Executor, "run") as executions:
            (code, _), _ = clock.run(_quiet_main, argv)
        ops = [[call] for call in executions] or [[]]
        digests_ok = all(_sha256(self.out / f) == d for f, d in REFERENCE_DIGESTS.items())
        return PassResult(ops, 0 if code == 0 and digests_ok else len(ops))


class ThresholdSweep:
    """`silentcrash sweep-threshold` with the default config: 600 executions.

    An op is one execution carried through the whole sweep: its guided
    execution, its re-simulation and labelling, and its scoring at every
    threshold. Its latency is the sum of those calls for that trace.
    """

    name = "threshold-sweep"
    setup_code = "cli.parse_config(cli._SWEEP_THRESHOLD_DEFAULT)"

    def __init__(self, root: Path, work: Path, seed: int):
        self.csv = work / "sweep.csv"
        self.thresholds = len(SWEEP_THRESHOLDS.split(","))

    def run_pass(self, clock: HostClock) -> PassResult:
        argv = ["sweep-threshold", "--thresholds", SWEEP_THRESHOLDS, "--out", str(self.csv)]
        with contextlib.ExitStack() as stack:
            executions = stack.enter_context(_calls(clock, fuzzer._Executor, "run"))
            # the re-simulation loop in cmd_sweep_threshold, one call each per trace
            stages = [stack.enter_context(_calls(clock, cli, attr)) for attr in ("simulate", "ground_truth", "builtin_cd")]
            # recall_sweep scores every trace at one threshold, then the next
            scores = stack.enter_context(_calls(clock, oracle, "check_ic"))
            (code, _), _ = clock.run(_quiet_main, argv)
        n = len(executions)
        shape_ok = n > 0 and all(len(stage) == n for stage in stages) and len(scores) == n * self.thresholds
        if not shape_ok:
            return PassResult([[]], 1)
        ops = [[executions[i], *(stage[i] for stage in stages), *scores[i::n]] for i in range(n)]
        ok = code == 0 and _sha256(self.csv) == SWEEP_CSV_DIGEST
        return PassResult(ops, 0 if ok else n)


class ReplayMixed:
    """`silentcrash replay` of a seeded, stratified sample of the reference log.

    The seed draws REPLAY_BATCH ordinals, in a seeded order, once per run, and
    every pass replays that batch in that order. The batch keeps the log's
    share of non-collision ordinals (full-horizon traces). The collision
    ordinals are drawn one from each of equal strata of the collision records
    sorted by trace length, so another seed changes which records replay but
    barely the work a pass does. An op is one replay command.
    """

    name = "replay-mixed"
    setup_code = f"cli.load_config_file({REFERENCE_CONFIG!r})"

    def __init__(self, root: Path, work: Path, seed: int):
        self.log = work / "reference" / "records.jsonl"
        self.trace = work / "trace.jsonl"
        _run_campaign_process(root, self.log.parent)
        if _sha256(self.log) != REFERENCE_DIGESTS["records.jsonl"]:
            raise RuntimeError(f"{self.log} does not match the reference campaign digest")
        dt = json.loads((self.log.parent / "manifest.json").read_text())["config"]["sim"]["dt"]
        # keep only what the checks need, one record at a time, so that the
        # harness adds little to the process's peak memory
        self.verdicts, self.frames = [], []
        with self.log.open() as fh:
            for line in fh:
                rec = json.loads(line)
                self.verdicts.append(rec["verdict"])
                # frames in the replayed trace: times run from 0 to sim_seconds in steps of dt
                self.frames.append(int(round(rec["sim_seconds"] / dt)) + 1)
        self.batch = self._draw_batch(random.Random(seed))

    def _draw_batch(self, rng: random.Random) -> list[int]:
        nc = [i for i, verdict in enumerate(self.verdicts) if verdict == "NC"]
        contact = sorted((self.frames[i], i) for i, verdict in enumerate(self.verdicts) if verdict != "NC")
        n_nc = round(REPLAY_BATCH * len(nc) / len(self.verdicts))
        strata = REPLAY_BATCH - n_nc
        batch = rng.sample(nc, n_nc)
        for k in range(strata):
            stratum = contact[k * len(contact) // strata : (k + 1) * len(contact) // strata]
            batch.append(rng.choice(stratum)[1])
        rng.shuffle(batch)
        return batch

    def run_pass(self, clock: HostClock) -> PassResult:
        ops, failed = [], 0
        for ordinal in self.batch:
            argv = ["replay", "--log", str(self.log), "--ordinal", str(ordinal), "--out", str(self.trace)]
            (code, printed), call = clock.run(_quiet_main, argv)
            ops.append([call])
            if not self._replay_ok(ordinal, code, printed):
                failed += 1
        return PassResult(ops, failed)

    def _replay_ok(self, ordinal: int, code: int, printed: str) -> bool:
        if code != 0 or f"verdict={self.verdicts[ordinal]} " not in printed:
            return False
        with self.trace.open() as fh:
            return sum(1 for _ in fh) == self.frames[ordinal]


WORKLOADS = {w.name: w for w in (CampaignReference, ReplayMixed, ThresholdSweep)}
