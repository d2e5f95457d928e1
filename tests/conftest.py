import dataclasses
import time
from pathlib import Path

import pytest

from silentcrash.config import load_config_file
from silentcrash.detector import PERFECT_DETECTOR
from silentcrash.fuzzer import AngleMode, MutatorKind, run_campaign

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="session")
def reference_config():
    config, _, _ = load_config_file(CONFIG_DIR / "reference.json")
    return config


@pytest.fixture(scope="session")
def reference_result(reference_config):
    t0 = time.perf_counter()
    result = run_campaign(reference_config)
    result.wall_seconds = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def perfect_result(reference_config):
    config = dataclasses.replace(reference_config, defect=PERFECT_DETECTOR)
    return run_campaign(config)


@pytest.fixture(scope="session")
def random_result(reference_config):
    config = dataclasses.replace(reference_config, mutator=MutatorKind.RANDOM)
    return run_campaign(config)


@pytest.fixture(scope="session")
def nc_start_result(reference_config):
    config = dataclasses.replace(reference_config, mutator=MutatorKind.NC_START)
    return run_campaign(config)


@pytest.fixture(scope="session")
def per_axis_result(reference_config):
    plans = {k: dataclasses.replace(p, angle_mode=AngleMode.PER_AXIS) for k, p in reference_config.plans.items()}
    return run_campaign(dataclasses.replace(reference_config, plans=plans))


@pytest.fixture(scope="session")
def tunneling_result():
    config, _, _ = load_config_file(CONFIG_DIR / "tunneling.json")
    return run_campaign(config)


@pytest.fixture(scope="session")
def graze_result():
    config, _, _ = load_config_file(CONFIG_DIR / "graze.json")
    return run_campaign(config)
