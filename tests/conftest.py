"""Suite-wide fixtures and deterministic hypothesis settings."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from proxigmm import OutcomeBridge, ScenarioConfig, generate, simulation

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(autouse=True)
def fresh_worker_pool():
    """Retire the kept replication pool before and after every test.

    Workers see module state as of their fork, so a test that patches
    ``generate`` or ``BASELINES`` gets workers forked after its patch, and
    no test's workers outlive it.
    """
    simulation._retire_pool()
    yield
    simulation._retire_pool()


@pytest.fixture(scope="session")
def scenario1_ds():
    """One homoskedastic-design draw, reused wherever any real dataset works."""
    return generate(ScenarioConfig(scenario="I", n=400), 0, 0)


@pytest.fixture(scope="session")
def scenario2_ds():
    """One heteroskedastic-design draw for tests that need curvature in x."""
    return generate(ScenarioConfig(scenario="II", n=400), 0, 0)


@pytest.fixture(scope="session")
def linear_bridge():
    return OutcomeBridge.linear(1, 1)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
