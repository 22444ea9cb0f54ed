"""Shared fixtures: the default run configuration and objects derived from it."""

import pytest

from n2sr.config import (
    RunConfig,
    calibration,
    dephasing_parameters,
    dt_seconds,
    medium_template,
    seed_pulse,
)
from n2sr.pressure import medium_at_pressure


@pytest.fixture(scope="session")
def cfg():
    return RunConfig()


@pytest.fixture(scope="session")
def seed(cfg):
    return seed_pulse(cfg)


@pytest.fixture(scope="session")
def dt(cfg):
    """The configured seed-stage step, in seconds."""
    return dt_seconds(cfg)


@pytest.fixture(scope="session")
def template(cfg):
    """Medium with every parameter set except the density (N = 0)."""
    return medium_template(cfg)


@pytest.fixture(scope="session")
def cal(cfg):
    return calibration(cfg)


@pytest.fixture(scope="session")
def dephasing(cfg):
    return dephasing_parameters(cfg)


@pytest.fixture(scope="session")
def anchor_medium(cal, template):
    """Medium at the anchor pressure (8 mbar)."""
    return medium_at_pressure(cal, template, cal.anchor_p)
