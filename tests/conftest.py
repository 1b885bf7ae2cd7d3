"""Shared fixtures and the acceptance-criteria reporting hook."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from magma_lab import Field, TorusGrid

settings.register_profile(
    "magma",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("magma")

# a 1d or 2d torus of 4 to 32 points per axis with sides in [1, 20]
SMALL_GRIDS = st.integers(1, 2).flatmap(lambda d: st.builds(
    TorusGrid,
    st.lists(st.integers(2, 16).map(lambda m: 2 * m), min_size=d, max_size=d).map(tuple),
    st.lists(st.floats(1.0, 20.0), min_size=d, max_size=d).map(tuple),
))


def smooth_random_field(
    grid: TorusGrid, rng: np.random.Generator, amplitude: float = 0.3, modes: int = 5
) -> Field:
    """Background 1 plus a few random low modes; amplitude bounds the dip."""
    vals = np.ones(grid.shape)
    coords = grid.coordinates()
    total = sum(1.0 / m for m in range(1, modes + 1))
    for m in range(1, modes + 1):
        phase = np.zeros(grid.shape)
        for axis, x in enumerate(coords):
            k = 2.0 * np.pi * rng.integers(-m, m + 1) / grid.lengths[axis]
            phase = phase + k * x
        vals = vals + (amplitude / (m * total)) * np.cos(phase + rng.uniform(0, 2 * np.pi))
    return Field(grid, vals)


def criterion7_phi0(seed: int) -> Field:
    """Criterion 7's initial data: five random-phase modes of amplitude 0.08/m."""
    g = TorusGrid((256,), (2.0 * np.pi,))
    rng = np.random.default_rng(seed)
    x = g.axis_coordinates(0)
    vals = np.ones(g.shape)
    for m in range(1, 6):
        vals += (0.08 / m) * np.cos(m * x + rng.uniform(0.0, 2.0 * np.pi))
    return Field(g, vals)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


# -- acceptance criteria reporting -------------------------------------------

_CRITERIA: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "criterion(num, description): acceptance criterion verified by this test",
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    num, description = marker.args
    if report.when == "call":
        status = "PASS" if report.passed else "FAIL"
        _CRITERIA[num] = (status, description)
    elif report.when == "setup" and not report.passed:
        status = "SKIP" if report.skipped else "FAIL"
        _CRITERIA[num] = (status, description)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_CRITERIA):
        status, description = _CRITERIA[num]
        terminalreporter.write_line(f"criterion {num:2d}: {status} - {description}")
