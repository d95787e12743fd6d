import signal

import numpy as np
import pytest

from magtube.geometry import ChartedGeometry, make_flat_magnetic, make_sphere_magnetic

SEED = 20240811
TIME_LIMIT = 60  # seconds per test; the slowest takes under one


@pytest.fixture(autouse=True)
def _time_limit():
    """Fail a test that runs past TIME_LIMIT instead of stalling the run
    (POSIX only: SIGALRM)."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"test ran past its {TIME_LIMIT} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def flat_geo():
    """Unit field, unit mass-frequency plane: Btilde = B = 1."""
    return make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 1.0)


@pytest.fixture(scope="session")
def flat_geo_heavy():
    """B = 1, mass_freq = 0.5, so Btilde = 2: separates B from Btilde."""
    return make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 0.5)


@pytest.fixture(scope="session")
def flat_geo_free():
    """No magnetic field: the geodesic (straight line) case."""
    return make_flat_magnetic(2, [[0.0, 0.0], [0.0, 0.0]], 1.0)


@pytest.fixture(scope="session")
def sphere_geo():
    return make_sphere_magnetic(1.0, 1.0)


@pytest.fixture()
def rng():
    return np.random.default_rng(SEED)


def sample_flat(rng, m, xmax=0.8, pmax=1.2):
    return np.concatenate(
        [rng.uniform(-xmax, xmax, (m, 2)), rng.uniform(-pmax, pmax, (m, 2))], axis=1
    )


def sample_sphere(rng, m, umax=0.14, pmax=0.4):
    return np.concatenate(
        [rng.uniform(-umax, umax, (m, 2)), rng.uniform(-pmax, pmax, (m, 2))], axis=1
    )


def tiny_validity_geometry():
    """Analytic data with a complex singularity close to the real chart:
    continuation fails once |p| is large.  Broadcasting evaluators; the jet
    composes the second derivatives by contour."""
    def inv_metric(x):
        return np.eye(2) / (1.0 - (x[..., 0] ** 2 + x[..., 1] ** 2))[..., None, None]

    def inv_metric_deriv(x):  # [..., j, k, l] = delta_jk 2 x_l / (1 - |x|^2)^2
        s = 2.0 / (1.0 - (x[..., 0] ** 2 + x[..., 1] ** 2)) ** 2
        return np.eye(2)[:, :, None] * (s[..., None] * x)[..., None, None, :]

    return ChartedGeometry(
        dim=2,
        inv_metric=inv_metric,
        inv_metric_deriv=inv_metric_deriv,
        beta=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]) * np.ones(np.shape(x)[:-1] + (1, 1)),
        potential=lambda x: 0.5 * np.stack([-x[..., 1], x[..., 0]], axis=-1),
        chart_box=0.9,
        complex_radius=0.7,
        name="tight",
    )


def patch_chart(monkeypatch, name, wrap):
    """Replace the suites' table chart ``name`` by one whose geometry is
    ``wrap`` of the one it builds, for the rest of the test."""
    from magtube import suites

    chart = suites._CHARTS[name]
    monkeypatch.setitem(suites._CHARTS, name, chart._replace(build=lambda: wrap(chart.build())))
