import dataclasses

import numpy as np
import pytest

from magtube.geometry import make_flat_magnetic, make_sphere_magnetic, pointwise_geometry

SEED = 20240811


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
    continuation fails once |p| is large."""
    return pointwise_geometry(
        dim=2,
        inv_metric=lambda x: np.eye(2) / (1.0 - (x[0] ** 2 + x[1] ** 2)),
        beta=lambda x: np.array([[0.0, 1.0], [-1.0, 0.0]]),
        potential=lambda x: 0.5 * np.array([-x[1], x[0]]),
        chart_box=0.9,
        complex_radius=0.7,
        inv_metric_deriv=lambda x: np.einsum(
            "jk,l->jkl", np.eye(2), 2.0 * x / (1.0 - (x[0] ** 2 + x[1] ** 2)) ** 2
        ),
        name="tight",
    )


def patch_chart(monkeypatch, name, wrap):
    """Replace the suites' table chart ``name`` by one whose geometry is
    ``wrap`` of the one it builds, for the rest of the test."""
    from magtube import suites

    chart = suites._CHARTS[name]
    monkeypatch.setitem(suites._CHARTS, name, chart._replace(build=lambda: wrap(chart.build())))
