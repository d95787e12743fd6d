import numpy as np
import pytest

from conftest import sample_flat, sample_sphere, tiny_validity_geometry
from magtube import flow
from magtube import oracles as orc
from magtube.flow import flow_many
from magtube.intertwine import (
    _nu_pushforward,
    check_flow_reversal,
    check_frame_intertwine,
    check_shifted_frame_intertwine,
)
from magtube.structure import frame_at, subspace_distance
from magtube.suites import suite_intertwine

ZF = np.array([[0.2, 0.1, 0.6, -0.3]])
ZS = np.array([[0.1, -0.05, 0.3, 0.2]])


def test_flow_reversal_geodesic(flat_geo_free):
    # beta = 0: plain time reversal of the geodesic flow
    res = check_flow_reversal(flat_geo_free, np.array([[0.0, 0.0, 1.0, 0.0]]), 0.7)
    assert res.shape == (1,) and res[0] < 1e-10


def test_flow_reversal_flat(flat_geo, rng):
    assert check_flow_reversal(flat_geo, sample_flat(rng, 6), 0.7).max() < 1e-9


def test_flow_reversal_flat_closed_form(rng):
    # both sides evaluated on the closed-form flow alone
    for row in sample_flat(rng, 10):
        lhs = orc.flat_flow_oracle(-1.0, 1.0, np.concatenate([row[:2], -row[2:]]), 0.7)
        lhs = np.concatenate([lhs[:2], -lhs[2:]])
        rhs = orc.flat_flow_oracle(1.0, 1.0, row, -0.7)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_flow_reversal_sphere(sphere_geo, rng):
    assert check_flow_reversal(sphere_geo, sample_sphere(rng, 5), 0.5).max() < 1e-8


def test_frame_intertwine_geodesic(flat_geo_free):
    assert check_frame_intertwine(flat_geo_free, ZF)[0] < 1e-8


def test_frame_intertwine_flat(flat_geo):
    assert check_frame_intertwine(flat_geo, ZF)[0] < 1e-7


def test_frame_intertwine_sphere(sphere_geo):
    assert check_frame_intertwine(sphere_geo, ZS)[0] < 1e-6


def test_shifted_intertwine(flat_geo, sphere_geo):
    assert check_shifted_frame_intertwine(flat_geo, ZF, 0.3 + 0.8j)[0] < 1e-6
    assert check_shifted_frame_intertwine(sphere_geo, ZS, 0.3 + 0.8j)[0] < 1e-6


def test_inversion_is_involution(flat_geo):
    nu = _nu_pushforward(2)
    assert np.array_equal(nu @ nu, np.eye(4))
    assert np.array_equal(ZF @ nu, np.array([[0.2, 0.1, -0.6, 0.3]]))
    F, _ = frame_at(flat_geo, ZF[0], 1j)
    assert subspace_distance(nu @ (nu @ F), F) < 1e-10


def test_explicit_minus_geometry_agrees(flat_geo, rng):
    # the -beta chart the checks use (beta and A negated) flows exactly as an
    # explicitly built -beta chart, whose A is another gauge of -beta
    from magtube.geometry import make_flat_magnetic

    minus = make_flat_magnetic(2, [[0.0, -1.0], [1.0, 0.0]], 1.0)
    Z = sample_flat(rng, 3)
    auto = flow_many(flat_geo.with_negated_field(), Z, 0.6, tangent=False)
    expl = flow_many(minus, Z, 0.6, tangent=False)
    assert np.abs(np.concatenate([auto.x - expl.x, auto.p - expl.p], axis=1)).max() < 1e-12


CHECKS = [(check_flow_reversal, 0.5), (check_frame_intertwine, 1j),
          (check_shifted_frame_intertwine, 0.3 + 0.8j)]


@pytest.mark.parametrize("check, t", CHECKS)
def test_batched_check_matches_one_row_calls(sphere_geo, rng, check, t):
    Z = sample_sphere(rng, 4)
    batched = check(sphere_geo, Z, t)
    single = np.array([check(sphere_geo, Z[i:i + 1], t)[0] for i in range(len(Z))])
    assert batched.shape == (4,)
    assert np.abs(batched - single).max() < 1e-12


@pytest.mark.parametrize("check, t", CHECKS)
def test_failed_row_is_a_nonfinite_defect(check, t):
    # the chart has a complex singularity near the real chart: the row at
    # p = 2.5 fails, the row at p = 0.1 is computed
    Z = np.array([[0.0, 0.0, 0.1, 0.0], [0.0, 0.0, 2.5, 0.0]])
    defect = check(tiny_validity_geometry(), Z, t)
    assert np.isfinite(defect[0]) and not np.isfinite(defect[1])


def test_suite_intertwine_batches_its_flows(monkeypatch):
    # the intertwine suite flows its sample rows in batches: only the
    # single-point checks make one-row flows
    original = flow._integrate_path
    one_row = []

    def counting(geo, Z0, *args, **kwargs):
        one_row.append(len(Z0) == 1)
        return original(geo, Z0, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_path", counting)
    checks, _ = suite_intertwine(1234)
    monkeypatch.undo()
    assert flow._integrate_path is original
    assert all(c.passed for c in checks)
    assert sum(one_row) <= 15
