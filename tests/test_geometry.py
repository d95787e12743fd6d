import dataclasses
import warnings

import numpy as np
import pytest

from conftest import patch_chart
from magtube.geometry import (
    GeometryError,
    conformal_factor,
    energy,
    make_flat_magnetic,
    make_sphere_magnetic,
    stereographic_frame,
    stereographic_point,
    twisted_symplectic_matrix,
    validate_geometry,
)


@pytest.mark.parametrize("chart", ["flat", "sphere"])
def test_builtin_evaluators_give_a_nan_point_nan(chart, flat_geo, sphere_geo):
    # a failed row is complex NaN: every evaluator gives it NaN in every
    # entry, in both parts, with no warning (RuntimeWarning is an error),
    # and gives the finite row beside it what it gives alone
    geo = flat_geo if chart == "flat" else sphere_geo
    x = np.array([[0.1, -0.2], [complex(np.nan, np.nan)] * 2])
    for fn in geo.evaluators:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = fn(x)
            assert np.isnan(both[1].real).all() and np.isnan(both[1].imag).all()
            assert both[0].tobytes() == fn(x[0]).tobytes()


def test_flat_energy_definition(flat_geo):
    # E(0,0,1,0) = |p|^2 / (2 mass_freq) = 0.5
    assert energy(flat_geo, np.zeros(2), np.array([1.0, 0.0])) == pytest.approx(0.5)


def test_flat_scaled_field_ratio(flat_geo_heavy):
    # beta . g carries the working ratio B/mass_freq = 2
    x = np.array([0.3, -0.7])
    Q = flat_geo_heavy.beta(x) @ flat_geo_heavy.inv_metric(x)
    assert np.allclose(Q, [[0.0, 2.0], [-2.0, 0.0]])


def test_flat_potential_gauge(flat_geo, rng):
    # A_j = (1/2) B_{kj} x^k, so dA = B exactly for the linear gauge
    for _ in range(10):
        x = rng.uniform(-2, 2, 2)
        A = flat_geo.potential(x)
        assert np.allclose(A, [-0.5 * x[1], 0.5 * x[0]])


def test_flat_rejects_bad_input():
    with pytest.raises(GeometryError):
        make_flat_magnetic(2, [[0.0, 1.0], [1.0, 0.0]], 1.0)  # not antisymmetric
    with pytest.raises(GeometryError):
        make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 0.0)
    with pytest.raises(GeometryError):
        make_sphere_magnetic(-1.0, 1.0)


def test_sphere_metric_at_origin(sphere_geo):
    # round metric in the chart: g_{jk} = 4 r^4 (r^2 + |u|^2)^{-2} delta_{jk}
    ginv = sphere_geo.inv_metric(np.zeros(2))
    assert np.allclose(ginv, np.eye(2) / 4.0)
    u = np.array([0.3, -0.1])
    lam = conformal_factor(u, 1.0)
    assert np.allclose(sphere_geo.inv_metric(u), np.eye(2) / lam)


def test_sphere_beta_matches_pullback(sphere_geo, rng):
    # chart field against the explicit pullback of the invariant 2-form
    r, B = 1.0, 1.0
    u = rng.uniform(-0.45, 0.45, (30, 2))
    E3 = stereographic_frame(u, r)
    x3 = stereographic_point(u, r)
    pulled = (B / r) * np.einsum("mi,mi->m", x3, np.cross(E3[:, :, 0], E3[:, :, 1]))
    assert np.abs(sphere_geo.beta(u)[:, 0, 1] - pulled).max() < 1e-12
    # orientation: equals -B times the area density
    assert np.allclose(sphere_geo.beta(u)[:, 0, 1], -B * conformal_factor(u, r))


def test_sphere_flux_is_4_pi_r_squared_B():
    # quadrature of the invariant 2-form over the whole sphere (r=2, B=0.5)
    r, B = 2.0, 0.5
    nodes, weights = np.polynomial.legendre.leggauss(64)
    th = 0.5 * np.pi * (nodes + 1.0)
    ph = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    xs = r * np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], -1)
    x_th = r * np.stack([np.cos(TH) * np.cos(PH), np.cos(TH) * np.sin(PH), -np.sin(TH)], -1)
    x_ph = r * np.stack([-np.sin(TH) * np.sin(PH), np.sin(TH) * np.cos(PH), 0 * TH], -1)
    mu = np.einsum("tpi,tpi->tp", xs, np.cross(x_th, x_ph))
    flux = (B / r) * float((0.5 * np.pi * weights) @ mu.sum(axis=1) * (2 * np.pi / 256))
    assert flux == pytest.approx(4 * np.pi * r**2 * B, abs=1e-9)


def test_validate_flat(flat_geo, rng):
    report = validate_geometry(flat_geo, rng.uniform(-1, 1, (100, 2)))
    assert report.passed
    assert max(report.residuals[k] for k in ("metric_symmetry", "beta_antisymmetry",
                                             "reality", "exterior_derivative",
                                             "inv_metric_deriv")) < 1e-10


def test_validate_sphere_near_edge(sphere_geo, rng):
    samples = rng.uniform(-0.45, 0.45, (60, 2))
    report = validate_geometry(sphere_geo, samples)
    assert report.passed
    assert report.residuals["exterior_derivative"] < 1e-9


def test_validate_checks_reality_of_second_derivatives(sphere_geo, rng):
    for name in ("inv_metric_deriv2", "beta_deriv"):
        fn = getattr(sphere_geo, name)
        bad = dataclasses.replace(sphere_geo, **{name: lambda u, _fn=fn: _fn(u) + 1e-6j})
        report = validate_geometry(bad, rng.uniform(-0.3, 0.3, (20, 2)))
        assert "reality" in report.failures
        assert report.residuals["reality"] == pytest.approx(1e-6)


def test_validate_flags_corrupted_potential(sphere_geo, rng):
    bad = dataclasses.replace(
        sphere_geo, potential=lambda u, _p=sphere_geo.potential: 1.01 * _p(u)
    )
    report = validate_geometry(bad, rng.uniform(-0.3, 0.3, (20, 2)))
    assert not report.passed
    assert "exterior_derivative" in report.failures
    assert report.residuals["exterior_derivative"] > 1e-6


def test_validate_rejects_out_of_chart_samples(sphere_geo):
    with pytest.raises(GeometryError):
        validate_geometry(sphere_geo, np.array([[5.0, 0.0]]))


def test_evaluators_real_on_real_points(flat_geo, sphere_geo, rng):
    for geo, scale in ((flat_geo, 1.0), (sphere_geo, 0.4)):
        x = rng.uniform(-scale, scale, (20, 2))
        for fn in (geo.inv_metric, geo.inv_metric_deriv, geo.beta, geo.potential):
            assert np.abs(np.imag(fn(x))).max() < 1e-12


def test_complex_extension_taylor(sphere_geo):
    # evaluator at a small imaginary offset agrees with the degree-4 Taylor
    # expansion from the real chart to O(eta^5); derivatives from five-point
    # stencils so the finite-difference error is itself O(h^4)
    u0 = np.array([0.12, -0.08])
    h, eta = 0.04, 0.04
    e = np.array([1.0, 0.0])
    for f in (
        lambda t: sphere_geo.inv_metric(u0 + t * e)[0, 0],
        lambda t: sphere_geo.beta(u0 + t * e)[0, 1],
        lambda t: sphere_geo.potential(u0 + t * e)[0],
    ):
        fm2, fm1, f0, f1, f2 = (f(j * h) for j in range(-2, 3))
        d1 = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
        d2 = (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h**2)
        d3 = (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * h**3)
        d4 = (f2 - 4 * f1 + 6 * f0 - 4 * fm1 + fm2) / h**4
        t = 1j * eta
        taylor = f0 + d1 * t + d2 * t**2 / 2 + d3 * t**3 / 6 + d4 * t**4 / 24
        assert abs(f(t) - taylor) < 1e-5


def test_twisted_symplectic_matrix(flat_geo):
    om = twisted_symplectic_matrix(flat_geo, np.zeros(2)).real
    expected = np.array(
        [[0, -1, 1, 0], [1, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float
    )
    assert np.allclose(om, expected)
    assert np.allclose(om, -om.T)


def test_twisted_symplectic_matrix_at_a_nan_point(sphere_geo):
    # a failed row's point: the sphere's complex division gives NaN beta
    # without a warning, and the constant blocks stay
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        om = twisted_symplectic_matrix(sphere_geo, np.full((1, 2), complex(np.nan, 0)))
    assert np.isnan(om[0, [0, 1], [1, 0]]).all() and (om[0, :2, 2:] == np.eye(2)).all()


def test_validate_records_the_jet_only_for_a_fused_jet(sphere_geo, rng):
    # a composed jet would be compared with itself and always read 0
    samples = rng.uniform(-0.3, 0.3, (10, 2))
    fused = validate_geometry(sphere_geo, samples)
    assert sphere_geo.fused_jet is not None and "jet" in fused.residuals
    composed = dataclasses.replace(sphere_geo, fused_jet=None)
    report = validate_geometry(composed, samples)
    assert report.passed and "jet" not in report.residuals


def test_negated_field(sphere_geo, rng):
    neg = sphere_geo.with_negated_field()
    u = rng.uniform(-0.3, 0.3, (5, 2))
    assert np.allclose(neg.beta(u), -sphere_geo.beta(u))
    assert np.allclose(neg.potential(u), -sphere_geo.potential(u))
    assert np.allclose(neg.inv_metric(u), sphere_geo.inv_metric(u))


@pytest.mark.parametrize("name", ["inv_metric_deriv2", "beta_deriv"])
def test_geometry_suite_checks_second_derivatives(name, monkeypatch):
    # frames come from the tangent map, which uses d2g and dbeta: the gate
    # must see either scaled by 1 + 1e-6
    from magtube import suites

    def bad_sphere(geo):
        fn = getattr(geo, name)
        return dataclasses.replace(geo, **{name: lambda x: (1 + 1e-6) * fn(x)})

    checks = {c.name: c for c in suites.suite_geometry(1234)[0]}
    assert checks["sphere_validation"].passed and checks["flat_validation"].passed
    patch_chart(monkeypatch, "sphere", bad_sphere)
    checks = {c.name: c for c in suites.suite_geometry(1234)[0]}
    assert not checks["sphere_validation"].passed
