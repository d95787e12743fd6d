import warnings

import numpy as np
import pytest

from conftest import sample_flat, sample_sphere, tiny_validity_geometry
from magtube import flow, kahler
from magtube import oracles as orc
from magtube.flow import FlowError
from magtube.geometry import CONTOUR_NODES, CONTOUR_RADIUS
from magtube.kahler import (
    dbar_residual_many,
    holomorphic_extension,
    kappa1_flat,
    kappa2_flat,
    kde_residual_many,
    phase_gradient,
    potential_f,
    potential_f_many,
    resolve_kappa1_coefficient,
    section_weight,
)
from magtube.structure import assemble_J, frame_at, frames_at_many


# ---------------------------------------------------------------------------
# the generating scalar f
# ---------------------------------------------------------------------------

def test_f_vanishes_at_time_zero(flat_geo):
    z = np.array([0.3, -0.1, 0.5, 0.2])
    assert abs(potential_f(flat_geo, z, 0.0)) < 1e-14


def test_f_real_time_closed_form(flat_geo, rng):
    for row in sample_flat(rng, 6):
        for sigma in (0.7, -0.4):
            got = potential_f(flat_geo, row, sigma)
            ref = orc.flat_f_sigma(1.0, 1.0, row, sigma)
            assert abs(got - ref) < 1e-11
            assert abs(got.imag) < 1e-11  # real for real times


def test_f_conjugation_symmetry(flat_geo, sphere_geo, rng):
    # conj f_t = f_{conj t} bit for bit: every operation of the flow is
    # conjugation-equivariant and its step control reads only moduli
    for geo, rows in ((flat_geo, sample_flat(rng, 4)), (sphere_geo, sample_sphere(rng, 4))):
        for row in rows:
            for t in (1j, 0.3 + 0.8j):
                assert np.conj(potential_f(geo, row, np.conj(t))) == potential_f(geo, row, t)


def test_two_i_f_minus_i_closed_form(flat_geo, rng):
    # 2i f_{-i} = -B(uy - vx) + B coth(Bt)(v^2+y^2) - i B tanh(Bt/2)(uv + xy)
    for row in sample_flat(rng, 6):
        z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, row)
        x, y, u, v = z1.real, z1.imag, z2.real, z2.imag
        ref = (
            -(u * y - v * x)
            + (v**2 + y**2) / np.tanh(1.0)
            - 1j * np.tanh(0.5) * (u * v + x * y)
        )
        got = 2j * potential_f(flat_geo, row, -1j)
        assert abs(got - ref) < 1e-10


def test_distinguished_point_value(flat_geo):
    got = 2j * potential_f(flat_geo, np.array([0, 0, 1, 0]), -1j)
    assert abs(got - np.sinh(1.0)) < 1e-11


# ---------------------------------------------------------------------------
# defining differential equation
# ---------------------------------------------------------------------------

def test_kde_residual_flat(flat_geo, rng):
    Z = sample_flat(rng, 5, xmax=0.5, pmax=0.8)
    assert kde_residual_many(flat_geo, Z, 0.3)[3].max() < 1e-6


def test_kde_residual_sphere(sphere_geo):
    assert kde_residual_many(sphere_geo, np.array([[0.1, -0.05, 0.3, 0.2]]), 0.2)[3][0] < 1e-5


def test_kde_slope_at_zero(flat_geo):
    # f_0 = 0 and X_E f_0 = 0, so df/dsigma|_0 = theta^A(X_E) - E = E + A(gp)
    z = np.array([0.4, -0.2, 0.7, 0.1])
    h = 1e-4
    slope = (
        potential_f(flat_geo, z, h) - potential_f(flat_geo, z, -h)
    ).real / (2 * h)
    from magtube.flow import field_components
    from magtube.geometry import energy

    x, p = z[:2], z[2:]
    xdot, _ = field_components(flat_geo, x, p)
    rhs = np.real(energy(flat_geo, x, p) + flat_geo.potential(x) @ xdot)
    assert abs(slope - rhs) < 1e-7


# ---------------------------------------------------------------------------
# dbar identity
# ---------------------------------------------------------------------------

def _dbar_one_row(geo, row):
    """The dbar residual at one phase row, along its own frame at i."""
    frames_conj = frames_at_many(geo, row[None, :], 1j)[0].conj()
    return dbar_residual_many(geo, row[None, :], frames_conj)[3][0]


def test_dbar_residual_flat(flat_geo, rng):
    for row in sample_flat(rng, 3, xmax=0.5, pmax=0.8):
        assert _dbar_one_row(flat_geo, row) < 1e-6


def test_dbar_residual_sphere(sphere_geo):
    assert _dbar_one_row(sphere_geo, np.array([0.1, -0.05, 0.3, 0.2])) < 1e-5


def test_theta_A_on_zero_section(sphere_geo):
    # theta^A = (p + A) dx is the pullback of A at p = 0, and it is not zero
    # there: dbar f_{-i} along conj F still matches it
    row = np.array([0.2, -0.1, 0.0, 0.0])
    frames_conj = frames_at_many(sphere_geo, row[None, :], 1j)[0].conj()
    assert np.abs(sphere_geo.potential(row[:2]) @ frames_conj[0, :2]).min() > 1e-2
    assert _dbar_one_row(sphere_geo, row) < 1e-10


# ---------------------------------------------------------------------------
# closed-form potentials on the plane
# ---------------------------------------------------------------------------

def test_kappa1_origin():
    assert kappa1_flat(1.0, 1.0, 0.0, 0.0) == 0.0


def test_kappa_small_field_series():
    # B coth(B/mf) -> mf + B^2/(3 mf) and B tanh(B/(2 mf)) -> B^2/(2 mf)
    mf = 1.0
    z1, z2 = 0.3 + 0.4j, -0.2 + 0.1j
    y, v = z1.imag, z2.imag
    x, u = z1.real, z2.real
    for B in (1e-4, 1e-2):
        expected = (
            -B * (u * y - v * x)
            + (mf + B**2 / (3 * mf)) * (v**2 + y**2)
            + 0.5 * (B**2 / (2 * mf)) * (x**2 - y**2 + u**2 - v**2)
        )
        assert kappa1_flat(B, mf, z1, z2) == pytest.approx(expected, abs=5 * B**4)
    # continuous through B = 0: the geodesic-case potential |Im z|^2 (mf = 1)
    assert kappa1_flat(0.0, mf, z1, z2) == pytest.approx(v**2 + y**2)


def test_coth_times_at_strong_and_zero_field():
    # B coth(B/mf) saturates at |B| without overflow and is mf at B = 0
    assert kahler._coth_times(800.0, 1.0) == 800.0
    assert kahler._coth_times(-800.0, 1.0) == 800.0
    assert kahler._coth_times(0.0, 0.7) == 0.7
    assert kahler._coth_times(1e-300, 1.0) == 1.0
    assert kappa2_flat(800.0, 1.0, 1j, 0j) == 800.0


def test_kappa1_equals_2if_plus_g(flat_geo, rng):
    # kappa1 = 2i f_{-i} + g with g = (B/2) tanh(Bt/2)(z1^2 + z2^2): the sum
    # is real and matches the closed form with the resolved B/2 coefficient
    for row in sample_flat(rng, 5):
        z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, row)
        g = 0.5 * np.tanh(0.5) * (z1**2 + z2**2)
        val = 2j * potential_f(flat_geo, row, -1j) + g
        assert abs(val.imag) < 1e-10
        assert abs(val.real - kappa1_flat(1.0, 1.0, z1, z2)) < 1e-9


def test_kappa2_matches_engine(flat_geo, rng):
    for row in sample_flat(rng, 5):
        z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, row)
        num = (2j * potential_f(flat_geo, row, -1j)).real
        assert abs(num - kappa2_flat(1.0, 1.0, z1, z2)) < 1e-10


def test_kappa1_coefficient_resolution(flat_geo, rng):
    z = np.array([0.2, 0.1, 0.6, -0.3])
    acs = assemble_J(flat_geo, z[:2], frame_at(flat_geo, z, 1j)[0])
    coeff, residuals = resolve_kappa1_coefficient(1.0, 1.0, acs.J, sample_flat(rng, 6))
    assert coeff == 0.5
    assert residuals[0.5] < 1e-8
    assert residuals[1.0] > 1e-2  # the alternative candidate coefficient fails


def test_i_ddbar_kappa2_is_the_twisted_form(rng):
    # i d dbar kappa2 = omega on the plane, both as real 2-forms in the real
    # coordinates w = (Re z1, Im z1, Re z2, Im z2) of the complex coordinates,
    # which are linear in (x, p): w = T (x, p)
    P = 0.5 * np.array([[1, 0], [-1j, 0], [0, 1], [0, -1j]])  # d/dz_a on real coordinates
    dz = np.array([[1, 1j, 0, 0], [0, 0, 1, 1j]])  # dz_a on real basis vectors
    for B, mass_freq in ((0.5, 1.0), (1.0, 1.0), (1.0, 0.5)):  # Btilde 0.5, 1, 2
        z = orc.flat_complex_coordinates(B, mass_freq, np.eye(4))
        T = np.stack([z[:, 0].real, z[:, 0].imag, z[:, 1].real, z[:, 1].imag])
        om = np.array([[0, -B, 1, 0], [B, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
        Tinv = np.linalg.inv(T)
        om_w = Tinv.T @ om @ Tinv

        def kappa2(w):  # continued holomorphically in w
            return kahler._kappa_xyuv(B, mass_freq, *w.T, 0.0), True, None

        def grad(w):
            return phase_gradient(kappa2, w, np.eye(4))[3], True, None

        hess = phase_gradient(grad, rng.uniform(-0.5, 0.5, (5, 4)), np.eye(4))[3]
        H = np.einsum("ia,kij,jb->kab", P, hess, P.conj())  # d^2 kappa2 / dz_a dzbar_b
        A = np.einsum("kab,am,bn->kmn", H, dz, dz.conj())
        W = 1j * (A - A.swapaxes(1, 2))  # i H_ab dz_a ^ dzbar_b
        assert np.abs(W.real - om_w).max() + np.abs(W.imag).max() < 1e-8


# ---------------------------------------------------------------------------
# the shared phase-space stencil
# ---------------------------------------------------------------------------

def _cubic(rows):
    z0, z1, z2, z3 = rows.T
    s = rows.sum(axis=1)
    return np.stack([z0**3 + z1 * z2 * z3, z2**2 * z0 - z3, s**3], axis=1), True, None


def _cubic_gradient(Z):
    """(m, 4, 3) gradient of ``_cubic`` over the four columns."""
    z0, z1, z2, z3 = Z.T
    s2 = 3 * Z.sum(axis=1) ** 2
    zero = np.zeros_like(z0)
    return np.stack([
        np.stack([3 * z0**2, z2 * z3, z1 * z3, z1 * z2], axis=1),
        np.stack([z2**2, zero, 2 * z2 * z0, zero - 1], axis=1),
        np.stack([s2, s2, s2, s2], axis=1),
    ], axis=2)


def test_phase_gradient_of_vector_cubic(rng):
    Z = sample_flat(rng, 5)
    calls = []

    def cubic(rows):
        calls.append(rows)
        return _cubic(rows)

    vals, ok, reasons, grad = phase_gradient(cubic, Z, np.eye(4))
    assert grad.shape == (5, 4, 3) and vals.shape == (5, 3)
    assert ok.all() and reasons == [None] * 5
    # the four-node trapezoid rule is exact for a cubic, up to rounding
    assert np.abs(grad - _cubic_gradient(Z)).max() < 1e-12
    # one batched call: the centre rows, then the contour rows in
    # (row, coordinate, node) order, node k at radius r and angle 2 pi k / N
    assert len(calls) == 1
    assert np.array_equal(calls[0][:5], Z)
    rows = calls[0][5:].reshape(5, 4, CONTOUR_NODES, 4)
    for i, a, k in np.ndindex(5, 4, CONTOUR_NODES):
        want = Z[i].astype(complex)
        want[a] += CONTOUR_RADIUS * np.exp(2j * np.pi * k / CONTOUR_NODES)
        assert np.abs(rows[i, a, k] - want).max() < 1e-18
    assert np.abs(vals - _cubic(Z)[0]).max() < 1e-14


@pytest.mark.parametrize("shape", [(3, 4), (5, 2, 4)])  # shared, or one set per row
def test_phase_gradient_along_complex_directions(rng, shape):
    Z = sample_flat(rng, 5)
    V = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    Vm = np.broadcast_to(V, (5, *shape[-2:]))
    size = np.linalg.norm(Vm, axis=-1)
    calls = []

    def cubic(rows):
        calls.append(rows)
        return _cubic(rows)

    vals, ok, reasons, deriv = phase_gradient(cubic, Z, V)
    assert deriv.shape == (5, shape[-2], 3) and ok.all()
    # grad . v, up to the rule's rounding: eps / r relative to f, times |v|
    ref = np.einsum("mdc,mkd->mkc", _cubic_gradient(Z), Vm)
    assert (np.abs(deriv - ref) / size[..., None]).max() < 1e-12 * np.abs(vals).max()
    # the rows of direction v: node j at z + r e^{2 pi i j / N} v / |v|
    rows = calls[0][5:].reshape(5, shape[-2], CONTOUR_NODES, 4)
    for i, a, j in np.ndindex(*rows.shape[:3]):
        node = CONTOUR_RADIUS * np.exp(2j * np.pi * j / CONTOUR_NODES)
        assert np.abs(rows[i, a, j] - (Z[i] + node * Vm[i, a] / size[i, a])).max() < 1e-15


def test_phase_gradient_nan_on_failed_row(flat_geo, monkeypatch):
    # the second point, near the momentum cap, blows up at -i; the first
    # row is still differentiated and nothing is raised
    monkeypatch.setattr(flow, "P_CAP", 100.0)
    Z = np.array([[0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 90.0, 0.0]])
    vals, ok, reasons, grad = phase_gradient(
        lambda rows: potential_f_many(flat_geo, rows, -1j), Z, np.eye(4))
    assert list(ok) == [True, False] and reasons == [None, "BLOWUP"]
    assert np.isfinite(grad[0]).all() and np.isnan(grad[1]).all()
    assert np.isfinite(vals[0]) and np.isnan(vals[1])


def test_phase_gradient_nan_direction(flat_geo):
    # a failed frame row reaches the rule as a NaN direction: the row fails
    # with its own reason and NaN values and derivatives, the other rows are
    # differentiated, and no warning is raised
    Z = np.array([[0.1, 0.0, 0.5, 0.0], [0.0, 0.2, 0.3, -0.4]])
    V = np.stack([np.eye(4)[:2], np.full((2, 4), np.nan)]).astype(complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, ok, reasons, deriv = phase_gradient(
            lambda rows: potential_f_many(flat_geo, rows, -1j), Z, V)
    assert list(ok) == [True, False] and reasons == [None, kahler.REASON_DIRECTION]
    assert np.isfinite(vals[0]) and np.isfinite(deriv[0]).all()
    for part in (vals[1].real, vals[1].imag, deriv[1].real, deriv[1].imag):
        assert np.isnan(part).all()


def test_phase_gradient_sends_no_ring_of_a_nan_direction(rng):
    # the ring of a row whose direction is not finite is not evaluated:
    # batch_fun sees no NaN row, the other rows get the bits they get
    # without that row, and the row fails with REASON_DIRECTION
    Z = sample_flat(rng, 3)
    V = np.stack([np.eye(4)[:2]] * 3).astype(complex)
    V[1, 0, 2] = np.nan
    calls = []

    def cubic(rows):
        calls.append(rows)
        return _cubic(rows)

    vals, ok, reasons, deriv = phase_gradient(cubic, Z, V)
    assert len(calls) == 1 and len(calls[0]) == 3 + 2 * 2 * CONTOUR_NODES
    assert np.isfinite(calls[0]).all()
    alone = phase_gradient(_cubic, Z[[0, 2]], V[[0, 2]])
    assert np.array_equal(vals[[0, 2]], alone[0]) and np.array_equal(deriv[[0, 2]], alone[3])
    assert list(ok) == [True, False, True] and reasons == [None, kahler.REASON_DIRECTION, None]
    assert np.isnan(vals[1]).all() and np.isnan(deriv[1]).all()


def test_residual_contours_run_one_ring_per_contracted_direction(flat_geo, sphere_geo,
                                                                  monkeypatch, rng):
    # at n = 2, f's rows per point: the centre and 4 nodes along (X_E, 1)
    # for kde, the centre and 4 nodes on each of the 2 columns of conj F for
    # dbar
    rows = []
    potential_f_many_gen = kahler.potential_f_many_gen

    def counting(geo, Z, t):
        rows.append(len(Z))
        return potential_f_many_gen(geo, Z, t)

    monkeypatch.setattr(kahler, "potential_f_many_gen", counting)
    for geo, Z in ((flat_geo, sample_flat(rng, 3)), (sphere_geo, sample_sphere(rng, 3))):
        rows.clear()
        kde_residual_many(geo, Z, 0.3)
        frames_conj = frames_at_many(geo, Z, 1j)[0].conj()
        dbar_residual_many(geo, Z, frames_conj)
        assert rows == [3 * 5, 3 * 9]


def test_residuals_at_the_tube_edge(sphere_geo):
    # the -i flow of the last row stays inside the tube (edge at p1 ~
    # 2.35597), and so do the rings of radius 1e-3 along its directions
    Z = np.array([[0.0, 0.0, 2.3, 0.0], [0.0, 0.0, 2.35595, 0.0]])
    frames_conj = frames_at_many(sphere_geo, Z, 1j)[0].conj()
    f, ok, _, res = dbar_residual_many(sphere_geo, Z, frames_conj)
    assert ok.all() and np.isfinite(f).all()
    assert res.max() < 1e-10
    assert kde_residual_many(sphere_geo, Z, -1j)[3].max() < 1e-10


def test_residuals_are_nan_where_the_contour_fails(flat_geo, sphere_geo, monkeypatch):
    # dbar: under a momentum cap of 100, the flows of the second row's
    # centre stay below it and nodes of its ring along conj F do not: the
    # row fails BLOWUP with NaN f and defect
    monkeypatch.setattr(flow, "P_CAP", 100.0)
    Z = np.array([[0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 64.8053, 0.0]])
    assert potential_f_many(flat_geo, Z, -1j)[1].all()
    frames_conj = frames_at_many(flat_geo, Z, 1j)[0].conj()
    f, ok, reasons, res = dbar_residual_many(flat_geo, Z, frames_conj)
    assert list(ok) == [True, False] and reasons == [None, "BLOWUP"]
    assert np.isfinite(f[0]) and np.isnan(f[1])
    assert res[0] < 1e-10 and np.isnan(res[1])
    # kde: a real row on a real path is held to the sphere's chart box, its
    # complex ring rows to the complex radius 0.6, which the second row lies
    # past; the first row is still computed
    Z = np.array([[0.1, -0.05, 0.3, 0.2], [0.65, 0.0, 0.2, 0.1]])
    assert potential_f_many(sphere_geo, Z, 0.3)[1].all()
    f, ok, reasons, res = kde_residual_many(sphere_geo, Z, 0.3)
    assert list(ok) == [True, False] and reasons == [None, "BLOWUP"]
    assert np.isfinite(f[0]) and np.isnan(f[1])
    assert res[0] < 1e-10 and np.isnan(res[1])


# ---------------------------------------------------------------------------
# holomorphic extensions and weights
# ---------------------------------------------------------------------------

def test_extension_of_coordinates(flat_geo, rng):
    for row in sample_flat(rng, 4):
        z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, row)
        assert abs(holomorphic_extension(flat_geo, lambda x: x[:, 0], row[None, :])[0][0]
                   - z1) < 1e-9
        assert abs(holomorphic_extension(flat_geo, lambda x: x[:, 1], row[None, :])[0][0]
                   - z2) < 1e-9


def test_extension_fixes_zero_section(sphere_geo):
    Z = np.array([[0.2, -0.1, 0.0, 0.0]])
    val = holomorphic_extension(sphere_geo, lambda x: x[:, 0] + 2 * x[:, 1], Z)[0][0]
    assert abs(val - (0.2 - 0.2)) < 1e-12


def test_extension_is_ring_homomorphism(flat_geo):
    Z = np.array([[0.3, -0.1, 0.5, 0.2]])
    e1 = holomorphic_extension(flat_geo, lambda x: x[:, 0], Z)[0][0]
    e2 = holomorphic_extension(flat_geo, lambda x: x[:, 0] ** 2, Z)[0][0]
    assert abs(e2 - e1**2) < 1e-9


def test_extension_evaluates_f_on_the_ok_rows_only(flat_geo, monkeypatch):
    # the second row passes a momentum cap of 100 before t = i: f never sees
    # its base point, and both parts of its value are NaN
    monkeypatch.setattr(flow, "P_CAP", 100.0)
    Z = np.array([[0.3, -0.1, 0.5, 0.2], [0.0, 0.0, 90.0, 0.0], [0.0, 0.2, -0.4, 0.1]])
    seen = []

    def f(x):
        seen.append(len(x))
        return np.column_stack([x[:, 0], x[:, 0] * x[:, 1]])

    values, ok, reasons = holomorphic_extension(flat_geo, f, Z)
    assert seen == [2] and list(ok) == [True, False, True] and reasons[1] == "BLOWUP"
    assert values.shape == (3, 2) and np.isfinite(values[[0, 2]]).all()
    assert np.isnan(values[1].real).all() and np.isnan(values[1].imag).all()
    zc = orc.flat_complex_coordinates(1.0, 1.0, Z[[0, 2]])
    assert np.abs(values[[0, 2], 0] - zc[:, 0]).max() < 1e-9


def test_section_weight_identities(flat_geo):
    z0 = np.array([0.4, -0.1, 0.0, 0.0])
    assert abs(section_weight(flat_geo, z0, 1) - 1.0) < 1e-12
    z = np.array([0.3, -0.1, 0.5, 0.2])
    w1 = section_weight(flat_geo, z, 1)
    w2 = section_weight(flat_geo, z, 2)
    assert abs(w2 - w1**2) < 1e-12
    assert section_weight(flat_geo, z, np.int64(2)) == w2
    for k in (0, 1.5, 2.0):
        with pytest.raises(ValueError, match="positive integer"):
            section_weight(flat_geo, z, k)


def test_weight_modulus_is_heat_kernel_density(rng):
    # |weight|^2 = e^{-kappa2}; with B = lambda and mass_freq = 1/(2t) the
    # exponent is lambda(uy - vx) - lambda coth(2 lambda t)(v^2 + y^2)
    from magtube.geometry import make_flat_magnetic

    lam, tt = 0.7, 0.4
    geo = make_flat_magnetic(2, [[0.0, lam], [-lam, 0.0]], 1.0 / (2 * tt))
    for row in sample_flat(rng, 4, pmax=0.8):
        w = section_weight(geo, row, 1)
        z1, z2 = orc.flat_complex_coordinates(lam, 1.0 / (2 * tt), row)
        x, y, u, v = z1.real, z1.imag, z2.real, z2.imag
        exponent = lam * (u * y - v * x) - lam / np.tanh(2 * lam * tt) * (v**2 + y**2)
        assert abs(abs(w) ** 2 - np.exp(exponent)) < 1e-10


def test_potential_f_is_one_row_of_potential_f_many(flat_geo, sphere_geo):
    row = np.array([[0.1, -0.05, 0.3, 0.2]])
    z = row[0]
    for geo in (flat_geo, sphere_geo):
        for t in (-1j, 0.5, 0.3 + 0.8j):
            vals, ok, _ = potential_f_many(geo, row, t)
            assert ok[0] and potential_f(geo, z, t) == vals[0]
    with pytest.raises(FlowError) as err:
        potential_f(tiny_validity_geometry(), np.array([0.0, 0.0, 2.5, 0.0]), -1j)
    assert err.value.reason == "BLOWUP"


def test_potential_f_many_flags_failures(flat_geo, monkeypatch):
    # at imaginary time the momentum grows like cosh; a tight cap trips it
    monkeypatch.setattr(flow, "P_CAP", 100.0)
    Z = np.array([[0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 90.0, 0.0]])
    vals, ok, reasons = potential_f_many(flat_geo, Z, -1j)
    assert ok[0] and not ok[1]
    assert reasons[1] == "BLOWUP"
    assert np.isnan(vals[1].real)
