import numpy as np
import pytest
from scipy.linalg import expm

from magtube import oracles as orc


# ---------------------------------------------------------------------------
# entire scalar helpers and the matrix phi function
# ---------------------------------------------------------------------------

def test_scalar_helpers_match_direct_formulas():
    for w in (0.3, 2.0, -1.2, 0.5 + 0.7j):
        c = w * w
        assert abs(orc.sinc_sq(c) - np.sin(w) / w) < 1e-14
        assert abs(orc.versine_sq(c) - (1 - np.cos(w)) / c) < 1e-14
    # hyperbolic side: c = -L^2
    L = 1.3
    assert abs(orc.sinc_sq(-L * L) - np.sinh(L) / L) < 1e-14
    assert abs(orc.versine_sq(-L * L) - (np.cosh(L) - 1) / L**2) < 1e-14


def test_scalar_helpers_continuous_across_switch():
    # the series branch agrees with the exact formula evaluated at the same
    # point just inside the switch radius
    c = 0.9e-3
    w = np.sqrt(c)
    assert abs(orc.sinc_sq(c) - np.sin(w) / w) < 1e-15
    assert abs(orc.versine_sq(c) - (1 - np.cos(w)) / c) < 1e-12
    assert orc.sinc_sq(0.0) == 1.0
    assert orc.versine_sq(0.0) == 0.5


def test_phi1_matrix_against_series(rng):
    for scale in (1e-5, 1e-2, 1.0):
        M = scale * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        series = np.eye(3, dtype=complex)
        term = np.eye(3, dtype=complex)
        for k in range(2, 30):
            term = term @ M / k
            series = series + term
        assert np.abs(orc.phi1_matrix(M) - series).max() < 1e-13


def test_phi1_handles_singular_matrix():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])  # nilpotent
    assert np.allclose(orc.phi1_matrix(M), [[1.0, 0.5], [0.0, 1.0]])


# ---------------------------------------------------------------------------
# flat closed forms
# ---------------------------------------------------------------------------

def test_flat_flow_at_imaginary_time():
    out = orc.flat_flow_oracle(1.0, 1.0, [0, 0, 1, 0], 1j)
    ref = [1j * np.sinh(1), np.cosh(1) - 1, np.cosh(1), -1j * np.sinh(1)]
    assert np.abs(out - np.array(ref)).max() < 1e-14


def test_flat_flow_periodicity(rng):
    z = rng.uniform(-1, 1, 4)
    out = orc.flat_flow_oracle(1.5, 1.0, z, 2 * np.pi / 1.5)
    assert np.abs(out - z).max() < 1e-12


def test_flat_flow_geodesic_limit(rng):
    z = rng.uniform(-1, 1, 4)
    out = orc.flat_flow_oracle(0.0, 2.0, z, 0.7)
    ref = np.concatenate([z[:2] + 0.7 * z[2:] / 2.0, z[2:]])
    assert np.abs(out - ref).max() < 1e-14
    # and continuity in B at 0
    out_eps = orc.flat_flow_oracle(1e-9, 2.0, z, 0.7)
    assert np.abs(out - out_eps).max() < 1e-8


def test_flat_flow_group_property_complex(rng):
    # the closed form is an entire flow: composition adds (complex) times
    z = rng.uniform(-1, 1, 4).astype(complex)
    s1, s2 = 0.4 + 0.3j, -0.2 + 0.5j
    mid = orc.flat_flow_oracle(0.8, 1.0, z, s1)
    out = orc.flat_flow_oracle(0.8, 1.0, mid, s2)
    ref = orc.flat_flow_oracle(0.8, 1.0, z, s1 + s2)
    assert np.abs(out - ref).max() < 1e-12


def test_flat_jacobian_is_flow_derivative(rng):
    z = rng.uniform(-1, 1, 4)
    h = 1e-6
    J = orc.flat_flow_jacobian(1.0, 1.0, 0.6 + 0.4j)
    for m in range(4):
        e = np.zeros(4)
        e[m] = h
        col = (orc.flat_flow_oracle(1.0, 1.0, z + e, 0.6 + 0.4j)
               - orc.flat_flow_oracle(1.0, 1.0, z - e, 0.6 + 0.4j)) / (2 * h)
        assert np.abs(col - J[:, m]).max() < 1e-9


def test_flat_f_sigma_integral_representation():
    # check the closed form against direct numerical quadrature of A(dx/ds)
    z = np.array([0.3, -0.1, 0.5, 0.2])
    sigma = 0.7
    ss = np.linspace(-sigma, 0.0, 4001)
    states = np.stack([orc.flat_flow_oracle(1.0, 1.0, z, s) for s in ss])
    integrand = 0.5 * (
        states[:, 0].real * states[:, 3].real - states[:, 1].real * states[:, 2].real
    )
    E = 0.5 * (z[2] ** 2 + z[3] ** 2)
    quad = sigma * E + np.trapezoid(integrand, ss)
    assert abs(orc.flat_f_sigma(1.0, 1.0, z, sigma) - quad) < 1e-9


# ---------------------------------------------------------------------------
# sphere closed forms
# ---------------------------------------------------------------------------

def _states(rng, m, r=1.0, pmax=2.0):
    x = rng.normal(size=(m, 3))
    x *= r / np.linalg.norm(x, axis=1, keepdims=True)
    v = rng.normal(size=(m, 3))
    # project twice: one pass leaves x.v at ~1e-12 when v is nearly radial,
    # and the embedding quadric a.a = r^2 holds only for tangent v
    for _ in range(2):
        v -= (np.einsum("mi,mi->m", v, x) / r**2)[:, None] * x
    v *= rng.uniform(0.05, pmax, (m, 1)) / np.linalg.norm(v, axis=1, keepdims=True)
    return x, v


def test_moment_map_examples():
    r, B, p = 1.5, 0.8, 0.6
    x = r * np.array([1.0, 0, 0])
    pv = p * np.array([0, 1.0, 0])
    J = orc.sphere_moment_map(x, pv, r, B)
    assert np.allclose(J, r * p * np.array([0, 0, 1.0]) - r * B * x)
    J0 = orc.sphere_moment_map(x, np.zeros(3), r, B)
    assert np.allclose(J0, -r * B * x)
    assert (J0 @ J0).real == pytest.approx(r**4 * B**2)


def test_moment_map_rejects_constraint_violation():
    with pytest.raises(ValueError):
        orc.sphere_moment_map([1.0, 0, 0], [0.5, 0.2, 0.0], 1.0, 1.0)  # x.p != 0
    with pytest.raises(ValueError):
        orc.sphere_moment_map([1.2, 0, 0], [0, 0.2, 0.0], 1.0, 1.0)  # off the sphere
    # a state on the constraint set passes the check
    assert np.allclose(orc.sphere_moment_map([1.0, 0, 0], [0, 0.3, 0.0], 1.0, 1.0), [-1, 0, 0.3])


def test_sphere_state_constraints_survive_complex_time(rng):
    # the continued state satisfies the complex-bilinear constraints
    x, p = _states(rng, 1)
    x1, p1 = orc.sphere_flow_oracle(x[0], p[0], 1.0, 1.0, 0.3 + 0.9j)
    cx = abs(np.einsum("j,j->", x1, x1) - 1.0)
    cp = abs(np.einsum("j,j->", x1, p1))
    assert cx < 1e-12 and cp < 1e-12


def test_sphere_suite_states_are_tangent():
    # the states of these tests: nearly radial draws (seed 110) once left x.p
    # at ~1e-12 after one projection and failed the embedding quadric
    rng = np.random.default_rng(110)
    for r in (1.0, 2.0):
        x, p = _states(rng, 20000, r)
        xp = np.abs(np.einsum("mi,mi->m", x, p))
        assert (xp <= 1e-14 * r * np.linalg.norm(p, axis=1)).all()
        a = orc.sphere_embedding_map(x, p, r, 1.0)
        assert np.abs(np.einsum("mi,mi->m", a, a) - r**2).max() < 1e-12


def test_moment_map_norm_identity(rng):
    x, p = _states(rng, 50, r=1.3)
    J = orc.sphere_moment_map(x, p, 1.3, 0.7)
    jsq = np.einsum("mi,mi->m", J, J).real
    psq = np.einsum("mi,mi->m", p, p).real
    assert np.abs(jsq - (1.3**2 * psq + 1.3**4 * 0.7**2)).max() < 1e-12


def test_sphere_flow_is_rigid_rotation(rng):
    x, p = _states(rng, 20)
    x1, p1 = orc.sphere_flow_oracle(x, p, 1.0, 1.0, 0.9)
    assert np.abs(np.einsum("mi,mi->m", x1, x1) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("mi,mi->m", x1, p1)).max() < 1e-12
    assert np.abs(np.einsum("mi,mi->m", p1, p1)
                  - np.einsum("mi,mi->m", p, p)).max() < 1e-12
    J0 = orc.sphere_moment_map(x, p, 1.0, 1.0)
    J1 = orc.sphere_moment_map(x1, p1, 1.0, 1.0)
    assert np.abs(J1 - J0).max() < 1e-12


def test_sphere_flow_complex_time_constraints(rng):
    # the constraints and the moment map survive complex times
    x, p = _states(rng, 20)
    J0 = orc.sphere_moment_map(x, p, 1.0, 1.0)
    for sigma in (1j, 0.4 - 0.6j, 0.4 + 0.9j):
        x1, p1 = orc.sphere_flow_oracle(x, p, 1.0, 1.0, sigma)
        assert np.abs(np.einsum("mi,mi->m", x1, x1) - 1.0).max() < 1e-12
        assert np.abs(np.einsum("mi,mi->m", x1, p1)).max() < 1e-12
        assert np.abs(orc.sphere_moment_map(x1, p1, 1.0, 1.0) - J0).max() < 1e-12


def test_sphere_flow_against_generic_matrix_exponential(rng):
    # Rodrigues-type evaluation against scipy's expm of the skew generator
    x, p = _states(rng, 1)
    x, p = x[0], p[0]
    J = orc.sphere_moment_map(x, p, 1.0, 0.8).real
    K = np.array([[0, -J[2], J[1]], [J[2], 0, -J[0]], [-J[1], J[0], 0]])
    for sigma in (0.7, 1j, 0.3 - 0.6j):
        R = expm(sigma * K)
        x1, p1 = orc.sphere_flow_oracle(x, p, 1.0, 0.8, sigma)
        assert np.abs(R @ x - x1).max() < 1e-12
        assert np.abs(R @ p - p1).max() < 1e-12


def test_embedding_map_basics(rng):
    for r in (1.0, 2.0):
        for B in (0.0, 0.5, 1.0):
            x, p = _states(rng, 100, r)
            a = orc.sphere_embedding_map(x, p, r, B)
            assert np.abs(np.einsum("mi,mi->m", a, a) - r**2).max() < 1e-12
            a0 = orc.sphere_embedding_map(x, 0 * p, r, B)
            assert np.abs(a0 - x).max() < 1e-12
            # a equals the base point of the flow at imaginary time
            x1, _ = orc.sphere_flow_oracle(x, p, r, B, 1j)
            assert np.abs(a - x1).max() < 1e-11


def test_embedding_free_case_specialization():
    # B = 0: a = cosh(p/r) x + i sinh(p/r)/(p/r) p
    r, pmag = 1.0, 0.8
    x = r * np.array([1.0, 0, 0])
    p = pmag * np.array([0, 1.0, 0])
    a = orc.sphere_embedding_map(x, p, r, 0.0)
    ref = np.cosh(pmag) * x + 1j * np.sinh(pmag) / pmag * p
    assert np.abs(a - ref).max() < 1e-14


def test_embedding_imaginary_part_monotone():
    x = np.array([1.0, 0, 0])
    d = np.array([0, 1.0, 0])
    vals = []
    for s in np.linspace(0.0, 3.0, 100):
        a = orc.sphere_embedding_map(x, s * d, 1.0, 1.0)
        vals.append(np.linalg.norm(a.imag))
        # |Im a| = (sinh L / L) |p| with L = sqrt(p^2 + r^2 B^2)/r
        L = np.sqrt(s**2 + 1.0)
        assert abs(vals[-1] - np.sinh(L) / L * s) < 1e-12
    assert np.diff(vals).min() > 0.0
    # the ray as one batch gives the loop's bits
    ray = np.linspace(0.0, 3.0, 100)[:, None] * d
    batch = orc.sphere_embedding_map(np.broadcast_to(x, ray.shape), ray, 1.0, 1.0)
    assert np.array_equal(np.linalg.norm(batch.imag, axis=1), vals)


def test_embedding_injectivity_margin(rng):
    x1, p1 = _states(rng, 200)
    x2, p2 = _states(rng, 200)
    a1 = orc.sphere_embedding_map(x1, p1, 1.0, 1.0)
    a2 = orc.sphere_embedding_map(x2, p2, 1.0, 1.0)
    sep_state = np.linalg.norm(np.concatenate([x1 - x2, p1 - p2], axis=1), axis=1)
    sep_a = np.linalg.norm(np.abs(a1 - a2), axis=1)
    assert (sep_a / sep_state).min() > 1e-6


def test_chart_embedding_roundtrip(rng):
    u = rng.uniform(-0.4, 0.4, (100, 2))
    pc = rng.uniform(-2.0, 2.0, (100, 2))
    x, p3 = orc.sphere_chart_to_embedding(u, pc, 1.0)
    assert np.abs(np.einsum("mi,mi->m", x, x) - 1.0).max() < 1e-12
    assert np.abs(np.einsum("mi,mi->m", x, p3)).max() < 1e-12
    u2, pc2 = orc.sphere_embedding_to_chart(x, p3, 1.0)
    assert np.abs(u2 - u).max() < 1e-12
    assert np.abs(pc2 - pc).max() < 1e-12


def test_chart_energy_consistency(sphere_geo, rng):
    # E in the chart equals |p|^2/2 in the embedding
    from magtube.geometry import energy

    u = rng.uniform(-0.3, 0.3, (10, 2))
    pc = rng.uniform(-1.0, 1.0, (10, 2))
    _, p3 = orc.sphere_chart_to_embedding(u, pc, 1.0)
    E_chart = energy(sphere_geo, u, pc).real
    E_embed = 0.5 * np.einsum("mi,mi->m", p3, p3).real
    assert np.abs(E_chart - E_embed).max() < 1e-12


# ---------------------------------------------------------------------------
# zero-section linearization
# ---------------------------------------------------------------------------

def test_zero_section_free_shear():
    out = orc.zero_section_linearization(np.zeros((2, 2)), 0.7 + 0.2j)
    ref = np.eye(4, dtype=complex)
    ref[0, 2] = ref[1, 3] = 0.7 + 0.2j
    assert np.abs(out - ref).max() < 1e-14


def test_zero_section_rotation_block():
    B = 1.3
    Jm = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = orc.zero_section_linearization(B * Jm, 1j)
    ref_exp = np.cosh(B) * np.eye(2) + 1j * np.sinh(B) * Jm
    assert np.abs(out[2:, 2:] - ref_exp).max() < 1e-12
    # frame columns [sigma phi1(sigma beta) v; exp(sigma beta) v]
    F = orc.zero_section_frame(B * Jm, 1j)
    assert np.abs(F[2:] - ref_exp).max() < 1e-12
    assert np.abs(F[:2] - 1j * orc.phi1_matrix(1j * B * Jm)).max() < 1e-12


def test_zero_section_matches_flat_jacobian():
    # for the constant field the global flow Jacobian restricted to p = 0 is
    # exactly the zero-section linearization
    B, mf = 1.0, 0.5
    for sigma in (0.5, 1j, 0.3 + 0.8j):
        J_flow = orc.flat_flow_jacobian(B, mf, sigma)
        Z = orc.zero_section_linearization(
            np.array([[0.0, B], [-B, 0.0]]), sigma, np.eye(2) / mf
        )
        assert np.abs(J_flow - Z).max() < 1e-12


def test_positivity_matrix_closed_form():
    beta = 1.3 * np.array([[0.0, 1.0], [-1.0, 0.0]])
    tau = 0.8
    M = orc.zero_section_positivity_matrix(beta, 0.3 + 1j * tau)
    # eigenvalues 2 tau (e^w - 1)/w at w = +-2 tau B
    w = 2 * tau * 1.3
    eig_ref = sorted([2 * tau * (np.exp(w) - 1) / w, 2 * tau * (1 - np.exp(-w)) / w])
    eig = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    assert np.abs(eig - eig_ref).max() < 1e-12
