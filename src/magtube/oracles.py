"""Closed-form reference solutions used as ground truth by the test suites.

Three families live here:

* the constant-field plane: Larmor-circle flow, its (constant) Jacobian, the
  complex coordinates obtained by evaluating the flow at imaginary time, and
  the generating function f_sigma;
* the invariant-field sphere: moment map, rotation-exponential flow with
  complex angle, and the explicit embedding of the tangent bundle into the
  complex sphere;
* the zero-section linearization of the flow's tangent map, a block
  matrix-exponential valid for any chart.

Matrix/scalar functions with removable singularities ((e^X-1)/X, sin w / w,
(1-cos w)/w^2, ...) are evaluated by truncated series below a switch radius
and by the exact formula above it.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

from .geometry import (
    conformal_factor,
    stereographic_frame,
    stereographic_point,
)

__all__ = [
    "phi1_matrix",
    "sinc_sq",
    "versine_sq",
    "flat_flow_oracle",
    "flat_flow_jacobian",
    "flat_frame_columns",
    "flat_complex_coordinates",
    "flat_f_sigma",
    "sphere_moment_map",
    "sphere_flow_oracle",
    "sphere_embedding_map",
    "sphere_chart_to_embedding",
    "sphere_embedding_to_chart",
    "zero_section_linearization",
    "zero_section_frame",
    "zero_section_positivity_matrix",
]

SERIES_SWITCH = 1e-3


# ---------------------------------------------------------------------------
# entire scalar/matrix functions with removable singularities
# ---------------------------------------------------------------------------

def sinc_sq(c):
    """sin(sqrt(c))/sqrt(c) as an entire function of c (complex ok).

    With c = -L^2 this evaluates sinh(L)/L.
    """
    c = np.asarray(c, dtype=complex)
    small = np.abs(c) < SERIES_SWITCH
    out = np.empty_like(c)
    cs = c[small]
    # sum_k (-c)^k / (2k+1)!
    out[small] = 1 - cs / 6 + cs**2 / 120 - cs**3 / 5040 + cs**4 / 362880
    cl = c[~small]
    w = np.sqrt(cl)
    out[~small] = np.sin(w) / w
    return out if out.ndim else complex(out)


def versine_sq(c):
    """(1 - cos(sqrt(c)))/c as an entire function of c.

    With c = -L^2 this evaluates (cosh(L) - 1)/L^2.
    """
    c = np.asarray(c, dtype=complex)
    small = np.abs(c) < SERIES_SWITCH
    out = np.empty_like(c)
    cs = c[small]
    out[small] = 0.5 - cs / 24 + cs**2 / 720 - cs**3 / 40320 + cs**4 / 3628800
    cl = c[~small]
    out[~small] = (1 - np.cos(np.sqrt(cl))) / cl
    return out if out.ndim else complex(out)


def phi1_matrix(M: np.ndarray) -> np.ndarray:
    """(e^M - 1)/M := sum_k M^k/(k+1)!, well defined for singular M.

    Series below the switch radius in norm; above it, read off the top-right
    block of exp([[M, I], [0, 0]]).
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if np.linalg.norm(M, ord=np.inf) < SERIES_SWITCH:
        out = np.eye(n, dtype=complex)
        term = np.eye(n, dtype=complex)
        for k in range(2, 8):
            term = term @ M / k
            out = out + term
        return out
    aug = np.zeros((2 * n, 2 * n), dtype=complex)
    aug[:n, :n] = M
    aug[:n, n:] = np.eye(n)
    return expm(aug)[:n, n:]


# ---------------------------------------------------------------------------
# constant field on the plane
# ---------------------------------------------------------------------------

def _flat_coeffs(B: float, mass_freq: float, sigma):
    """sin(sigma Bt)/B, (cos(sigma Bt)-1)/B, cos(sigma Bt), sin(sigma Bt).

    All entire in B (B -> 0 recovers the straight-line flow).
    """
    Bt = B / mass_freq
    sigma = complex(sigma)
    c2 = (sigma * Bt) ** 2
    sin_over_B = sigma / mass_freq * sinc_sq(c2)            # sin(sigma Bt)/B
    cosm1_over_B = -(sigma**2) * Bt / mass_freq * versine_sq(c2)
    cos = np.cos(sigma * Bt)
    sin = np.sin(sigma * Bt)
    return sin_over_B, cosm1_over_B, cos, sin


def flat_flow_oracle(B: float, mass_freq: float, z, sigma) -> np.ndarray:
    """Closed-form magnetic flow on the plane, entire in the time parameter.

    z is (x1, x2, p1, p2); sigma may be complex.  Returns the flowed
    4-vector.
    """
    z = np.asarray(z, dtype=complex)
    x1, x2, p1, p2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    soB, cmoB, c, s = _flat_coeffs(B, mass_freq, sigma)
    return np.stack(
        [
            x1 + p1 * soB - p2 * cmoB,
            x2 + p2 * soB + p1 * cmoB,
            p1 * c + p2 * s,
            -p1 * s + p2 * c,
        ],
        axis=-1,
    )


def flat_flow_jacobian(B: float, mass_freq: float, sigma) -> np.ndarray:
    """Tangent map of the flat flow (independent of the base point)."""
    soB, cmoB, c, s = _flat_coeffs(B, mass_freq, sigma)
    J = np.eye(4, dtype=complex)
    J[0, 2], J[0, 3] = soB, -cmoB
    J[1, 2], J[1, 3] = cmoB, soB
    J[2, 2], J[2, 3] = c, s
    J[3, 2], J[3, 3] = -s, c
    return J


def flat_frame_columns(B: float, mass_freq: float, sigma=1j) -> np.ndarray:
    """Columns spanning the transported vertical subspace, 4x2."""
    return flat_flow_jacobian(B, mass_freq, sigma)[:, 2:]


def flat_complex_coordinates(B: float, mass_freq: float, z) -> np.ndarray:
    """The two complex coordinates obtained from x1, x2 at imaginary time.

    z1 = x1 + i sinh(Bt)/B p1 - (cosh(Bt)-1)/B p2 and the rotated analogue
    for z2, with Bt = B/mass_freq.
    """
    z = np.asarray(z, dtype=complex)
    base = flat_flow_oracle(B, mass_freq, z, 1j)
    return base[..., :2]


def flat_f_sigma(B: float, mass_freq: float, z, sigma) -> complex:
    """Generating function on the plane for the gauge A = (B/2)(x1 dx2 - x2 dx1).

    f_sigma = -(sin sBt / 2)(x2 p1 - x1 p2) - ((cos sBt - 1)/2)(x1 p1 + x2 p2)
              + (sin sBt / 2B)(p1^2 + p2^2),  entire in sigma and in B.
    """
    z = np.asarray(z, dtype=complex)
    x1, x2, p1, p2 = z[..., 0], z[..., 1], z[..., 2], z[..., 3]
    soB, cmoB, c, s = _flat_coeffs(B, mass_freq, sigma)
    return (
        -(s / 2) * (x2 * p1 - x1 * p2)
        - ((c - 1) / 2) * (x1 * p1 + x2 * p2)
        + (soB / 2) * (p1**2 + p2**2)
    )


# ---------------------------------------------------------------------------
# invariant field on the sphere
# ---------------------------------------------------------------------------

def _skew(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    out = np.zeros(v.shape[:-1] + (3, 3), dtype=v.dtype)
    out[..., 0, 1] = -v[..., 2]
    out[..., 0, 2] = v[..., 1]
    out[..., 1, 0] = v[..., 2]
    out[..., 1, 2] = -v[..., 0]
    out[..., 2, 0] = -v[..., 1]
    out[..., 2, 1] = v[..., 0]
    return out


SPHERE_CONSTRAINT_TOL = 1e-6  # relative |x.x - r^2| / r^2 and |x.p| / r admitted


def _check_sphere_constraints(x, p, r):
    cx = np.abs(np.einsum("...j,...j->...", x, x) - r**2).max()
    cp = np.abs(np.einsum("...j,...j->...", x, p)).max()
    if cx > SPHERE_CONSTRAINT_TOL * r**2 or cp > SPHERE_CONSTRAINT_TOL * r:
        raise ValueError(
            f"state violates the sphere constraints: |x.x - r^2| = {cx:.3e}, "
            f"|x.p| = {cp:.3e}"
        )


def sphere_moment_map(x, p, r: float, B: float) -> np.ndarray:
    """Conserved rotation generator J(x, p) = x cross p - r B x.

    Satisfies J.J = r^2 p.p + r^4 B^2 on the constraint set (complex-bilinear
    dot products for continued states).
    """
    x = np.asarray(x, dtype=complex)
    p = np.asarray(p, dtype=complex)
    _check_sphere_constraints(x, p, r)
    return np.cross(x, p) - r * B * x


def _rotation_exp(N: np.ndarray) -> np.ndarray:
    """exp of the skew matrix of axis-angle vector N, complex angles allowed."""
    c = np.einsum("...j,...j->...", N, N)
    K = _skew(N)
    f1 = np.asarray(sinc_sq(c))[..., None, None]
    f2 = np.asarray(versine_sq(c))[..., None, None]
    eye = np.broadcast_to(np.eye(3, dtype=complex), K.shape)
    return eye + f1 * K + f2 * (K @ K)


def sphere_flow_oracle(x, p, r: float, B: float, sigma) -> tuple:
    """Magnetic flow on the sphere: rigid rotation about the moment axis.

    Both x and p are rotated by exp[(sigma/r^2) skew(J)]; complex sigma gives
    complex rotation angles.  Complex-bilinear constraints are preserved.
    """
    x = np.asarray(x, dtype=complex)
    p = np.asarray(p, dtype=complex)
    J = sphere_moment_map(x, p, r, B)
    R = _rotation_exp((complex(sigma) / r**2) * J)
    return (R @ x[..., None])[..., 0], (R @ p[..., None])[..., 0]


def sphere_embedding_map(x, p, r: float, B: float) -> np.ndarray:
    """Explicit image of (x, p) in the complex sphere a.a = r^2.

    a = cosh(L) x + i (sinh L / L) p + ((cosh L - 1)/L^2) (B/r) J(x, p),
    with L = sqrt(p.p + r^2 B^2)/r.  Coincides with the base point of the
    flow at imaginary time and satisfies a.a = r^2 identically; a(x, 0) = x.
    """
    x = np.asarray(x, dtype=complex)
    p = np.asarray(p, dtype=complex)
    J = sphere_moment_map(x, p, r, B)
    Lsq = (np.einsum("...j,...j->...", p, p) + r**2 * B**2) / r**2
    c = np.asarray(-Lsq, dtype=complex)  # cosh L = cos(sqrt(-L^2))
    coshL = np.cos(np.sqrt(c))[..., None]
    sinhL_over_L = np.asarray(sinc_sq(c))[..., None]
    coshm1_over_L2 = np.asarray(versine_sq(c))[..., None]
    return coshL * x + 1j * sinhL_over_L * p + coshm1_over_L2 * (B / r) * J


def sphere_chart_to_embedding(u, p_chart, r: float):
    """Map chart data (u, p) to the embedded pair (x, p3) in C^3 x C^3.

    The chart momentum is the covector p_j = p3 . dX/du_j; inverting through
    the conformal metric gives p3 = (dX/du) p / lambda.
    """
    u = np.asarray(u, dtype=complex)
    p_chart = np.asarray(p_chart, dtype=complex)
    E = stereographic_frame(u, r)
    lam = conformal_factor(u, r)
    x = stereographic_point(u, r)
    p3 = np.einsum("...ij,...j->...i", E, p_chart) / lam[..., None]
    return x, p3


def sphere_embedding_to_chart(x, p3, r: float):
    """Inverse chart map; requires x3 != r (away from the projection pole)."""
    x = np.asarray(x, dtype=complex)
    p3 = np.asarray(p3, dtype=complex)
    u = np.stack(
        [r * x[..., 0] / (r - x[..., 2]), r * x[..., 1] / (r - x[..., 2])],
        axis=-1,
    )
    E = stereographic_frame(u, r)
    p_chart = np.einsum("...ij,...i->...j", E, p3)
    return u, p_chart


# ---------------------------------------------------------------------------
# zero-section linearization
# ---------------------------------------------------------------------------

def zero_section_linearization(beta_matrix, sigma, inv_metric=None) -> np.ndarray:
    """Tangent map of the flow at a fixed point of the zero-section.

    In coordinates normalized so the metric at the point is the identity
    (pass inv_metric for a general chart) the map is the block matrix

        [[ 1, sigma g phi1(sigma beta g) ], [ 0, exp(sigma beta g) ]],

    with phi1(X) = (e^X - 1)/X interpreted by its power series.
    """
    beta = np.asarray(beta_matrix, dtype=complex)
    n = beta.shape[0]
    g = np.eye(n, dtype=complex) if inv_metric is None else np.asarray(inv_metric, dtype=complex)
    Q = beta @ g
    top = sigma * g @ phi1_matrix(sigma * Q)
    out = np.zeros((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = np.eye(n)
    out[:n, n:] = top
    out[n:, n:] = expm(sigma * Q)
    return out


def zero_section_frame(beta_matrix, sigma, inv_metric=None) -> np.ndarray:
    """Columns spanning the transported vertical subspace at the zero-section."""
    return zero_section_linearization(beta_matrix, sigma, inv_metric)[:, len(beta_matrix):]


def zero_section_positivity_matrix(beta_matrix, t) -> np.ndarray:
    """Hermitian form of the positivity pairing on the zero-section frame.

    For the frame columns F_v = (t phi1(t beta) v, e^{t beta} v) in normalized
    coordinates, the pairing -i omega(Z, conj(Z)) equals v* M v with

        M = 2 tau (exp(2 i tau beta) - 1)/(2 i tau beta),   tau = Im t,

    positive definite for tau > 0 and independent of Re t.
    """
    beta = np.asarray(beta_matrix, dtype=complex)
    tau = float(np.imag(t))
    return 2.0 * tau * phi1_matrix(2j * tau * beta)
