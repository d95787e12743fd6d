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
(1-cos w)/w^2) are evaluated by exact identities that hold through the
singularity: ``np.sinc`` for the scalars and an augmented matrix
exponential for (e^X-1)/X.  The matrix exponential is this module's own
scaling and squaring with Pade approximants (Higham 2005), so the oracles
need numpy alone and share no code with the engine's DOP853 flow.
"""

from __future__ import annotations

import numpy as np

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

# ---------------------------------------------------------------------------
# entire scalar/matrix functions with removable singularities
# ---------------------------------------------------------------------------

def sinc_sq(c):
    """sin(sqrt(c))/sqrt(c) as an entire function of c (complex ok).

    With c = -L^2 this evaluates sinh(L)/L.  ``np.sinc`` takes the limit 1
    at c = 0 and keeps full relative accuracy near it.
    """
    out = np.sinc(np.sqrt(np.asarray(c, dtype=complex)) / np.pi)
    return out if out.ndim else complex(out)


def versine_sq(c):
    """(1 - cos(sqrt(c)))/c as an entire function of c.

    With c = -L^2 this evaluates (cosh(L) - 1)/L^2.  It is the exact
    identity (1 - cos w)/w^2 = (1/2) (sin(w/2)/(w/2))^2, which does not
    cancel at small w as 1 - cos w does.
    """
    out = 0.5 * np.sinc(np.sqrt(np.asarray(c, dtype=complex)) / (2 * np.pi)) ** 2
    return out if out.ndim else complex(out)


# Pade coefficients b_0..b_m of degree m, and the largest 1-norm theta_m at
# which r_m(A) = exp(A) to double precision (N. J. Higham, SIAM J. Matrix
# Anal. Appl. 26 (2005) 1179-1193, Table 2.3 and Algorithm 2.3).
_PADE = {
    3: (1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
    5: (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
    7: (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0,
                               1512.0, 56.0, 1.0)),
    9: (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0,
                              30270240.0, 2162160.0, 110880.0, 3960.0, 90.0, 1.0)),
    13: (5.371920351148152e0, (64764752532480000.0, 32382376266240000.0,
                               7771770303897600.0, 1187353796428800.0, 129060195264000.0,
                               10559470521600.0, 670442572800.0, 33522128640.0,
                               1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0)),
}


def _pade(A: np.ndarray, m: int) -> np.ndarray:
    """The degree-m Pade approximant of exp over a stack A (k, n, n):
    r_m = (V - U)^{-1} (V + U) with U the odd and V the even part."""
    b = _PADE[m][1]
    eye = np.eye(A.shape[-1], dtype=complex)
    A2 = A @ A
    if m < 13:
        powers = [eye, A2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ A2)
        U = A @ sum(b[2 * k + 1] * P for k, P in enumerate(powers))
        V = sum(b[2 * k] * P for k, P in enumerate(powers))
    else:
        A4 = A2 @ A2
        A6 = A4 @ A2
        U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                 + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
        V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
             + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    return np.linalg.solve(V - U, V + U)


def _expm(A) -> np.ndarray:
    """exp(A) over the leading axes of A (..., n, n), by scaling and squaring
    with Pade approximants (Higham 2005, Algorithm 2.3).

    Each matrix picks its degree and number of squarings from its own 1-norm,
    and the matrices that share both run as one stack, so a matrix's result
    does not depend on the stack it comes in.
    """
    A = np.asarray(A, dtype=complex)
    flat = A.reshape((-1,) + A.shape[-2:])
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    degrees = np.array([next((m for m in (3, 5, 7, 9) if nrm <= _PADE[m][0]), 13)
                        for nrm in norms])
    theta13 = _PADE[13][0]
    squarings = np.ceil(np.log2(np.maximum(norms, theta13) / theta13)).astype(int)
    out = np.empty_like(flat)
    for m, s in set(zip(degrees.tolist(), squarings.tolist())):
        rows = (degrees == m) & (squarings == s)
        X = _pade(flat[rows] / 2.0**s, m)
        for _ in range(s):
            X = X @ X
        out[rows] = X
    return out.reshape(A.shape)


def phi1_matrix(M: np.ndarray) -> np.ndarray:
    """(e^M - 1)/M := sum_k M^k/(k+1)!, well defined for singular M: the
    top-right block of exp([[M, I], [0, 0]]).  M may be a stack (..., n, n)."""
    M = np.asarray(M, dtype=complex)
    n = M.shape[-1]
    aug = np.zeros(M.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    aug[..., :n, :n] = M
    aug[..., :n, n:] = np.eye(n)
    return _expm(aug)[..., :n, n:]


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

    with phi1(X) = (e^X - 1)/X interpreted by its power series.  beta and g
    may be stacks (..., n, n) and sigma an array; their leading axes
    broadcast.
    """
    beta = np.asarray(beta_matrix, dtype=complex)
    n = beta.shape[-1]
    g = np.eye(n, dtype=complex) if inv_metric is None else np.asarray(inv_metric, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)[..., None, None]
    sQ = sigma * (beta @ g)
    top = sigma * g @ phi1_matrix(sQ)
    out = np.zeros(top.shape[:-2] + (2 * n, 2 * n), dtype=complex)
    out[..., :n, :n] = np.eye(n)
    out[..., :n, n:] = top
    out[..., n:, n:] = _expm(sQ)
    return out


def zero_section_frame(beta_matrix, sigma, inv_metric=None) -> np.ndarray:
    """Columns spanning the transported vertical subspace at the zero-section."""
    return zero_section_linearization(beta_matrix, sigma, inv_metric)[
        ..., np.shape(beta_matrix)[-1]:]


def zero_section_positivity_matrix(beta_matrix, t) -> np.ndarray:
    """Hermitian form of the positivity pairing on the zero-section frame.

    For the frame columns F_v = (t phi1(t beta) v, e^{t beta} v) in normalized
    coordinates, the pairing -i omega(Z, conj(Z)) equals v* M v with

        M = 2 tau (exp(2 i tau beta) - 1)/(2 i tau beta),   tau = Im t,

    positive definite for tau > 0 and independent of Re t.  beta may be a
    stack (..., n, n) and t an array; their leading axes broadcast.
    """
    beta = np.asarray(beta_matrix, dtype=complex)
    tau = np.imag(np.asarray(t, dtype=complex))[..., None, None]
    return 2.0 * tau * phi1_matrix(2j * tau * beta)
