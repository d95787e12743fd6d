"""Generating functions, Kaehler potentials, holomorphic weights and
extensions.

The scalar f_t(z) = t E(z) + int_{-t}^0 A(d(pi o Phi_s)/ds) ds is produced by
the flow module's potential quadrature along the path to -t.  Its value at
t = -i drives everything else here:

* kappa2 = Re(2i f_{-i}) is a Kaehler potential (not adapted to theta^A);
* exp(-i k f_{-i}) is the local holomorphic section weight, |w|^2 = e^{-k kappa2};
* the defining differential equation in t and the dbar identity
  dbar f_{-i} = (theta^A)^(0,1) are exposed as residual checks.

For the constant-field plane the closed-form potentials kappa1 (adapted) and
kappa2 are provided in the complex coordinates (z1, z2).  The coefficient of
the tanh term in kappa1 is pinned empirically by the adaptedness identity
Im dbar kappa1 = theta^A, which holds for B/2 and fails for B; see
``resolve_kappa1_coefficient``.

f_t, the residuals and the holomorphic extension are batched over phase
rows Z = [x, p] and report a failed row through their ``ok`` flags and
reasons; ``potential_f`` and ``section_weight`` are the one-row case of
``potential_f_many`` and raise the row's FlowError.  Each operation that
flows has one body, a flow generator named for it with ``_gen`` (see
``flow.run``), and its public function is ``flow.run`` of it.

Every phase-space derivative of a computed quantity goes through
``phase_gradient``, the one derivative rule.  The flow, the transported
frame columns, f_t and the closed-form potentials are holomorphic in the
start point, so a derivative along a direction v is the trapezoid rule on a
circle of radius ``CONTOUR_RADIUS`` along v/|v| with ``CONTOUR_NODES``
nodes, for every row of a batch in one call of the batched function.  An
identity is differentiated only along the directions it contracts: kde
along (X_E, 1) in (x, p, sigma), dbar along the columns of conj F.  The
ring and its weights live in ``geometry``, whose chart derivatives
(composed jets, the ``validate_geometry`` references) follow the same rule.
"""

from __future__ import annotations

import math
from inspect import isgenerator
from typing import Callable

import numpy as np

from .flow import field_components, flow_many_gen, raise_first_failure, run
from .geometry import _RING, _WEIGHTS
from .geometry import ChartedGeometry, energy

__all__ = [
    "potential_f",
    "potential_f_many",
    "potential_f_many_gen",
    "kde_residual_many",
    "kde_residual_many_gen",
    "dbar_residual_many",
    "dbar_residual_many_gen",
    "phase_gradient",
    "phase_gradient_gen",
    "kappa1_flat",
    "kappa2_flat",
    "resolve_kappa1_coefficient",
    "holomorphic_extension",
    "holomorphic_extension_gen",
    "section_weight",
]

# ---------------------------------------------------------------------------
# derivatives from holomorphy (Cauchy contours)
# ---------------------------------------------------------------------------

REASON_DIRECTION = "direction not finite"  # a failed frame row as a contour direction


def phase_gradient(batch_fun: Callable, Z: np.ndarray, V: np.ndarray):
    """Contour derivatives along the directions V at every row of Z.

    The d columns of Z are the 2n phase coordinates (kde appends the time
    sigma); V holds k directions, shared (k, d) or per row (m, k, d), real
    or complex, and ``np.eye(d)`` gives the gradient.  ``batch_fun`` maps
    (M, d) complex rows, holomorphic in each column, to ``(vals, ok,
    reasons)`` with ``vals`` of shape (M, ...), or to a flow generator that
    returns them; a closed form may return ``ok = True`` and ``reasons =
    None``.  It is called once, on the centre rows Z and then the rows
    z + RING_j v/|v| in (row, direction, node j) order, |v| the Hermitian
    length; the derivative is scaled back by |v|.
    A row whose directions are not finite gets no ring rows.

    Returns ``(vals, ok, reasons, deriv)``: the batch contract at the centre
    rows plus the (m, k, ...) derivatives.  A row fails when its centre, its
    directions or any node of its ring fails, and gets NaN values and
    derivatives (NaN in both parts where they are complex); nothing is
    raised.  Its reason is the centre's, else ``REASON_DIRECTION`` for a
    direction that is not finite (a failed frame row), else that of its
    first failed node.
    """
    return run(phase_gradient_gen(batch_fun, Z, V))


def phase_gradient_gen(batch_fun: Callable, Z: np.ndarray, V: np.ndarray):
    """``phase_gradient`` as a flow generator."""
    Z = np.asarray(Z)
    m, d = Z.shape
    V = np.broadcast_to(V, (m, *np.shape(V)[-2:]))
    size = np.linalg.norm(V, axis=-1)  # (m, k)
    # a row whose direction is not finite has failed: only its centre is
    # evaluated, for its reason
    finite_dir = np.isfinite(size).all(axis=1)
    live = np.flatnonzero(finite_dir)
    # (live row, direction, node, column)
    ring = (V[live] * (1 / size[live, :, None]))[:, :, None, :] * _RING[:, None]
    rows = np.concatenate([Z, (Z[live, None, None, :] + ring).reshape(-1, d)])
    out = batch_fun(rows)
    vals, ok, reasons = (yield from out) if isgenerator(out) else out
    vals = np.asarray(vals)
    # live row i = live[k] has its nodes, centre first, at rows nodes[k] of
    # the batch; first[i] is row i's first failed node, else its centre (a
    # row that is not live has only its centre)
    ok = np.broadcast_to(ok, len(rows))
    nodes = np.column_stack([live, np.arange(m, len(rows)).reshape(
        len(live), V.shape[1] * len(_RING))])
    first = np.arange(m)
    first[live] = nodes[np.arange(len(live)), np.argmin(ok[nodes], axis=1)]
    row_ok = ok[first] & finite_dir
    deriv = np.full((m, V.shape[1]) + vals.shape[1:], complex(np.nan, np.nan))
    deriv[live] = np.moveaxis(vals[m:].reshape(*ring.shape[:3], *vals.shape[1:]), 2, -1) @ _WEIGHTS
    deriv *= size.reshape(size.shape + (1,) * (deriv.ndim - 2))
    deriv[~row_ok] = complex(np.nan, np.nan)
    nan = complex(np.nan, np.nan) if np.iscomplexobj(vals) else np.nan
    vals = np.where(row_ok.reshape((m,) + (1,) * (vals.ndim - 1)), vals[:m], nan)
    reasons = [None if good else REASON_DIRECTION if ok[i] and not finite_dir[i] else reasons[j]
               for i, (good, j) in enumerate(zip(row_ok, first))]
    return vals, row_ok, reasons, deriv


# ---------------------------------------------------------------------------
# the generating scalar f_t
# ---------------------------------------------------------------------------

def potential_f(geo: ChartedGeometry, z: np.ndarray, t) -> complex:
    """f_t(z) = t E(z) + int_{-t}^0 A(d(pi o Phi_s)(z)/ds) ds at the phase
    row z (2n,).

    The integral is the flow quadrature along the path from 0 to -t with the
    orientation int_{-t}^0 = -int_0^{-t}; f_0 = 0 and conj(f_t) = f_conj(t).
    The one-row case of ``potential_f_many``; raises the row's FlowError if
    the flow to -t fails.
    """
    vals, ok, reasons = potential_f_many(geo, np.asarray(z)[None, :], t)
    raise_first_failure(ok, reasons)
    return complex(vals[0])


def potential_f_many(geo, Z: np.ndarray, t):
    """Batch f_t over rows of Z = [x, p]; returns (values, ok, reasons).

    ``t`` is any time ``flow_many`` takes, per-row times included: one
    tangent-free flow to -t, whose target -t gives f_t = t E - quad (f_t
    needs the phase point and the quadrature only)."""
    return run(potential_f_many_gen(geo, Z, t))


def potential_f_many_gen(geo, Z: np.ndarray, t):
    """``potential_f_many`` as a flow generator."""
    Z = np.asarray(Z, dtype=complex)
    res = yield from flow_many_gen(geo, Z, -t, tangent=False)
    n = geo.dim
    E = energy(geo, Z[:, :n], Z[:, n:])
    return -res.time * E - res.quad, res.ok, res.reasons


# ---------------------------------------------------------------------------
# residual checks of the defining identities
# ---------------------------------------------------------------------------

def kde_residual_many(
    geo: ChartedGeometry,
    Z: np.ndarray,
    sigma: float,
):
    """Vectorized defect of df/dsigma + X_E(f) - (theta^A(X_E) - E).

    df/dsigma + X_E(f) is one derivative of f along (X_E, 1) in the columns
    (x, p, sigma): one ``phase_gradient`` call whose contour rows each flow
    to their own -sigma in one batched flow.  Returns (f, ok, reasons,
    residuals): f_sigma and the flags of ``phase_gradient`` (a row whose
    contour left the tube fails, with NaN f and defect), and the defects.

    The identity holds for any 1-form A, whether or not dA = beta, so it
    cannot see a wrong potential; ``dbar_residual_many`` does.
    """
    return run(kde_residual_many_gen(geo, Z, sigma))


def kde_residual_many_gen(geo: ChartedGeometry, Z: np.ndarray, sigma: float):
    """``kde_residual_many`` as a flow generator."""
    Z = np.asarray(Z, dtype=float)
    n = geo.dim
    x, p = Z[:, :n], Z[:, n:]
    xdot, pdot = field_components(geo, x, p)
    along = np.concatenate([xdot, pdot, np.ones((len(Z), 1))], axis=1)
    f, ok, reasons, deriv = yield from phase_gradient_gen(
        lambda rows: potential_f_many_gen(geo, rows[:, :-1], rows[:, -1]),
        np.column_stack([Z, np.full(len(Z), sigma)]), along[:, None, :])
    rhs = energy(geo, x, p) + np.einsum("mj,mj->m", geo.potential(x), xdot)
    return f, ok, reasons, np.abs(deriv[:, 0] - rhs)


def dbar_residual_many(
    geo: ChartedGeometry,
    Z: np.ndarray,
    frames_conj: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, list, np.ndarray]:
    """Vectorized defect of dbar f_{-i} = (theta^A)^(0,1).

    ``frames_conj`` is (m, 2n, n): per-row (0,1) direction columns, along
    which ``phase_gradient`` differentiates f_{-i}.  A row whose columns are
    not finite (a failed frame) fails with ``REASON_DIRECTION``, NaN f and
    a NaN defect.

    Returns (f, ok, reasons, residuals): f_{-i} and the flags of
    ``phase_gradient`` (a row whose contour left the tube fails, with NaN f
    and defect), and the defects.
    """
    return run(dbar_residual_many_gen(geo, Z, frames_conj))


def dbar_residual_many_gen(geo: ChartedGeometry, Z: np.ndarray, frames_conj: np.ndarray):
    """``dbar_residual_many`` as a flow generator."""
    Z = np.asarray(Z, dtype=float)
    n = geo.dim
    f, ok, reasons, deriv = yield from phase_gradient_gen(
        lambda rows: potential_f_many_gen(geo, rows, -1j), Z, frames_conj.swapaxes(1, 2))
    theta = Z[:, n:] + geo.potential(Z[:, :n])  # theta^A = (p + A) dx has no dp part
    defect = deriv - np.einsum("mj,mjk->mk", theta, frames_conj[:, :n])
    return f, ok, reasons, np.abs(defect).max(axis=1)


# ---------------------------------------------------------------------------
# closed-form flat potentials
# ---------------------------------------------------------------------------

def _coth_times(B: float, mass_freq: float) -> float:
    """B coth(B/mass_freq), and its limit mass_freq at B = 0.  tanh is
    exact for tiny arguments (tanh(x) = x) and saturates at 1 for large ones,
    so the quotient needs no series branch and never overflows."""
    return B / math.tanh(B / mass_freq) if B else mass_freq


def _kappa_xyuv(B: float, mass_freq: float, x, y, u, v, tanh_coefficient: float):
    """kappa1 with tanh coefficient c as a polynomial in the real coordinates
    x + i y = z1, u + i v = z2 (c = 0 gives kappa2); the polynomial continues
    holomorphically to complex (x, y, u, v)."""
    return (-B * (u * y - v * x) + _coth_times(B, mass_freq) * (v**2 + y**2)
            + tanh_coefficient * B * math.tanh(B / mass_freq / 2)
            * (x**2 - y**2 + u**2 - v**2))


def kappa2_flat(B: float, mass_freq: float, z1: complex, z2: complex) -> float:
    """Kaehler potential Re(2i f_{-i}) on the plane, in complex coordinates:

    kappa2 = -B (u y - v x) + B coth(B/mass_freq) (v^2 + y^2),
    z1 = x + i y, z2 = u + i v.  Not adapted to theta^A.
    """
    return _kappa_xyuv(B, mass_freq, z1.real, z1.imag, z2.real, z2.imag, 0.0)


def kappa1_flat(B: float, mass_freq: float, z1: complex, z2: complex) -> float:
    """Adapted Kaehler potential 2i f_{-i} + g on the plane.

    kappa1 = kappa2 + (1/2) B tanh(B/(2 mass_freq)) (x^2 - y^2 + u^2 - v^2).
    The coefficient 1/2 of the tanh term is the one for which the identity
    Im dbar kappa1 = theta^A holds; the candidate 1 fails it (see
    ``resolve_kappa1_coefficient``).
    """
    return _kappa_xyuv(B, mass_freq, z1.real, z1.imag, z2.real, z2.imag, 0.5)


def resolve_kappa1_coefficient(B: float, mass_freq: float, J: np.ndarray, samples: np.ndarray):
    """Empirically select the tanh coefficient of kappa1 by the dbar test.

    For each candidate c in (1/2, 1) evaluates the worst defect of
    (1/2) d kappa1 (J X) = theta^A(X) over the sample points (J is the flat
    complex structure matrix, constant on the plane).  Returns
    (coefficient, residuals dict): the candidate with the smaller defect,
    whether or not that defect is small; the caller bounds it.
    """
    from .oracles import flat_complex_coordinates

    Z = np.asarray(samples, dtype=float)
    A = 0.5 * (B * np.stack([-Z[:, 1], Z[:, 0]], axis=1))
    theta = np.concatenate([Z[:, 2:] + A, np.zeros((len(Z), 2))], axis=1)
    residuals = {}
    for c in (0.5, 1.0):
        def kappa1(rows, c=c):
            # Re z and Im z continued holomorphically: (z(w) +- conj z(conj w)) / 2
            zc = flat_complex_coordinates(B, mass_freq, rows)
            zr = flat_complex_coordinates(B, mass_freq, rows.conj()).conj()
            re, im = (zc + zr) / 2, (zc - zr) / 2j
            return _kappa_xyuv(B, mass_freq, re[:, 0], im[:, 0], re[:, 1], im[:, 1], c), True, None

        lhs = 0.5 * (phase_gradient(kappa1, Z, np.eye(4))[3] @ J)
        residuals[c] = float(np.abs(lhs - theta).max())
    return (0.5 if residuals[0.5] <= residuals[1.0] else 1.0), residuals


# ---------------------------------------------------------------------------
# holomorphic extensions and section weights
# ---------------------------------------------------------------------------

def holomorphic_extension(
    geo: ChartedGeometry,
    f: Callable[[np.ndarray], np.ndarray],
    Z: np.ndarray,
    t=1j,
):
    """The holomorphic extension f o pi o Phi_t at every row of Z = [x, p].

    One tangent-free flow to t (any time ``flow_many`` takes); ``f`` maps the
    (k, n) complex base points x of the ok rows to (k, ...) values, and
    must be evaluable there (any analytic closed form qualifies).  A failed
    row gets NaN in both the real and the imaginary part.

    Returns (values, ok, reasons) with values of shape (m, ...).
    """
    return run(holomorphic_extension_gen(geo, f, Z, t))


def holomorphic_extension_gen(geo: ChartedGeometry, f: Callable, Z: np.ndarray, t=1j):
    """``holomorphic_extension`` as a flow generator."""
    res = yield from flow_many_gen(geo, Z, t, tangent=False)
    vals = np.asarray(f(res.x[res.ok]))
    values = np.full((len(res.ok),) + vals.shape[1:], complex(np.nan, np.nan))
    values[res.ok] = vals
    return values, res.ok, res.reasons


def section_weight(geo: ChartedGeometry, z: np.ndarray, k: int) -> complex:
    """Local holomorphic section weight exp(-i k f_{-i}(z)) at the phase row
    z (2n,).

    |weight|^2 = exp(-k kappa2), the Gaussian-type density weighting the
    inner product of holomorphic sections of the k-th tensor power.
    """
    if not (isinstance(k, (int, np.integer)) and k >= 1):
        raise ValueError("k must be a positive integer")
    return complex(np.exp(-1j * k * potential_f(geo, z, -1j)))
