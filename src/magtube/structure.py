"""Lagrangian frames, the induced almost complex structure, and its checks.

The frame at (z, t) spans the analytic continuation of the flow-transported
vertical subspace: the vertical frame at w = Phi_{-t}(z) is pushed forward by
the tangent map of Phi_{t}.  Since Phi_t o Phi_{-t} = id, that push-forward
is DPhi_{-t}(z)^{-1} [0; 1], so one backward flow with the tangent map gives
the frame and no forward pass is made.  The transport's twisted-symplectic
defect |M^T Omega(w) M - Omega(z)|, M = DPhi_{-t}(z), is reported with every
frame as its inverse residual: it is the residual of the symplectic inverse
identity M^{-1} = Omega(z)^{-1} M^T Omega(w).  Frames are
column-orthonormalized (with a deterministic phase convention) after
transport; every reported quantity is invariant under right multiplication
of the frame by an invertible matrix, so this is a pure conditioning device.

Frame transport, J and integrability are batched over phase rows and report
a failed row through their ``ok`` flags and reasons instead of raising;
``frame_at`` is the one-row case of ``frames_at_many`` and raises the row's
FlowError.  Frame transport takes any time ``flow_many`` takes, per-row
times included, and reverses it as ``-t``.  Each operation that flows has
one body, a flow generator (``frames_at_many_gen``,
``integrability_residual_many_gen``; see ``flow.run``), and its public
function is ``flow.run`` of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import flow_many_gen, raise_first_failure, run
from .geometry import ChartedGeometry, twisted_symplectic_matrix
from .kahler import phase_gradient_gen

__all__ = [
    "ACSPointData",
    "orthonormalize",
    "subspace_distance",
    "frame_at",
    "frames_at_many",
    "frames_at_many_gen",
    "transversality_check",
    "positivity_matrix",
    "assemble_J",
    "integrability_residual_many",
    "integrability_residual_many_gen",
    "normalized_zero_section_frame_change",
    "TRANSVERSALITY_THRESHOLD",
]

TRANSVERSALITY_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# frame linear algebra
# ---------------------------------------------------------------------------
#
# A failed frame is NaN in its real and imaginary parts.  Every function here
# takes batches that hold failed frames: each finite frame is computed as it
# would be alone, and every other frame gives NaN, with no exception and no
# warning.

def _finite(fn, A: np.ndarray):
    """``fn`` over the finite matrices (last two axes) of A, NaN at the others.

    The LAPACK calls that raise for the whole batch on one NaN matrix (the
    SVD, ``eigvalsh``, the 2-norm) go through here; ``fn`` maps a (k, r, c)
    stack to (k, ...) real values."""
    A = np.asarray(A)
    good = np.isfinite(A).all(axis=(-2, -1))
    vals = fn(A[good])
    out = np.full(good.shape + vals.shape[1:], np.nan)
    out[good] = vals
    return out[()]


def orthonormalize(F: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns with positive-real diagonal of R.

    The phase convention makes the result a deterministic function of the
    input columns; it uses complex conjugates, so the result is not
    holomorphic in the base point and is never differentiated (brackets
    use the raw transported columns).  Batched over leading axes; QR gives
    a NaN frame NaN columns, and its diagonal takes no phase.
    """
    Q, R = np.linalg.qr(np.asarray(F))
    d = np.diagonal(R, axis1=-2, axis2=-1)
    d = np.where(np.abs(d) > 0, d, 1.0)
    phase = d / np.abs(d)
    return Q * phase.conj()[..., None, :]


def subspace_distance(A: np.ndarray, B: np.ndarray):
    """sin of the largest principal angle between the column spans.

    Batched over (broadcast) leading axes, one value per pair of matrices.
    Computed as the spectral norm of the difference of orthogonal
    projectors, which stays accurate down to ~1e-15 for nearly equal spans.
    """
    Qa = orthonormalize(A)
    Qb = orthonormalize(B)
    Pa = Qa @ Qa.conj().swapaxes(-1, -2)
    Pb = Qb @ Qb.conj().swapaxes(-1, -2)
    return _finite(lambda P: np.linalg.norm(P, ord=2, axis=(-2, -1)), Pa - Pb)


@dataclass
class ACSPointData:
    """Almost complex structure data, batched over the leading axes of the
    frames: J (..., 2n, 2n), the positivity spectrum (..., n), and one
    transversality, imaginary residual, ok flag and reason (None where ok)
    per point; a failed point has NaN J, spectrum and imaginary residual."""

    J: np.ndarray
    positivity_spectrum: np.ndarray
    transversality: np.ndarray
    imag_residual: np.ndarray  # |Im| left over when realifying J
    ok: np.ndarray
    reasons: np.ndarray


# ---------------------------------------------------------------------------
# frame transport
# ---------------------------------------------------------------------------

def frame_at(geo: ChartedGeometry, z: np.ndarray, t):
    """(F, inverse_residual) at the phase row z (2n,) for the time t.

    The one-row case of ``frames_at_many``; raises the row's FlowError if
    the transport fails.
    """
    F, ok, reasons, inv_res = frames_at_many(geo, np.asarray(z)[None, :], t)
    raise_first_failure(ok, reasons)
    return F[0], float(inv_res[0])


def _transport(geo: ChartedGeometry, Z: np.ndarray, t):
    """Raw transported vertical columns at every row of Z.

    Flows each row z backwards along -t to w = Phi_{-t}(z)
    with the tangent map M = DPhi_{-t}(z); the transported vertical columns
    at z are X = M^{-1} [0; 1], holomorphic in z.  The inverse residual is
    the twisted-symplectic defect max|M^T Omega(w) M - Omega(z)|, the
    residual of the symplectic inverse identity
    M^{-1} = Omega(z)^{-1} M^T Omega(w).  The flow gives a failed row NaN
    M and w, so its columns and residual are NaN.

    Returns (X, ok, reasons, inverse_residuals) with X of shape (m, 2n, n).
    A flow generator (see ``flow.run``).
    """
    Z = np.asarray(Z, dtype=complex)
    back = yield from flow_many_gen(geo, Z, -t)
    n = geo.dim
    M = back.jac
    vertical = np.zeros((2 * n, n))
    vertical[n:] = np.eye(n)
    X = np.linalg.solve(M, np.broadcast_to(vertical, (len(Z), 2 * n, n)))
    defect = (M.swapaxes(1, 2) @ twisted_symplectic_matrix(geo, back.x) @ M
              - twisted_symplectic_matrix(geo, Z[:, :n]))
    return X, back.ok, back.reasons, np.abs(defect).max(axis=(1, 2))


def frames_at_many(
    geo: ChartedGeometry,
    Z: np.ndarray,
    t,
):
    """Batch frame transport: the column-orthonormalized transported
    vertical columns of one backward flow with the tangent map, and its
    twisted-symplectic defect as the inverse residual.  A failed row gets a
    NaN frame and residual.

    Returns (F, ok, reasons, inverse_residuals) with F of shape (m, 2n, n).
    """
    return run(frames_at_many_gen(geo, Z, t))


def frames_at_many_gen(geo: ChartedGeometry, Z: np.ndarray, t):
    """``frames_at_many`` as a flow generator."""
    X, ok, reasons, inv_res = yield from _transport(geo, Z, t)
    return orthonormalize(X), ok, reasons, inv_res


# ---------------------------------------------------------------------------
# pointwise structure checks
# ---------------------------------------------------------------------------

def transversality_check(F: np.ndarray):
    """Smallest singular value of [F, conj F]; > threshold certifies that the
    subspace meets its conjugate only at zero.  Batched over the leading axes
    of the frames F (..., 2n, n), one value per frame."""
    S = np.concatenate([F, F.conj()], axis=-1)
    return _finite(lambda S: np.linalg.svd(S, compute_uv=False).min(axis=-1), S)


def positivity_matrix(geo: ChartedGeometry, x: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Hermitian matrix of the pairing -i omega(Z, conj Z) on frame columns.

    With the convention omega(X, Y) = X . Omega . Y, Omega = [[-beta, 1],
    [-1, 0]], the matrix is i F* Omega F; its positive definiteness for
    Im t > 0 is the Kaehler condition.  Batched over base points x (..., n)
    and frames F (..., 2n, n).
    """
    Om = twisted_symplectic_matrix(geo, x)
    M = 1j * F.conj().swapaxes(-1, -2) @ Om @ F
    return 0.5 * (M + M.conj().swapaxes(-1, -2))


def assemble_J(geo: ChartedGeometry, x: np.ndarray, F: np.ndarray) -> ACSPointData:
    """Unique linear complex structure with the frame span as +i eigenspace.

    J = Re(S diag(+i, -i) S^{-1}) with S = [F, conj F]; the discarded
    imaginary part is reported.  The positivity spectrum is computed on the
    orthonormalized frame, which makes it frame-gauge invariant.  Batched
    over base points x (..., n) and frames F (..., 2n, n), as
    ``positivity_matrix`` is.  A frame whose transversality is below
    ``TRANSVERSALITY_THRESHOLD``, or NaN, fails; S is inverted at the other
    points only, each as it would be alone.
    """
    F = np.asarray(F)
    n = F.shape[-1]
    smin = transversality_check(F)
    ok = smin >= TRANSVERSALITY_THRESHOLD
    S = np.concatenate([F, F.conj()], axis=-1)
    D = np.diag(np.concatenate([np.full(n, 1j), np.full(n, -1j)]))
    Jc = np.full(S.shape, complex(np.nan, np.nan))
    Jc[ok] = S[ok] @ D @ np.linalg.inv(S[ok])
    spectrum = _finite(np.linalg.eigvalsh, positivity_matrix(geo, x, F))
    spectrum[~ok] = np.nan
    reasons = [None if good else f"frame not transversal to its conjugate (smin={s:.3e})"
               for good, s in zip(ok.ravel(), smin.ravel())]
    return ACSPointData(
        J=Jc.real.copy(),
        positivity_spectrum=spectrum,
        transversality=smin,
        imag_residual=np.abs(Jc.imag).max(axis=(-2, -1)),
        ok=ok,
        reasons=np.array(reasons, dtype=object).reshape(ok.shape),
    )


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------

def integrability_residual_many(
    geo: ChartedGeometry,
    Z: np.ndarray,
    t,
):
    """Bracket-closure defects for all rows of Z.

    The raw transported columns X_a are holomorphic in the base point, so
    their derivatives come from ``phase_gradient``: one transport over the
    centre rows and their contour nodes, over the 2n coordinates.  The n
    directions X_a that the bracket contracts are known only after a
    transport of the centre rows, a second flow that is slower at the few
    rows of an ``acs`` grid.  The orthonormalized frame is not
    differentiated, since its phase convention is not holomorphic;
    involutivity does not depend on the choice of frame.  The bracket
    [X_a, X_b] is projected off the span at z and normalised by
    |X_a||X_b|; the max over column pairs vanishes for an involutive
    (integrable) distribution.  A row whose centre or contour left the tube
    fails, with a NaN frame and defect; the other rows are computed.

    ``t`` is any time ``flow_many`` takes.  An (m,) array of per-row times
    rides as one more column with a zero direction component, as kde
    carries sigma, so each contour row flows to its own row's time; a
    number or a ComplexTime stays one flow argument.

    Returns (F, ok, reasons, residuals): the orthonormalized centre columns,
    the ok flags and reasons of ``phase_gradient``, and the defects.
    """
    return run(integrability_residual_many_gen(geo, Z, t))


def integrability_residual_many_gen(geo: ChartedGeometry, Z: np.ndarray, t):
    """``integrability_residual_many`` as a flow generator."""
    def transported(rows, t):
        X, ok, reasons, _ = yield from _transport(geo, rows, t)
        return X, ok, reasons

    V = np.eye(2 * geo.dim)
    if np.ndim(t):
        X, ok, reasons, dX = yield from phase_gradient_gen(
            lambda rows: transported(rows[:, :-1], rows[:, -1]),
            np.column_stack([Z, t]), np.pad(V, ((0, 0), (0, 1))))
    else:
        X, ok, reasons, dX = yield from phase_gradient_gen(lambda rows: transported(rows, t), Z, V)
    F = orthonormalize(X)
    # D[k, a, :, b] = (X_a . grad) X_b; the bracket [X_a, X_b] is
    # D[:, a, :, b] - D[:, b, :, a], projected off the frame span
    D = np.einsum("kja,kjib->kaib", X, dX)
    bracket = D - D.transpose(0, 3, 2, 1)
    proj_out = np.eye(X.shape[1]) - F @ F.conj().swapaxes(1, 2)
    normal = np.linalg.norm(np.einsum("kij,kajb->kaib", proj_out, bracket), axis=2)
    size = np.linalg.norm(X, axis=1)
    return F, ok, reasons, (normal / (size[:, :, None] * size[:, None, :])).max(axis=(1, 2))


# ---------------------------------------------------------------------------
# coordinate normalization at the zero-section
# ---------------------------------------------------------------------------

def normalized_zero_section_frame_change(geo: ChartedGeometry, x0: np.ndarray):
    """Linear chart change making the metric the identity at a point.

    Returns (T, beta_tilde): T = diag(L, L^{-T}) maps tangent vectors of the
    original chart to the normalized one (L g L^T = 1), and beta_tilde is the
    field matrix in normalized coordinates.  Frames transform as T F, and the
    closed-form zero-section expressions hold verbatim with beta_tilde.
    """
    x0 = np.asarray(x0)
    g = np.real(geo.inv_metric(x0))
    R = np.linalg.cholesky(g)  # g = R R^T
    L = np.linalg.inv(R)
    n = geo.dim
    T = np.zeros((2 * n, 2 * n))
    T[:n, :n] = L
    T[n:, n:] = R.T
    beta_tilde = R.T @ np.real(geo.beta(x0)) @ R
    return T, beta_tilde
