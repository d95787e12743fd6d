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

Frame transport and integrability are batched over phase rows and report a
failed row through their ``ok`` flags and reasons instead of raising;
``frame_at`` is the one-row case of ``frames_at_many`` and raises the row's
FlowError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flow import as_complex_time, flow_many, _raise_for
from .geometry import ChartedGeometry, PhasePoint, twisted_symplectic_matrix
from .kahler import phase_gradient

__all__ = [
    "LagrangianFrame",
    "ACSPointData",
    "orthonormalize",
    "subspace_distance",
    "frame_at",
    "frames_at_many",
    "transversality_check",
    "positivity_matrix",
    "assemble_J",
    "integrability_residual_many",
    "normalized_zero_section_frame_change",
    "TRANSVERSALITY_THRESHOLD",
]

TRANSVERSALITY_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# frame linear algebra
# ---------------------------------------------------------------------------

def orthonormalize(F: np.ndarray) -> np.ndarray:
    """QR-orthonormalize columns with positive-real diagonal of R.

    The phase convention makes the result a deterministic function of the
    input columns; it uses complex conjugates, so the result is not
    holomorphic in the base point and is never differentiated (brackets
    use the raw transported columns).  Batched over leading axes.
    """
    Q, R = np.linalg.qr(np.asarray(F))
    d = np.diagonal(R, axis1=-2, axis2=-1).copy()
    d = np.where(np.abs(d) == 0, 1.0, d)
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
    return np.linalg.norm(Pa - Pb, ord=2, axis=(-2, -1))


@dataclass
class LagrangianFrame:
    """Orthonormal frame spanning the transported vertical subspace."""

    base: PhasePoint
    time: complex
    F: np.ndarray
    # twisted-symplectic defect max|M^T Omega(w) M - Omega(z)| of the
    # transport M = DPhi_{-t}(z), w = Phi_{-t}(z)
    inverse_residual: float = 0.0

    @property
    def dim(self) -> int:
        return self.F.shape[1]


@dataclass
class ACSPointData:
    """Almost complex structure data at accepted points, batched over the
    leading axes of the frames: J (..., 2n, 2n), the positivity spectrum
    (..., n), and one transversality and imaginary residual per point."""

    J: np.ndarray
    positivity_spectrum: np.ndarray
    transversality: np.ndarray
    imag_residual: np.ndarray  # |Im| left over when realifying J


# ---------------------------------------------------------------------------
# frame transport
# ---------------------------------------------------------------------------

def frame_at(
    geo: ChartedGeometry,
    z: PhasePoint,
    t,
) -> LagrangianFrame:
    """Transported vertical frame at a real point for complex time t.

    The one-row case of ``frames_at_many``; raises the row's FlowError if
    the transport fails.
    """
    t = as_complex_time(t)
    F, ok, reasons, inv_res = frames_at_many(geo, z.as_vector()[None, :], t)
    if not ok[0]:
        _raise_for(reasons[0], t.target)
    return LagrangianFrame(base=z, time=t.target, F=F[0],
                           inverse_residual=float(inv_res[0]))


def _transport(geo: ChartedGeometry, Z: np.ndarray, t):
    """Raw transported vertical columns at every row of Z.

    Flows each row z backwards along the reversed path to w = Phi_{-t}(z)
    with the tangent map M = DPhi_{-t}(z); the transported vertical columns
    at z are X = M^{-1} [0; 1], holomorphic in z.  The inverse residual is
    the twisted-symplectic defect max|M^T Omega(w) M - Omega(z)|, the
    residual of the symplectic inverse identity
    M^{-1} = Omega(z)^{-1} M^T Omega(w).  A failed row is parked at M = I,
    so its columns are finite but meaningless, and gets an infinite
    residual.

    Returns (X, ok, reasons, inverse_residuals) with X of shape (m, 2n, n).
    """
    t = as_complex_time(t)
    Z = np.asarray(Z, dtype=complex)
    back = flow_many(geo, Z, t.reversed())
    n = geo.dim
    ok = back.ok
    M, W = back.jac, back.x
    M[~ok] = np.eye(2 * n)  # parked; masked out below
    W[~ok] = 0.0
    vertical = np.zeros((2 * n, n))
    vertical[n:] = np.eye(n)
    X = np.linalg.solve(M, np.broadcast_to(vertical, (len(Z), 2 * n, n)))
    defect = (M.swapaxes(1, 2) @ twisted_symplectic_matrix(geo, W) @ M
              - twisted_symplectic_matrix(geo, Z[:, :n]))
    inv_res = np.abs(defect).max(axis=(1, 2))
    inv_res[~ok] = np.inf
    return X, ok, back.reasons, inv_res


def frames_at_many(
    geo: ChartedGeometry,
    Z: np.ndarray,
    t,
):
    """Batch frame transport: the column-orthonormalized transported
    vertical columns of one backward flow with the tangent map, and its
    twisted-symplectic defect as the inverse residual.  A failed row gets an
    all-NaN frame and an infinite residual.

    Returns (F, ok, reasons, inverse_residuals) with F of shape (m, 2n, n).
    """
    X, ok, reasons, inv_res = _transport(geo, Z, t)
    F = orthonormalize(X)
    F[~ok] = np.nan
    return F, ok, reasons, inv_res


# ---------------------------------------------------------------------------
# pointwise structure checks
# ---------------------------------------------------------------------------

def transversality_check(F: np.ndarray):
    """Smallest singular value of [F, conj F]; > threshold certifies that the
    subspace meets its conjugate only at zero.  Batched over the leading axes
    of the frames F (..., 2n, n), one value per frame."""
    S = np.concatenate([F, F.conj()], axis=-1)
    return np.linalg.svd(S, compute_uv=False).min(axis=-1)


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
    ``positivity_matrix`` is; raises LinAlgError if any frame is not
    transversal to its conjugate.
    """
    F = np.asarray(F)
    n = F.shape[-1]
    smin = transversality_check(F)
    if np.any(smin < TRANSVERSALITY_THRESHOLD):
        raise np.linalg.LinAlgError(
            f"frame not transversal to its conjugate (smin={np.min(smin):.3e}); "
            "no almost complex structure at this point/time"
        )
    S = np.concatenate([F, F.conj()], axis=-1)
    D = np.diag(np.concatenate([np.full(n, 1j), np.full(n, -1j)]))
    Jc = S @ D @ np.linalg.inv(S)
    return ACSPointData(
        J=Jc.real.copy(),
        positivity_spectrum=np.linalg.eigvalsh(positivity_matrix(geo, x, F)),
        transversality=smin,
        imag_residual=np.abs(Jc.imag).max(axis=(-2, -1)),
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
    gets a NaN defect; the other rows are computed.

    Returns (F, ok, reasons, residuals): the orthonormalized centre columns,
    ok flags and reasons of the centre rows, as ``frames_at_many`` gives
    them, and the defects.
    """
    X, ok, reasons, dX = phase_gradient(lambda rows: _transport(geo, rows, t)[:3], Z,
                                        np.eye(2 * geo.dim))
    F = orthonormalize(X)
    F[~ok] = np.nan
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
