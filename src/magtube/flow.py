"""Twisted Hamiltonian flow in real and complex time.

The equations of motion in a chart are

    dx^l/ds = g^{lj}(x) p_j
    dp_l/ds = -(1/2) dg^{jk}/dx^l p_j p_k + beta_{lj}(x) g^{jk}(x) p_k

integrated together with the line integral dq/ds = A_j(x) dx^j/ds of the
vector potential along the base trajectory and, only when the caller asks for
it (``tangent=True``, the default), the first variational equation
dJ/ds = DX(z) J for the transported tangent map.  The phase point and the
quadrature need neither the field Jacobian DX nor the second derivatives of
the geometry, so a tangent-free flow skips them.

Complex time: the system is integrated along a polyline in the complex time
disk (each row along its own straight path when the rows have their own
targets); since the right-hand side is holomorphic the result is path independent
wherever the continuation exists, which the verification suite checks rather
than assumes.  The integrator is the DOP853 8(5,3) Runge-Kutta pair of
Dormand and Prince (Hairer, Norsett and Wanner, Solving ODEs I, Sec. II.10)
acting on the complexified state, shared-stepsize over an optional batch axis
with per-row failure masking; a step's first stage is the field at its start
point, evaluated once for every attempt from there and never at the end of
the path.  Each right-hand-side call reads the geometry through one
``geo.jet`` call: first order for the field and the quadrature, second order
with the tangent map for the variational term.  That term is formed by the
blocks of DX (Hairer, Norsett and Wanner, Sec. I.14) without building DX,
and the blocks and contractions whose factor the jet reports as identically
zero (``None``; dg, d2g and dbeta on the flat chart) are skipped.

The integrator has one configuration: its tolerances, step budget, smallest
step and momentum cap are the module constants ``REL_TOL``, ``ABS_TOL``,
``MAX_STEPS``, ``MIN_STEP`` and ``P_CAP``, not parameters; the only option of
a flow is whether it carries the tangent map.  Where a row must stay is
decided per row: a row whose start point and path are real must stay inside
the real chart box (``CHART_EXIT``), every other row inside the chart's
complex validity region (``BLOWUP``), whatever else is in its batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dop853 as _dop
from .geometry import ChartedGeometry, PhasePoint

__all__ = [
    "ComplexTime",
    "FlowState",
    "BatchFlowResult",
    "FlowError",
    "BlowUpError",
    "ChartExitError",
    "StepSizeError",
    "hamiltonian_field",
    "field_components",
    "flow_real",
    "flow_complex",
    "flow_many",
    "radius_estimate",
]

DISK_RADIUS = 1.25  # 1 + epsilon with epsilon = 0.25

# Integrator constants; they aim at ~1e-8 end-to-end accuracy in the
# verification suites.
REL_TOL = 1e-11
ABS_TOL = 1e-13
MAX_STEPS = 100_000  # attempted steps per flow; past it every active row fails TOL
MIN_STEP = 1e-14  # times max(1, segment length): below it rejected rows fail TOL
P_CAP = 1e8  # a row with |p| above it fails BLOWUP

REASON_BLOWUP = "BLOWUP"
REASON_CHART_EXIT = "CHART_EXIT"
REASON_TOL = "TOL"


class FlowError(RuntimeError):
    reason = "FLOW"

    def __init__(self, msg, time=None):
        super().__init__(msg)
        self.time = time


class BlowUpError(FlowError):
    """Trajectory left the geometry's complex validity region: the initial
    point is outside the continuation tube (expected far from the
    zero-section, not a bug)."""

    reason = REASON_BLOWUP


class ChartExitError(FlowError):
    """Real trajectory left the real chart box."""

    reason = REASON_CHART_EXIT


class StepSizeError(FlowError):
    """Requested accuracy unreachable / step size underflow."""

    reason = REASON_TOL


def _raise_for(reason, time):
    if reason == REASON_CHART_EXIT:
        raise ChartExitError("trajectory left the chart box", time)
    if reason == REASON_TOL:
        raise StepSizeError("step size underflow / accuracy unreachable", time)
    raise BlowUpError("trajectory left the continuation tube", time)


@dataclass(frozen=True)
class ComplexTime:
    """A complex time target with a continuation path from 0.

    The path is a polyline given by its waypoints after the origin; the
    default is the single straight segment 0 -> target.  A path with a
    non-real waypoint must stay inside the disk of radius ``DISK_RADIUS``
    (waypoints suffice: the disk is convex); a real path carries no disk
    constraint, since the disk bounds the analytic continuation only.
    """

    target: complex
    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "target", complex(self.target))
        path = tuple(complex(w) for w in self.path) or (self.target,)
        if abs(path[-1] - self.target) > 0:
            raise ValueError("path must end at the target")
        object.__setattr__(self, "path", path)
        if any(w.imag != 0.0 for w in path):
            for w in path:
                if abs(w) > DISK_RADIUS + 1e-12:
                    raise ValueError(f"waypoint {w} outside the time disk of radius {DISK_RADIUS}")

    @property
    def waypoints(self):
        return (0.0 + 0.0j,) + self.path

    def reversed(self) -> "ComplexTime":
        """Path from 0 to -target, mirror image of this path."""
        return ComplexTime(-self.target, tuple(-w for w in self.path))


def as_complex_time(t) -> ComplexTime:
    if isinstance(t, ComplexTime):
        return t
    return ComplexTime(complex(t))


@dataclass
class FlowState:
    """Flowed phase point with quadrature and (if carried) tangent map."""

    x: np.ndarray
    p: np.ndarray
    jac: Optional[np.ndarray]
    quad: complex
    time: complex
    det_min: float = np.inf
    steps: int = 0

    @property
    def phase_point(self) -> PhasePoint:
        return PhasePoint(self.x, self.p)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x, self.p])

    def is_real(self, tol: float = 1e-9) -> bool:
        return bool(
            np.abs(self.x.imag).max() < tol
            and np.abs(self.p.imag).max() < tol
            and (self.jac is None or np.abs(self.jac.imag).max() < tol)
        )


@dataclass
class BatchFlowResult:
    """Vectorized flow result; failed rows carry a reason code.  ``time`` is
    the common target, or the (m,) array of per-row targets.

    With the tangent map its determinant is sampled at accepted steps only,
    so ``det_min`` is the minimum over those few points (a handful per unit
    time with the eighth-order pair), not over the path.  ``jac`` is None
    and ``det_min`` NaN for a tangent-free flow.
    """

    x: np.ndarray
    p: np.ndarray
    jac: Optional[np.ndarray]
    quad: np.ndarray
    ok: np.ndarray
    reasons: list
    det_min: np.ndarray
    steps: int
    time: complex | np.ndarray

    def state(self, i: int) -> FlowState:
        """Row i as a FlowState at its own time; raises the row's FlowError
        if it failed."""
        time = self.time[i] if np.ndim(self.time) else self.time
        if not self.ok[i]:
            _raise_for(self.reasons[i], time)
        return FlowState(
            self.x[i], self.p[i], None if self.jac is None else self.jac[i],
            complex(self.quad[i]),
            time, float(self.det_min[i]), self.steps,
        )


# ---------------------------------------------------------------------------
# vector field and its derivative
# ---------------------------------------------------------------------------

def _bmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over stacks of small matrices, as a sum of outer products.

    numpy's stacked matmul makes one BLAS call per matrix, which at 2x2 to
    4x4 costs several times the arithmetic; a loop over the shared index
    runs each term over the whole batch at once.
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    for k in range(1, a.shape[-1]):
        out += a[..., :, k, None] * b[..., None, k, :]
    return out


def _contract_mid(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum_j d[..., l, j, w] v[..., j] for a derivative array d.

    With d = dg and v = p this is T[l, w], the x-derivative of dx/ds.  It
    also gives the quadratic term of dp/ds, sum_jk dg^{jk}/dx^l p_j p_k =
    sum_j p_j T[j, l], and (g being symmetric) that term's p-derivative,
    -T transposed.
    """
    return _bmm(v[..., None, None, :], d)[..., 0, :]


def _field(g, dg, b, p):
    """(dx/ds, dp/ds, T) from the jet's g, dg and beta, with
    T = _contract_mid(dg, p); T is None where dg is."""
    gp = np.einsum("...jk,...k->...j", g, p)
    pdot = np.einsum("...lj,...j->...l", b, gp)
    if dg is None:
        return gp, pdot, None
    T = _contract_mid(dg, p)
    return gp, -0.5 * np.einsum("...j,...jl->...l", p, T) + pdot, T


def field_components(geo: ChartedGeometry, x: np.ndarray, p: np.ndarray):
    """(dx/ds, dp/ds) of the twisted Hamiltonian field, batched."""
    g, dg, b, _ = geo.jet(x, 1)
    xdot, pdot, _ = _field(g, dg, b, p)
    return xdot, pdot


def hamiltonian_field(geo: ChartedGeometry, z: PhasePoint) -> np.ndarray:
    """The Hamiltonian vector field of E for the twisted form, at one point."""
    if not geo.in_complex_region(z.x):
        raise BlowUpError("point outside the geometry's complex validity region")
    xdot, pdot = field_components(geo, z.x, z.p)
    return np.concatenate([xdot, pdot])


def _rhs(geo: ChartedGeometry, Y: np.ndarray) -> np.ndarray:
    """Right-hand side for the packed state (see ``_pack``).

    The geometry is read once, by one ``geo.jet`` call.  A tangent-free
    state [x, p, q] gets the field and the quadrature from the first-order
    jet.  With [x, p, q, vec(jac)] the second-order jet also gives the
    variational term DX @ jac, formed by blocks without building DX: with
    jac = [Jx; Jp], T = _contract_mid(dg, p) and
    Q = -(1/2) d2g(p, p) + dbeta . xdot,

        d(Jx) = T Jx + g Jp,    d(Jp) = Q Jx - T^T Jp + beta d(Jx).

    Derivatives the jet returns as None vanish identically, and the blocks
    they would give are skipped (on the flat chart only g Jp and beta d(Jx)
    remain).
    """
    m = Y.shape[0]
    n = geo.dim
    n2 = 2 * n
    x = Y[:, :n]
    p = Y[:, n:n2]
    tangent = Y.shape[1] > n2 + 1
    jet = geo.jet(x, 2 if tangent else 1)
    g, dg, b, A = jet[:4]
    xdot, pdot, T = _field(g, dg, b, p)
    out = np.empty_like(Y)
    out[:, :n] = xdot
    out[:, n:n2] = pdot
    out[:, n2] = np.einsum("mj,mj->m", A, xdot)
    if not tangent:
        return out

    J = Y[:, n2 + 1 :].reshape(m, n2, n2)
    Jx, Jp = J[:, :n], J[:, n:]
    d2g, db = jet[4:]
    dJx = _bmm(g, Jp)
    if T is not None:
        dJx += _bmm(T, Jx)
    dJp = _bmm(b, dJx)
    if T is not None:
        dJp -= _bmm(T.transpose(0, 2, 1), Jp)
    Q = None
    if d2g is not None:
        d2gp = np.einsum("mjklw,mj->mklw", d2g, p)
        Q = -0.5 * np.einsum("mklw,mk->mlw", d2gp, p)
    if db is not None:
        dbx = _contract_mid(db, xdot)
        Q = dbx if Q is None else Q + dbx
    if Q is not None:
        dJp += _bmm(Q, Jx)
    dJ = out[:, n2 + 1 :].reshape(m, n2, n2)
    dJ[:, :n] = dJx
    dJ[:, n:] = dJp
    return out


# ---------------------------------------------------------------------------
# DOP853 8(5,3), complex state, batched with per-row masking
# ---------------------------------------------------------------------------

# one coefficient matrix for the step: row 0 gives the 8th-order solution,
# rows 1 and 2 the 5th- and 3rd-order error estimates
_WEIGHTS = np.stack([_dop.B, _dop.E5, _dop.E3])


def _pack(Z0: np.ndarray, n: int, tangent: bool) -> np.ndarray:
    """Start state [x, p, q = 0], followed by vec(jac) = vec(1) if the
    tangent map is carried."""
    m = Z0.shape[0]
    D = 2 * n + 1 + (4 * n * n if tangent else 0)
    Y = np.zeros((m, D), dtype=complex)
    Y[:, : 2 * n] = Z0
    if tangent:
        Y[:, 2 * n + 1 :] = np.eye(2 * n, dtype=complex).reshape(-1)
    return Y


def _check_rows(geo, Y, real_rows):
    """Per-row validity; returns (bad mask, reason array).

    A real row must stay inside the real chart box (CHART_EXIT), any other
    row inside the complex validity region (BLOWUP).
    """
    n = geo.dim
    x = Y[:, :n]
    p = Y[:, n : 2 * n]
    finite = np.isfinite(Y).all(axis=1)
    chart_bad = np.where(
        real_rows,
        (np.abs(x.real) >= geo.chart_box).any(axis=1),
        (np.abs(x) >= geo.complex_radius).any(axis=1),
    )
    reason_chart = np.where(real_rows, REASON_CHART_EXIT, REASON_BLOWUP)
    p_bad = (np.abs(p) > P_CAP).any(axis=1) | ~finite
    reasons = np.where(p_bad, REASON_BLOWUP, np.where(chart_bad, reason_chart, ""))
    return chart_bad | p_bad, reasons


def _step_factor(err_norm: float) -> float:
    """Next step over this one: 0.9 err^(-1/8), clamped to [0.2, 10]."""
    if err_norm == 0.0:
        return 10.0
    return min(10.0, max(0.2, 0.9 * err_norm ** (-1.0 / 8.0)))


def _error_norms(Y, y_new, err5, err3, h):
    """Hairer's combined 5th/3rd-order error norm of each row.

    err5 and err3 are the unscaled estimator sums (without the step h); a
    row's norm is h |e5|^2 / sqrt(D (|e5|^2 + 0.01 |e3|^2)) with both errors
    divided componentwise by ABS_TOL + REL_TOL max(|Y|, |y_new|).
    Non-finite rows get an infinite norm.
    """
    scale = ABS_TOL + REL_TOL * np.maximum(np.abs(Y), np.abs(y_new))
    with np.errstate(divide="ignore"):
        e5 = np.square(np.abs(err5) / scale).sum(axis=1)
        e3 = np.square(np.abs(err3) / scale).sum(axis=1)
        denom = e5 + 0.01 * e3
        err_row = h * e5 / np.sqrt(denom * Y.shape[1])
    err_row[denom == 0.0] = 0.0
    err_row[~np.isfinite(err_row) | ~np.isfinite(y_new).all(axis=1)] = np.inf
    return err_row


def _integrate_path(
    geo: ChartedGeometry,
    Z0: np.ndarray,
    waypoints: Sequence[complex],
    *,
    tangent: bool = True,
):
    """Integrate the packed system along complex-time polylines.

    Z0: (m, 2n) complex start states.  ``waypoints`` (K,) is one polyline
    for every row; (m, K) gives each row its own.  A row whose start state
    and path are real is checked against the real chart box, any other row
    against the complex validity region (``_check_rows``).  On each segment
    the shared step parameter runs over the longest row segment L, and row r
    advances by h seg_r / L.  Step control (``_error_norms``) still sees h,
    which overstates the local error of a row whose segment is shorter: the
    control is conservative for such rows.  Returns (Y, ok, reasons, det_min,
    steps), where steps counts attempted (accepted and rejected) shared
    steps.  The tangent map (and with it det_min, NaN otherwise) is carried
    only if ``tangent``.
    """
    Z0 = np.asarray(Z0, dtype=complex)
    m = Z0.shape[0]
    n = geo.dim
    W = np.asarray(waypoints, dtype=complex)
    W = np.broadcast_to(W, (m, W.shape[-1]))
    real_rows = (Z0.imag == 0.0).all(axis=1) & (W.imag == 0.0).all(axis=1)
    Y = _pack(Z0, n, tangent)
    active = np.ones(m, dtype=bool)
    reasons = np.array([""] * m, dtype=object)
    det_min = np.full(m, np.inf if tangent else np.nan)
    Yfail = Y.copy()
    benign = _pack(np.zeros((1, 2 * n)), n, tangent)[0]  # chart origin, jac = 1
    steps = 0

    def fail_rows(mask, why):
        """Record failing rows and park them at a benign state."""
        Yfail[mask] = Y[mask]
        if isinstance(why, str):
            reasons[mask] = why
        else:
            reasons[mask] = why[mask]
        active[mask] = False
        Y[mask] = benign

    bad, why = _check_rows(geo, Y, real_rows)
    if bad.any():
        fail_rows(bad, why)

    # K[i] holds the field at stage i; K[0] is the field at Y, reused by
    # every step attempted from the same Y.  It is evaluated when a step
    # needs it, so the field at the end point of the path is never formed.
    K = np.empty((_dop.N_STAGES,) + Y.shape, dtype=complex)
    k0_stale = True
    Kr = K.reshape(_dop.N_STAGES, -1).view(np.float64)

    def combine(weights, stages):
        """weights @ K[:stages] as complex states, computed as one real
        matrix product on the float view of the stages."""
        return (weights @ Kr[:stages]).view(complex).reshape(weights.shape[:-1] + Y.shape)

    with np.errstate(over="ignore", invalid="ignore"):
        for seg in np.diff(W, axis=1).T:
            if not active.any():
                break
            # |seg| and seg / length as Python's complex abs and complex /
            # float form them (hypot; Smith's rule with a zero imaginary
            # divisor), to the last bit and the sign of zero
            length = float(np.hypot(seg.real, seg.imag).max())
            if length == 0:
                continue
            direction = np.empty_like(seg)
            direction.real = (seg.real + seg.imag * 0.0) / length
            direction.imag = (seg.imag - seg.real * 0.0) / length
            s = 0.0
            h = min(0.1, length)
            while s < length and active.any():
                steps += 1
                if steps > MAX_STEPS:
                    fail_rows(active.copy(), REASON_TOL)
                    break
                h = min(h, length - s)
                H = (h * direction)[:, None]
                if k0_stale:
                    K[0] = _rhs(geo, Y)
                    k0_stale = False
                for i in range(1, _dop.N_STAGES):
                    K[i] = _rhs(geo, Y + H * combine(_dop.A[i, :i], i))
                y8, err5, err3 = combine(_WEIGHTS, _dop.N_STAGES)
                y_new = Y + H * y8
                err_row = _error_norms(Y, y_new, err5, err3, h)
                err_row[~active] = 0.0
                err_norm = err_row.max()
                if err_norm <= 1.0:
                    Y = y_new
                    s += h
                    bad, why = _check_rows(geo, Y, real_rows)
                    bad &= active
                    if bad.any():
                        fail_rows(bad, why)
                    k0_stale = True
                    if tangent and active.any():
                        J = Y[:, 2 * n + 1 :].reshape(m, 2 * n, 2 * n)
                        d = np.abs(np.linalg.det(J[active]))
                        det_min[active] = np.minimum(det_min[active], d)
                    h = h * _step_factor(err_norm)
                else:
                    if h <= MIN_STEP * max(1.0, length):
                        # cannot resolve: fail the offending rows, keep going
                        fail_rows(active & (err_row > 1.0), REASON_TOL)
                        k0_stale = True
                        continue
                    h = h * _step_factor(err_norm)

    failed = reasons != ""
    Y[failed] = Yfail[failed]
    ok = ~failed
    return Y, ok, [r if r else None for r in reasons], det_min, steps


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def flow_real(
    geo: ChartedGeometry,
    z0: PhasePoint,
    sigma: float,
    *,
    tangent: bool = True,
) -> FlowState:
    """Flow a real phase point for a real time, with potential quadrature
    and (if ``tangent``) tangent map.  Raises on chart exit or integration
    failure."""
    if not z0.is_real(1e-9):
        raise ValueError("flow_real requires a real initial point")
    Z0 = z0.as_vector()[None, :]
    return flow_many(geo, Z0, float(sigma), tangent=tangent).state(0)


def flow_complex(
    geo: ChartedGeometry,
    z0: PhasePoint,
    t,
    *,
    tangent: bool = True,
) -> FlowState:
    """Analytic continuation of the flow along a complex-time path.

    ``t`` is a ComplexTime (or a bare complex target, meaning the straight
    path).  The start point must be real; holomorphy makes the result path
    independent, which is a verified property rather than an assumption.
    """
    if not z0.is_real(1e-9):
        raise ValueError("flow_complex requires a real initial point")
    Z0 = z0.as_vector()[None, :]
    return flow_many(geo, Z0, as_complex_time(t), tangent=tangent).state(0)


def flow_many(
    geo: ChartedGeometry,
    Z0: np.ndarray,
    t,
    *,
    tangent: bool = True,
) -> BatchFlowResult:
    """Flow a batch of phase points (rows of Z0 = [x, p]) in one integration.

    ``t`` is a common time (a number, or a ComplexTime with its path) or an
    (m,) array of per-row targets, each reached along the straight path from
    0.  Rows that fail are reported through ``ok`` and ``reasons`` instead
    of raising.  The region is decided per row: a real row on a real path
    must stay inside the chart box (else ``CHART_EXIT``), every other row
    inside the complex validity region (else ``BLOWUP``).  Real times carry
    no disk constraint, as in ``ComplexTime``.  With
    ``tangent=False`` only the phase point and the quadrature are
    integrated: ``jac`` is None and ``det_min`` NaN, and neither the field
    Jacobian nor the geometry's second derivatives are evaluated.
    """
    if np.ndim(t):
        target = np.asarray(t)
        if (np.abs(target[target.imag != 0.0]) > DISK_RADIUS + 1e-12).any():
            raise ValueError(f"target outside the time disk of radius {DISK_RADIUS}")
        waypoints = np.stack([np.zeros(len(target)), target], axis=1)
    else:
        tt = as_complex_time(t)
        waypoints = tt.waypoints
        target = tt.target
    Y, ok, reasons, det_min, steps = _integrate_path(
        geo, np.asarray(Z0, dtype=complex), waypoints, tangent=tangent
    )
    n = geo.dim
    return BatchFlowResult(
        x=Y[:, :n],
        p=Y[:, n : 2 * n],
        jac=Y[:, 2 * n + 1 :].reshape(-1, 2 * n, 2 * n) if tangent else None,
        quad=Y[:, 2 * n],
        ok=ok,
        reasons=reasons,
        det_min=det_min,
        steps=steps,
        time=target,
    )


def radius_estimate(C: float, A: float, dist: float) -> float:
    """Guaranteed complex-time radius (1/C) log(A / dist) near a fixed point.

    C is a Lipschitz-type bound |F(z)| <= C |z - z0| on the ball of radius A,
    dist = |w - z0| the distance of the start point from the fixed point.
    The radius diverges as dist -> 0 and is zero (with a warning) once
    dist >= A.
    """
    if not (C > 0):
        raise ValueError("C must be positive")
    if not (dist > 0):
        raise ValueError("dist must be positive")
    if dist >= A:
        warnings.warn("start point outside the bound ball: zero guaranteed radius")
        return 0.0
    return float(np.log(A / dist) / C)
