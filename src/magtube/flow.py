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
acting on the complexified state, shared-stepsize over a batch of rows with
per-row failure masking; a step's first stage is the field at its start
point, evaluated once for every attempt from there and never at the end of
the path.

A flow allocates the integrator's arrays once, not per step: the stages, one
stage input, the solution and its two error estimates, a second state that
changes places with the state when a step is accepted, and the error norm's
temporaries.  The stages are stored in the order 2, 1, 0, 3, ..., 11, so
that the nonzero weights of every combination of stages lie in one
contiguous run of slots; a combination is one matrix product over its run,
and the tableau's zero weights outside it are never read.  Each stage input
is formed in place, and the right-hand side writes each stage straight into
its slot.

The integrator runs the rows on the last axis: the packed state is (D, m),
the stages (12, D, m), and the geometry jet and every intermediate of the
right-hand side have the batch axis last.  A contraction over a chart index
is a Python loop over that index (``_bmm``, ``_contract_mid``, ``_dot``)
whose every term is one elementwise operation over a contiguous run of m
rows; with the rows first, numpy runs m inner loops of length n or 2n, and
at these sizes dispatch costs more than the arithmetic.  Elementwise terms
also make a row's right-hand side independent of the rest of its batch (the
shared step size still couples the rows).  The public functions
(``flow_many``, ``field_components``, ``BatchFlowResult``) keep the rows
first.

Each right-hand-side call reads the geometry through one ``geo.jet`` call:
first order for the field and the quadrature, second order with the tangent
map for the variational term.  That term is formed by the
blocks of DX (Hairer, Norsett and Wanner, Sec. I.14) without building DX,
and the blocks and contractions whose factor the jet reports as identically
zero (``None``; dg, d2g and dbeta on the flat chart) are skipped.  A flow
passes the jet one work dict, so a fused jet allocates its arrays once per
flow and writes into them at every call.

The integrator has one configuration: its tolerances, step budget, smallest
step and momentum cap are the module constants ``REL_TOL``, ``ABS_TOL``,
``MAX_STEPS``, ``MIN_STEP`` and ``P_CAP``, not parameters; the only option of
a flow is whether it carries the tangent map.  Where a row must stay is
decided per row: a row whose start point and path are real must stay inside
the real chart box (``CHART_EXIT``), every other row inside the chart's
complex validity region (``BLOWUP``), whatever else is in its batch.

The tangent map's |det| is taken once, from the end map.  By the chain rule
the end map is DPhi_rest(z(s)) M(s) at every point s of the path, so a
nonzero determinant at the end implies a nonzero one along the whole path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import dop853 as _dop
from .geometry import ChartedGeometry

__all__ = [
    "ComplexTime",
    "BatchFlowResult",
    "FlowError",
    "raise_first_failure",
    "field_components",
    "flow_many",
]

DISK_RADIUS = 1.25  # 1 + epsilon with epsilon = 0.25

# Integrator constants; they aim at ~1e-8 end-to-end accuracy in the
# verification suites.
REL_TOL = 1e-11
ABS_TOL = 1e-13
MAX_STEPS = 100_000  # attempted steps per flow; past it every active row fails TOL
MIN_STEP = 1e-14  # times max(1, segment length): below it rejected rows fail TOL
P_CAP = 1e8  # a row with |p| above it fails BLOWUP

# A row that left the chart's ``complex_radius`` (a row with a complex start
# or path), passed ``P_CAP`` or became non-finite.  This is where the chart's
# complex region ends, not where the paper's tube ends: on the unit sphere,
# rows fail where the closed-form path crosses |u| = 0.6 while r - a_3 stays
# at 1.99 or more.  Expected far from the zero-section, not a bug.
REASON_BLOWUP = "BLOWUP"
REASON_CHART_EXIT = "CHART_EXIT"  # a row with a real start and path left the chart box
REASON_TOL = "TOL"  # step size underflow, or the step budget is spent


class FlowError(RuntimeError):
    """A failed row of a batched operation; ``reason`` is its reason code."""

    @property
    def reason(self) -> str:
        return self.args[0]


def raise_first_failure(ok, reasons) -> None:
    """Raise FlowError with the reason of the first failed row of a batch's
    ``ok`` flags and ``reasons``, if a row failed."""
    failed = np.flatnonzero(~np.asarray(ok).ravel())
    if failed.size:
        raise FlowError(np.asarray(reasons, dtype=object).ravel()[failed[0]])


def _check_disk(waypoints) -> None:
    """The one disk rule, for the polylines from 0 of shape (..., K): a path
    with a non-real waypoint must keep every waypoint inside the disk of
    radius ``DISK_RADIUS`` (waypoints suffice: the disk is convex); a real
    path carries no disk constraint, since the disk bounds the analytic
    continuation only."""
    W = np.asarray(waypoints, dtype=complex)
    complex_path = (W.imag != 0.0).any(axis=-1, keepdims=True)
    if (complex_path & (np.abs(W) > DISK_RADIUS + 1e-12)).any():
        raise ValueError(f"time path outside the time disk of radius {DISK_RADIUS}")


@dataclass(frozen=True)
class ComplexTime:
    """A complex time target with a continuation path from 0.

    The path is a polyline given by its waypoints after the origin; the
    default is the single straight segment 0 -> target.  The path obeys
    ``_check_disk``.  ``-t`` is the time reversal: the mirror path from 0
    to -target.
    """

    target: complex
    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "target", complex(self.target))
        path = tuple(complex(w) for w in self.path) or (self.target,)
        if abs(path[-1] - self.target) > 0:
            raise ValueError("path must end at the target")
        object.__setattr__(self, "path", path)
        _check_disk(path)

    @property
    def waypoints(self):
        return (0.0 + 0.0j,) + self.path

    def __neg__(self) -> "ComplexTime":
        return ComplexTime(-self.target, tuple(-w for w in self.path))


def _time_path(t):
    """(waypoints, target) of a time ``t``: a ComplexTime or a number gives
    its (K,) polyline from 0 and its complex target, an (m,) array the
    (m, 2) straight paths from 0 to its entries and the complex array of
    them.  Raises ValueError where ``_check_disk`` fails."""
    if np.ndim(t):
        target = np.asarray(t, dtype=complex)
        waypoints = np.stack([np.zeros_like(target), target], axis=1)
        _check_disk(waypoints)
        return waypoints, target
    if not isinstance(t, ComplexTime):
        t = ComplexTime(t)
    return t.waypoints, t.target


@dataclass
class BatchFlowResult:
    """Vectorized flow result; failed rows carry a reason code.  ``time`` is
    the common complex target, or the (m,) complex array of per-row targets.

    ``det`` is |det| of each row's end tangent map ``jac`` (nonzero there
    implies nonzero along the path, see the module docstring); ``jac`` is
    None and ``det`` NaN for a tangent-free flow.  An ok row's values are
    finite; a failed row's x, p, quad and jac are NaN in both parts, and its
    det is NaN.
    """

    x: np.ndarray
    p: np.ndarray
    jac: Optional[np.ndarray]
    quad: np.ndarray
    ok: np.ndarray
    reasons: list
    det: np.ndarray
    steps: int
    time: complex | np.ndarray


# ---------------------------------------------------------------------------
# vector field and its derivative
# ---------------------------------------------------------------------------

def _bmm(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b over small matrices with the batch axes last: a (r, k, ...) and
    b (k, c, ...) give (r, c, ...), written into ``out`` if given.

    A Python loop over the shared index k; each term is one product over all
    rows, whose inner loop runs over the contiguous batch axis.  numpy's
    stacked matmul makes one BLAS call per matrix instead, which at 2x2 to
    4x4 costs several times the arithmetic.
    """
    out = np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def _dot(v: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """sum_j v[j] a[j]: the first axis of a against v, batch axes last."""
    out = np.multiply(v[0], a[0], out=out)
    for j in range(1, len(v)):
        out += v[j] * a[j]
    return out


def _contract_mid(d: np.ndarray, v: np.ndarray, out=None) -> np.ndarray:
    """sum_j d[l, j, ...] v[j] for a matrix or derivative array d with the
    batch axes last; a loop over j as in ``_bmm``.

    With d = g it is the matrix-vector product g p.  With d = dg and v = p it
    is T[l, w], the x-derivative of dx/ds; the quadratic term of dp/ds,
    sum_jk dg^{jk}/dx^l p_j p_k = sum_j p_j T[j, l], and (g being symmetric)
    that term's p-derivative, -T transposed, come from T.
    """
    out = np.multiply(d[:, 0], v[0], out=out)
    for j in range(1, d.shape[1]):
        out += d[:, j] * v[j]
    return out


def _field(g, dg, b, p, out):
    """Write dx/ds into out[:n] and dp/ds into out[n:] from the jet's g, dg
    and beta, and return T = _contract_mid(dg, p) (None where dg is).
    Batch axes last."""
    n = len(p)
    gp = _contract_mid(g, p, out[:n])
    pdot = _contract_mid(b, gp, out[n:])
    if dg is None:
        return None
    T = _contract_mid(dg, p)
    np.add(-0.5 * _dot(p, T), pdot, out=pdot)
    return T


def field_components(geo: ChartedGeometry, x: np.ndarray, p: np.ndarray):
    """(dx/ds, dp/ds) of the twisted Hamiltonian field at points x, p of
    shape (..., n), batched over the leading axes."""
    x, p = np.moveaxis(np.asarray(x), -1, 0), np.moveaxis(np.asarray(p), -1, 0)
    g, dg, b, _ = geo.jet(x, 1)
    out = np.empty((2 * len(p),) + p.shape[1:], dtype=np.result_type(g, b, p))
    _field(g, dg, b, p, out)
    return np.moveaxis(out[: len(p)], 0, -1), np.moveaxis(out[len(p) :], 0, -1)


def _rhs(geo: ChartedGeometry, Y: np.ndarray, out: np.ndarray,
         work: Optional[dict] = None) -> np.ndarray:
    """Right-hand side for the packed state Y of shape (D, m), one column per
    row (see ``_pack``), written into the C-contiguous (D, m) array ``out``
    (a stage slot of the integrator), which it returns.

    The rows are the last axis, so each term of a contraction over the
    small chart indices is one operation over all m rows.  The geometry is
    read once, by one ``geo.jet`` call, with the flow's ``work`` dict; its
    arrays are used within this call only.  A tangent-free state [x, p, q]
    gets the field and the quadrature from the first-order jet.  With
    [x, p, q, vec(jac)] the second-order jet also gives the variational term
    DX @ jac, formed by blocks without building DX: with jac = [Jx; Jp],
    T = _contract_mid(dg, p) and Q = -(1/2) d2g(p, p) + dbeta . xdot,

        d(Jx) = T Jx + g Jp,    d(Jp) = Q Jx - T^T Jp + beta d(Jx).

    Derivatives the jet returns as None vanish identically, and the blocks
    they would give are skipped (on the flat chart only g Jp and beta d(Jx)
    remain).  The field, the quadrature and the blocks d(Jx) and d(Jp) are
    formed in their rows of ``out``, so a stage is never copied.
    """
    D, m = Y.shape
    n = geo.dim
    n2 = 2 * n
    x = Y[:n]
    p = Y[n:n2]
    tangent = D > n2 + 1
    jet = geo.jet(x, 2 if tangent else 1, work)
    g, dg, b, A = jet[:4]
    T = _field(g, dg, b, p, out[:n2])
    xdot = out[:n]
    _dot(A, xdot, out[n2])
    if not tangent:
        return out

    J = Y[n2 + 1 :].reshape(n2, n2, m)
    Jx, Jp = J[:n], J[n:]
    d2g, db = jet[4:]
    dJ = out[n2 + 1 :].reshape(n2, n2, m)
    dJx = _bmm(g, Jp, dJ[:n])
    if T is not None:
        dJx += _bmm(T, Jx)
    dJp = _bmm(b, dJx, dJ[n:])
    if T is not None:
        dJp -= _bmm(T.swapaxes(0, 1), Jp)
    Q = None
    if d2g is not None:
        Q = -0.5 * _dot(p, _dot(p, d2g))
    if db is not None:
        dbx = _contract_mid(db, xdot)
        Q = dbx if Q is None else Q + dbx
    if Q is not None:
        dJp += _bmm(Q, Jx)
    return out


# ---------------------------------------------------------------------------
# DOP853 8(5,3), complex state, batched with per-row masking
# ---------------------------------------------------------------------------

# Stage i of a step is stored in slot _SLOT[i] of the stage array.  With the
# first three stages reversed, the nonzero weights of every combination of
# stages (a stage's input; the solution and its two error estimates) lie in
# one contiguous run of slots, so a combination is one matrix product over
# that run and the zero weights outside it are never read: 52 stage reads
# per step for the stage inputs instead of 66, and 10 instead of 12 for the
# solution.  The order is its own inverse: slot j holds stage _SLOT[j].
# Every slot inside a run must already hold a stage of the current step,
# because a zero weight times an unset slot of ``np.empty`` can be NaN.
_SLOT = (2, 1, 0) + tuple(range(3, _dop.N_STAGES))


def _slot_run(weights):
    """(lo, hi, w) for a combination of stages: the run of slots [lo, hi)
    that holds every stage with a nonzero weight, and the weights of the
    run's slots.  ``weights`` is one row of stage weights, or a matrix of
    rows combined over one shared run."""
    w = np.asarray(weights)[..., _SLOT]
    used = np.flatnonzero(np.atleast_2d(w).any(axis=0))
    lo, hi = int(used[0]), int(used[-1]) + 1
    return lo, hi, np.ascontiguousarray(w[..., lo:hi])


# (slot, lo, hi, w) of the stages 1..11: stage i is formed from
# w @ K[lo:hi] and stored in K[slot]
_STAGE_RUNS = tuple((_SLOT[i],) + _slot_run(_dop.A[i]) for i in range(1, _dop.N_STAGES))
# the 8th-order solution (row 0) and the 5th- and 3rd-order error estimates
_STEP_RUN = _slot_run(np.stack([_dop.B, _dop.E5, _dop.E3]))


def _pack(Z0: np.ndarray, n: int, tangent: bool) -> np.ndarray:
    """Start state of the rows Z0 (m, 2n), rows last: a (D, m) array whose
    column r is [x, p, q = 0] of row r, followed by vec(jac) = vec(1) if the
    tangent map is carried."""
    m = Z0.shape[0]
    D = 2 * n + 1 + (4 * n * n if tangent else 0)
    Y = np.zeros((D, m), dtype=complex)
    Y[: 2 * n] = Z0.T
    if tangent:
        Y[2 * n + 1 :] = np.eye(2 * n, dtype=complex).reshape(-1, 1)
    return Y


def _check_rows(geo, Y, real_rows):
    """Per-row validity of the (D, m) state against the ``REASON_*`` rules;
    returns (bad mask, reason array), the reasons None when no row is bad."""
    n = geo.dim
    x = Y[:n]
    p = Y[n : 2 * n]
    finite = np.isfinite(Y).all(axis=0)
    chart_bad = np.where(
        real_rows,
        (np.abs(x.real) >= geo.chart_box).any(axis=0),
        (np.abs(x) >= geo.complex_radius).any(axis=0),
    )
    p_bad = (np.abs(p) > P_CAP).any(axis=0) | ~finite
    bad = chart_bad | p_bad
    if not bad.any():
        return bad, None
    reason_chart = np.where(real_rows, REASON_CHART_EXIT, REASON_BLOWUP)
    return bad, np.where(p_bad, REASON_BLOWUP, np.where(chart_bad, reason_chart, ""))


def _step_factor(err_norm: float) -> float:
    """Next step over this one: 0.9 err^(-1/8), clamped to [0.2, 10]."""
    if err_norm == 0.0:
        return 10.0
    return min(10.0, max(0.2, 0.9 * err_norm ** (-1.0 / 8.0)))


def _error_norms(abs_y, abs_new, y_new, err5, err3, h, scale, work):
    """Hairer's combined 5th/3rd-order error norm of each row (column) of the
    (D, m) state.

    abs_y and abs_new are |Y| and |y_new|; err5 and err3 are the unscaled
    estimator sums (without the step h); a row's norm is
    h |e5|^2 / sqrt(D (|e5|^2 + 0.01 |e3|^2)) with both errors divided
    componentwise by ABS_TOL + REL_TOL max(|Y|, |y_new|).  Non-finite rows
    get an infinite norm.  ``scale`` and ``work`` are (D, m) float arrays
    that it overwrites.
    """
    np.maximum(abs_y, abs_new, out=scale)
    np.multiply(REL_TOL, scale, out=scale)
    np.add(ABS_TOL, scale, out=scale)
    with np.errstate(divide="ignore"):
        np.abs(err5, out=work)
        e5 = np.square(np.divide(work, scale, out=work), out=work).sum(axis=0)
        np.abs(err3, out=work)
        e3 = np.square(np.divide(work, scale, out=work), out=work).sum(axis=0)
        denom = e5 + 0.01 * e3
        err_row = h * e5 / np.sqrt(denom * abs_y.shape[0])
    err_row[denom == 0.0] = 0.0
    err_row[~np.isfinite(err_row) | ~np.isfinite(y_new).all(axis=0)] = np.inf
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
    control is conservative for such rows.  The state is integrated rows
    last, (D, m) (see ``_rhs``).  Returns (Y, ok, reasons, det, steps),
    with Y the (m, D) packed end states, one row per row of Z0, det the
    |det| of each row's end tangent map, and steps the number of attempted
    (accepted and rejected) shared steps.  The tangent map (and with it det,
    NaN otherwise) is carried only if ``tangent``.

    A row that fails is parked at complex NaN (NaN in both parts) at once
    and never restored, so its end state, and with it its x, p, quad, jac
    and det, is NaN: the flow gives a failed row no value.  It is still
    carried through the later steps of its batch, where its stages are NaN
    and its error norm is not read.

    The work arrays, the jet's included, are allocated once per call and
    every step is formed in them (see the module docstring and ``_SLOT``);
    |Y| is carried over from the accepted |y_new|.
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
    steps = 0

    def fail_rows(mask, why):
        """Record failing rows and park them at complex NaN, their result."""
        reasons[mask] = np.broadcast_to(why, mask.shape)[mask]
        active[mask] = False
        Y[:, mask] = complex(np.nan, np.nan)

    bad, why = _check_rows(geo, Y, real_rows)
    if bad.any():
        fail_rows(bad, why)

    # K[_SLOT[i]] holds the field at stage i; stage 0, the field at Y, is
    # reused by every step attempted from the same Y.  It is evaluated when a
    # step needs it, so the field at the end point of the path is never
    # formed.  S is the stage input, E the solution and error sums, Y_new
    # the next state; the combinations run on real views of K, S and E.
    # jet_work holds the geometry jet's arrays.
    D = Y.shape[0]
    K = np.empty((_dop.N_STAGES, D, m), dtype=complex)
    S = np.empty((D, m), dtype=complex)
    E = np.empty((3, D, m), dtype=complex)
    Y_new = np.empty((D, m), dtype=complex)
    Kr = K.reshape(_dop.N_STAGES, -1).view(np.float64)
    Sr = S.reshape(-1).view(np.float64)
    Er = E.reshape(3, -1).view(np.float64)
    abs_y = np.abs(Y)
    abs_new, scale, work = (np.empty((D, m)) for _ in range(3))
    jet_work = {}
    k0_stale = True

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
                H = h * direction
                if k0_stale:
                    _rhs(geo, Y, K[_SLOT[0]], jet_work)
                    k0_stale = False
                for slot, lo, hi, w in _STAGE_RUNS:
                    np.matmul(w, Kr[lo:hi], out=Sr)
                    np.multiply(H, S, out=S)
                    np.add(Y, S, out=S)
                    _rhs(geo, S, K[slot], jet_work)
                lo, hi, w = _STEP_RUN
                np.matmul(w, Kr[lo:hi], out=Er)
                np.multiply(H, E[0], out=Y_new)
                np.add(Y, Y_new, out=Y_new)
                np.abs(Y_new, out=abs_new)
                err_row = _error_norms(abs_y, abs_new, Y_new, E[1], E[2], h, scale, work)
                err_row[~active] = 0.0
                err_norm = err_row.max()
                if err_norm <= 1.0:
                    Y, Y_new = Y_new, Y
                    abs_y, abs_new = abs_new, abs_y
                    s += h
                    bad, why = _check_rows(geo, Y, real_rows)
                    bad &= active
                    if bad.any():
                        fail_rows(bad, why)
                    k0_stale = True
                    h = h * _step_factor(err_norm)
                else:
                    if h <= MIN_STEP * max(1.0, length):
                        # cannot resolve: fail the offending rows, keep going
                        fail_rows(active & (err_row > 1.0), REASON_TOL)
                        k0_stale = True
                        continue
                    h = h * _step_factor(err_norm)

    ok = reasons == ""
    Y = np.ascontiguousarray(Y.T)
    if tangent:
        with np.errstate(invalid="ignore"):  # a failed row's map is NaN
            det = np.abs(np.linalg.det(Y[:, 2 * n + 1 :].reshape(m, 2 * n, 2 * n)))
    else:
        det = np.full(m, np.nan)
    return Y, ok, [r if r else None for r in reasons], det, steps


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

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
    0; every library operation passes its time here unchanged, and reverses
    it as ``-t``.  Every form obeys the one disk rule, ``_check_disk``.
    Rows that fail are reported through ``ok`` and ``reasons`` instead of
    raising, and their values are NaN in both parts.  The region is decided
    per row: a real row on a real path must stay inside the chart box (else
    ``CHART_EXIT``), every other row inside the complex validity region
    (else ``BLOWUP``).  With ``tangent=False`` only the phase point and the
    quadrature are integrated: ``jac`` is None and ``det`` NaN, and neither
    the field Jacobian nor the geometry's second derivatives are evaluated.
    """
    waypoints, target = _time_path(t)
    Y, ok, reasons, det, steps = _integrate_path(
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
        det=det,
        steps=steps,
        time=target,
    )

