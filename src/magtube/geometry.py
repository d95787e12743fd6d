"""Chart-local analytic data for a magnetic cotangent-bundle system.

A chart is described by the inverse metric g^{jk}(x), its first derivatives,
the magnetic 2-form beta_{jk}(x) and a local vector potential A_j(x) with
dA = beta.  All evaluators must be complex-analytic closed forms (polynomial,
rational, trig/hyperbolic compositions) so that they can be fed complex
arguments: the imaginary-time flow integrates the equations of motion off the
real chart.

Evaluator convention: every callable broadcasts over leading axes, i.e. it
maps an (..., n) array of chart points to

    inv_metric       -> (..., n, n)
    inv_metric_deriv -> (..., n, n, n)   [..., j, k, l] = d g^{jk} / dx^l
    beta             -> (..., n, n)
    potential        -> (..., n)

A built-in chart evaluates an (n,) point as the one-row batch, so a point
gets the bits of its row in any batch.

Jet convention: ``ChartedGeometry.jet(x, order, work)`` is the one read of
the chart data per right-hand-side evaluation.  It takes the points rows-last,
x of shape (n, m), coordinate first, and returns rows-last arrays

    g (n, n, m), dg (n, n, n, m), beta (n, n, m), A (n, m)

and at ``order=2`` also d2g (n, n, n, n, m) and dbeta (n, n, n, m), indexed
as the evaluators are ([j, k, l, ...] = d g^{jk} / dx^l).  The batch axis is
last because the flow's contractions loop over the small chart indices in
Python: each term is then one operation over a contiguous run of m rows,
where a batch-first array gives m short inner loops of length n.  ``None``
in place of an array means that derivative vanishes identically.  By
default the jet composes the evaluators, never ``None``, moving their batch
axis last; a chart without ``inv_metric_deriv2`` or ``beta_deriv`` gets that
derivative by the contour rule below.  A chart may carry a
:class:`FusedJet`, closed forms that share work between the six arrays; it
is valid only for the evaluators it was built from, so a geometry whose
evaluators differ from the fused jet's (``dataclasses.replace`` of any
evaluator, ``with_negated_field``) drops it and composes.
``validate_geometry`` checks a fused jet against the composed one.

A built-in chart is declared by its formula kernels alone, through
``_kernel_chart``, which builds both its evaluators (moving the coordinate
axis last) and its fused jet from the same kernels.  The kernels take x
coordinate first and use elementwise operations only, so both paths give the
same bits and a row's values do not depend on the rest of its batch.

``work`` is a dict in which a fused jet keeps its arrays: a flow passes one
per integration, so the jet allocates its arrays, zeroed, on the flow's
first call and writes into them after, starting over when the points change
shape or dtype; a work dict serves one geometry.  Without ``work`` every
call gets fresh arrays, and a composed jet ignores it.  A built-in kernel
writes only the entries its formula fills, into a zeroed array from
``work`` (the evaluators pass a fresh dict), so the entries that vanish
identically stay zero and both paths run the same kernel, with the same
bits.  The jet's arrays are read-only for the caller and valid until the
next call with the same ``work``.

Derivative rule: the evaluators are holomorphic, so a derivative along a real
chart coordinate is the trapezoid rule on a circle of radius
``CONTOUR_RADIUS`` with ``CONTOUR_NODES`` nodes in the complexified
coordinate (Lyness and Moler 1967).  It composes the jet's missing
derivatives and the references of :func:`validate_geometry`;
``kahler.phase_gradient`` uses the same ring for phase-space derivatives of
computed quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "GeometryError",
    "ChartedGeometry",
    "FusedJet",
    "make_flat_magnetic",
    "make_sphere_magnetic",
    "validate_geometry",
    "GeometryReport",
    "energy",
    "twisted_symplectic_matrix",
    "stereographic_point",
    "stereographic_frame",
    "conformal_factor",
]

Array = np.ndarray

# Trapezoid rule for f'(z) = (1/2 pi i) oint f(s) / (s - z)^2 ds on the circle
# |s - z| = r: f'(z) ~ sum_k f(z + RING_k) WEIGHTS_k with error O(r^N) plus
# rounding O(eps / r).  N = 4 keeps four evaluations per coordinate; at that
# N, r = 1e-3 balances the two: the sphere's tangent map at t = i reads
# about 1e-12 against 4e-10 at r = 1e-2 and 2e-12 at r = 1e-4, and the same
# ring gives the sphere's d2g and dbeta to about 1e-11.
CONTOUR_NODES = 4
CONTOUR_RADIUS = 1e-3
_RING = CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)
_WEIGHTS = 1.0 / (CONTOUR_NODES * _RING)


class GeometryError(ValueError):
    """Invalid chart data (wrong shapes, broken symmetries, bad parameters)."""


@dataclass(frozen=True)
class FusedJet:
    """A closed-form jet ``fn(x, order, work)`` and the evaluators it
    reproduces, in the order of ``ChartedGeometry.evaluators``."""

    fn: Callable[[Array, int, Optional[dict]], tuple]
    evaluators: tuple


@dataclass(frozen=True)
class ChartedGeometry:
    """Analytic chart data (M, g, beta, A), immutable and complex-extendable.

    Attributes
    ----------
    dim : int
        Chart dimension n.
    inv_metric, inv_metric_deriv, beta, potential : callable
        Broadcasting evaluators, see module docstring.
    chart_box : float
        Half-width rho of the real box (-rho, rho)^n of chart validity.
    complex_radius : float
        Bound on |x_j| (complex modulus, per component) inside which the
        holomorphically extended evaluators are trusted.  Trajectories of the
        complex-time flow are aborted once they leave this region.
    inv_metric_deriv2 : callable, optional
        Exact second derivatives (..., j, k, l, m) = d^2 g^{jk}/dx^l dx^m.
        When absent the jet takes contour derivatives of ``inv_metric_deriv``.
    beta_deriv : callable, optional
        Exact (..., j, k, m) = d beta_{jk}/dx^m; when absent, contour
        derivatives of ``beta``.
    fused_jet : FusedJet, optional
        Closed-form jet of the built-in charts; dropped when the evaluators
        are not the ones it was built from (see module docstring).
    """

    dim: int
    inv_metric: Callable[[Array], Array]
    inv_metric_deriv: Callable[[Array], Array]
    beta: Callable[[Array], Array]
    potential: Callable[[Array], Array]
    chart_box: float
    complex_radius: float
    name: str = "custom"
    inv_metric_deriv2: Optional[Callable[[Array], Array]] = None
    beta_deriv: Optional[Callable[[Array], Array]] = None
    fused_jet: Optional[FusedJet] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise GeometryError(f"dim must be a positive integer, got {self.dim}")
        if not (self.chart_box > 0):
            raise GeometryError("chart_box must be positive")
        if not (self.complex_radius > 0):
            raise GeometryError("complex_radius must be positive")
        fused = self.fused_jet
        if fused is not None and any(
            a is not b for a, b in zip(fused.evaluators, self.evaluators, strict=True)
        ):
            object.__setattr__(self, "fused_jet", None)

    @property
    def evaluators(self) -> tuple:
        """(inv_metric, inv_metric_deriv, beta, potential, inv_metric_deriv2,
        beta_deriv), the order of the jet's arrays."""
        return (self.inv_metric, self.inv_metric_deriv, self.beta, self.potential,
                self.inv_metric_deriv2, self.beta_deriv)

    def jet(self, x: Array, order: int = 1, work: Optional[dict] = None) -> tuple:
        """(g, dg, beta, A) at the rows-last points x (n, ...), plus (d2g,
        dbeta) at ``order=2``, every array with the batch axes last; ``None``
        marks a derivative that vanishes identically (fused jets only), and a
        missing second-derivative evaluator is composed by contour.

        A fused jet writes into the arrays it keeps in ``work`` (fresh ones
        without it); the caller must not write to them, and they hold until
        the next call with the same ``work``.  A composed jet ignores it.  A
        point x (n,) is the one-row batch, bit for bit."""
        x = np.asarray(x)
        if x.ndim == 1:
            return tuple(None if a is None else a[..., 0]
                         for a in self.jet(x[:, None], order, work))
        if self.fused_jet is not None:
            return self.fused_jet.fn(x, order, work)
        batch = x.ndim - 1
        x = _front_to_last(x, 1)
        out = (self.inv_metric(x), self.inv_metric_deriv(x), self.beta(x), self.potential(x))
        if order >= 2:
            d2g, db = self.inv_metric_deriv2, self.beta_deriv
            out += (_contour_last_axis(self.inv_metric_deriv, x) if d2g is None else d2g(x),
                    _contour_last_axis(self.beta, x) if db is None else db(x))
        return tuple(_front_to_last(a, batch) for a in out)

    def with_negated_field(self) -> "ChartedGeometry":
        """The same metric with beta and A both negated (the -beta system)."""
        beta_fn, pot_fn = self.beta, self.potential
        bder = self.beta_deriv
        return replace(
            self,
            beta=lambda x: -beta_fn(x),
            potential=lambda x: -pot_fn(x),
            beta_deriv=(None if bder is None else (lambda x: -bder(x))),
            name=self.name + "(-beta)",
        )


def _front_to_last(a: Array, k: int) -> Array:
    """The first k axes of a moved to the end, as a view: an evaluator's
    (*batch, *coordinates) array as (*coordinates, *batch) for k batch axes
    (``np.moveaxis`` costs several times more per call)."""
    return a.transpose(tuple(range(k, a.ndim)) + tuple(range(k)))


def _last_to_front(a: Array, k: int) -> Array:
    """The last k axes of a moved to the front, as a view: a kernel's
    (*coordinates, *batch) array as (*batch, *coordinates) for k batch axes."""
    return a.transpose(tuple(range(a.ndim - k, a.ndim)) + tuple(range(a.ndim - k)))


def _jet_work(work: Optional[dict], x: Array) -> dict:
    """The dict a fused jet keeps its arrays in for the points x: a fresh
    one without ``work``, else ``work``, emptied when x has another shape or
    dtype than at its last call."""
    if work is None:
        return {}
    layout = (x.shape, x.dtype)
    if work.get("layout") != layout:
        work.clear()
        work["layout"] = layout
    return work


def _work_array(work: dict, key: str, shape: tuple, dtype, fill=0) -> Array:
    """``work[key]``, allocated with this shape and dtype and set to
    ``fill`` (zero by default) when it is missing."""
    a = work.get(key)
    if a is None:
        a = work[key] = np.empty(shape, dtype)
        a[...] = fill
    return a


def _evaluator(kernel: Callable, shared: Callable) -> Callable[[Array], Array]:
    """A broadcasting evaluator in the (..., n) convention from a built-in
    kernel(x, shared(x), work) that takes x coordinate first and returns its
    array batch last, with a fresh ``work``; the fused jet calls the same
    kernels."""
    def fn(x):
        x = np.asarray(x)
        if x.ndim == 1:  # a point is the one-row batch, bit for bit
            return fn(x[None])[0]
        x = _last_to_front(x, 1)
        return _last_to_front(kernel(x, shared(x), {}), x.ndim - 1)
    return fn


_RANKS = (2, 3, 2, 1, 4, 3)  # coordinate axes of g, dg, beta, A, d2g, dbeta


def _kernel_chart(dim: int, shared: Callable, kernels: tuple, *, chart_box: float,
                  complex_radius: float, name: str) -> ChartedGeometry:
    """A built-in chart from ``shared(x)``, the data every kernel reads (the
    constants cast for x, common subexpressions), and six kernels
    kernel(x, shared(x), work) in the order of ``ChartedGeometry.evaluators``;
    each writes the entries its formula fills into its zeroed work array,
    batch last.  ``None`` in place of dg, d2g or dbeta marks a derivative
    that vanishes identically: its evaluator returns zeros and its jet entry
    is ``None``.  The fused jet makes one ``shared`` call per call."""
    def zeros(rank):
        return lambda x, s, work: np.zeros((dim,) * rank + x.shape[1:], dtype=x.dtype)

    evaluators = tuple(_evaluator(zeros(rank) if kernel is None else kernel, shared)
                       for kernel, rank in zip(kernels, _RANKS, strict=True))
    g, dg, beta, potential, d2g, dbeta = kernels

    # written out, not looped: the jet runs once per right-hand side
    def jet(x, order=1, work=None):
        x = np.asarray(x)
        work = _jet_work(work, x)
        s = shared(x)
        first = (g(x, s, work), None if dg is None else dg(x, s, work), beta(x, s, work),
                 potential(x, s, work))
        if order < 2:
            return first
        return first + (None if d2g is None else d2g(x, s, work),
                        None if dbeta is None else dbeta(x, s, work))

    return ChartedGeometry(dim, *evaluators[:4], chart_box, complex_radius, name,
                           *evaluators[4:], FusedJet(jet, evaluators))


def _contour_last_axis(fn: Callable[[Array], Array], x: Array) -> Array:
    """Contour derivative of a holomorphic evaluator over each chart coordinate.

    Returns fn(x) with one extra trailing axis of length n holding d/dx^m,
    from one fn call on the n * CONTOUR_NODES ring points stacked on a new
    leading axis.  The weighted sum over the nodes is elementwise, so a
    point's derivative does not depend on the rest of its batch.  At real x
    the result is real, as fn's derivative is there.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    shift = np.eye(n)[:, None, :] * _RING[None, :, None]  # (coordinate, node, column)
    vals = fn(x + shift.reshape(-1, *(1,) * (x.ndim - 1), n))
    vals = vals.reshape(n, len(_RING), *vals.shape[1:])
    grad = _WEIGHTS[0] * vals[:, 0]
    for k in range(1, len(_RING)):
        grad += _WEIGHTS[k] * vals[:, k]
    grad = _front_to_last(grad, 1)
    return grad if np.iscomplexobj(x) else grad.real


# ---------------------------------------------------------------------------
# scalar quantities on phase space
# ---------------------------------------------------------------------------

def energy(geo: ChartedGeometry, x: Array, p: Array) -> Array:
    """Kinetic energy E = (1/2) g^{jk}(x) p_j p_k (complex-bilinear)."""
    g = geo.inv_metric(x)
    return 0.5 * np.einsum("...jk,...j,...k->...", g, p, p)


def twisted_symplectic_matrix(geo: ChartedGeometry, x: Array) -> Array:
    """Matrix of the twisted form against tangent vectors (dx, dp).

    omega(X, Y) = X . Omega . Y with Omega = [[-beta(x), 1], [-1, 0]].
    A NaN point (a failed row) gives NaN beta, with no warning.
    """
    x = np.asarray(x)
    n = geo.dim
    with np.errstate(invalid="ignore"):  # a complex division warns at a NaN point
        b = geo.beta(x)
    eye = np.eye(n)
    shape = b.shape[:-2] + (2 * n, 2 * n)
    om = np.zeros(shape, dtype=b.dtype)
    om[..., :n, :n] = -b
    om[..., :n, n:] = eye
    om[..., n:, :n] = -eye
    return om


# ---------------------------------------------------------------------------
# built-in geometries
# ---------------------------------------------------------------------------

def make_flat_magnetic(dim: int, B_matrix, mass_freq: float) -> ChartedGeometry:
    """Euclidean chart with a constant magnetic 2-form.

    The inverse metric is delta^{jk}/mass_freq, so that the energy is
    |p|^2 / (2 mass_freq); the vector potential is the linear gauge
    A_j = (1/2) B_{kj} x^k.
    """
    B = np.asarray(B_matrix, dtype=float)
    if B.shape != (dim, dim):
        raise GeometryError(f"B_matrix must be {dim}x{dim}, got {B.shape}")
    if np.abs(B + B.T).max() > 1e-12:
        raise GeometryError("B_matrix must be antisymmetric")
    if not (mass_freq > 0):
        raise GeometryError("mass_freq must be positive")

    ginv = np.eye(dim) / mass_freq
    typed = {}  # (dtype, ndim) -> (g, beta, B/2), cast once, a unit axis per batch axis

    # the shared data: the constants cast for x
    def _consts(x):
        key = (x.dtype, x.ndim)
        if key not in typed:
            dt, tail = np.result_type(x.dtype, float), (1,) * (x.ndim - 1)
            typed[key] = tuple(a.astype(dt).reshape(a.shape + tail) for a in (ginv, B, 0.5 * B))
        return typed[key]

    def _filled(key, c, x, work):
        # a filled copy, filled when its work array is allocated: once per
        # flow (np.broadcast_to costs several times more per call)
        return _work_array(work, key, (dim, dim) + x.shape[1:], c.dtype, fill=c)

    def _g(x, consts, work):
        return _filled("g", consts[0], x, work)

    def _beta(x, consts, work):
        return _filled("beta", consts[1], x, work)

    def _potential(x, consts, work):
        # A_j = (1/2) B_{kj} x^k, summed over k elementwise
        half_b = consts[2]
        out = _work_array(work, "A", (dim,) + x.shape[1:], half_b.dtype)
        np.multiply(half_b[0], x[0], out=out)
        for k in range(1, dim):
            out += half_b[k] * x[k]
        return out

    return _kernel_chart(dim, _consts, (_g, None, _beta, _potential, None, None),
                         chart_box=50.0, complex_radius=math.inf,
                         name=f"flat(dim={dim}, mass_freq={mass_freq})")


# -- stereographic chart of the round 2-sphere ------------------------------
#
# Projection from the north pole (0, 0, r) onto the equatorial plane; the
# chart origin is the south pole.  q := r^2 + u.u is the only denominator, so
# every evaluator extends to complex u as long as q stays away from zero.

def stereographic_point(u: Array, r: float) -> Array:
    """Embedding point X(u) on the radius-r sphere, (..., 2) -> (..., 3)."""
    u = np.asarray(u)
    q = r**2 + np.einsum("...j,...j->...", u, u)
    s = 2.0 * r**2 / q
    x3 = r * (q - 2.0 * r**2) / q
    return np.stack([s * u[..., 0], s * u[..., 1], x3], axis=-1)


def stereographic_frame(u: Array, r: float) -> Array:
    """Coordinate frame dX/du, shape (..., 3, 2)."""
    u = np.asarray(u)
    q = r**2 + np.einsum("...j,...j->...", u, u)
    s = 2.0 * r**2 / q
    out = np.zeros(u.shape[:-1] + (3, 2), dtype=u.dtype)
    for j in range(2):
        out[..., 0, j] = s * (1.0 if j == 0 else 0.0) - 4.0 * r**2 * u[..., 0] * u[..., j] / q**2
        out[..., 1, j] = s * (1.0 if j == 1 else 0.0) - 4.0 * r**2 * u[..., 1] * u[..., j] / q**2
        out[..., 2, j] = 4.0 * r**3 * u[..., j] / q**2
    return out


def conformal_factor(u: Array, r: float) -> Array:
    """lambda(u) with pulled-back metric lambda * delta_{jk}."""
    u = np.asarray(u)
    q = r**2 + np.einsum("...j,...j->...", u, u)
    return 4.0 * r**4 / q**2


def make_sphere_magnetic(r: float, B: float) -> ChartedGeometry:
    """Stereographic chart of the radius-r sphere with invariant field B.

    The 2-form is the pullback of (B/r)(x1 dx2^dx3 + cyc.) restricted to the
    sphere; in this chart it reads beta_12(u) = -B lambda(u).  The potential
    is the rotationally invariant primitive that is regular on the whole
    chart (its singularity sits at the antipodal point |u| = infinity):

        A = -(2 B r^2 / q) (u1 du2 - u2 du1),   q = r^2 + u.u.
    """
    if not (r > 0):
        raise GeometryError("radius must be positive")
    B = float(B)
    r4 = r**4

    # the kernels' constants as 0-d arrays per dtype: a Python float operand
    # costs more per call than the operation it enters at these sizes
    typed = {}

    def _constants(dtype):
        if dtype not in typed:
            typed[dtype] = {name: np.array(value, dtype=dtype) for name, value in (
                ("r2", r**2), ("4r4", 4.0 * r4), ("r4", r4), ("beta", -4.0 * B * r4),
                ("h", 2.0 * B * r**2), ("2", 2.0), ("dbeta", 16.0 * B * r4))}
        return typed[dtype]

    # the shared data: (q, q^2, constants), q = r^2 + u.u
    def _shared(u):
        c = _constants(np.result_type(u.dtype, 1.0))
        q = c["r2"] + (u[0] * u[0] + u[1] * u[1])
        return q, q**2, c

    def _g(u, s, work):
        q, q2, c = s
        out = _work_array(work, "g", (2, 2) + q.shape, q.dtype)
        g = np.divide(q2, c["4r4"], out=out[0, 0, ...])
        out[1, 1] = g
        return out

    def _dg(u, s, work):
        q, _, c = s
        out = _work_array(work, "dg", (2, 2, 2) + q.shape, q.dtype)
        d = np.divide(np.multiply(q, u, out=out[0, 0]), c["r4"], out=out[0, 0])
        out[1, 1] = d
        return out

    def _beta(u, s, work):
        q, q2, c = s
        out = _work_array(work, "beta", (2, 2) + q.shape, q.dtype)
        np.negative(np.divide(c["beta"], q2, out=out[0, 1, ...]), out=out[1, 0, ...])
        return out

    def _potential(u, s, work):
        q, _, c = s
        out = _work_array(work, "A", (2,) + q.shape, q.dtype)
        h = c["h"] / q
        out[0] = h * u[1]
        out[1] = -h * u[0]
        return out

    def _d2g(u, s, work):
        # val[l, m] = 2 u_l u_m + q delta_lm, divided by r^4, in both blocks
        q, _, c = s
        out = _work_array(work, "d2g", (2, 2, 2, 2) + q.shape, q.dtype)
        val = np.multiply(np.multiply(c["2"], u)[:, None], u[None, :], out=out[0, 0])
        for k in range(2):
            np.add(val[k, k, ...], q, out=val[k, k, ...])
        np.divide(val, c["r4"], out=val)
        out[1, 1] = val
        return out

    def _beta_deriv(u, s, work):
        q, _, c = s
        out = _work_array(work, "dbeta", (2, 2, 2) + q.shape, q.dtype)
        d = np.divide(np.multiply(c["dbeta"], u, out=out[0, 1]), q**3, out=out[0, 1])
        np.negative(d, out=out[1, 0])
        return out

    # the real chart covers the sphere minus the projection pole; the box
    # guards against pole passages (|u| -> infinity).  The complex validity
    # radius keeps q = r^2 + u.u away from its complex zeros.
    return _kernel_chart(2, _shared, (_g, _dg, _beta, _potential, _d2g, _beta_deriv),
                         chart_box=3.0 * r, complex_radius=0.6 * r, name=f"sphere(r={r}, B={B})")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class GeometryReport:
    """Max residual per invariant and the invariants that fail
    ``VALIDATION_TOL``."""

    residuals: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


VALIDATION_TOL = 1e-8  # a residual at or above it fails the invariant


def validate_geometry(geo: ChartedGeometry, samples: Sequence) -> GeometryReport:
    """Run the chart invariants on real sample points.

    Checks: g symmetric and positive definite, beta antisymmetric, the
    exterior derivative dA against beta, inv_metric_deriv against inv_metric
    (and the exact second derivatives against the first), all derivatives by
    the contour rule; reality of g, dg, beta, A and the composed jet's d2g
    and dbeta at real arguments; and, for a chart with a fused jet only,
    ``jet``: its second-order jet against the composed one (a composed jet
    would be compared with itself).
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim == 1:
        pts = pts[None, :]
    if pts.shape[-1] != geo.dim:
        raise GeometryError("samples have wrong dimension")
    if not np.all(np.abs(pts) < geo.chart_box):
        raise GeometryError("samples must lie inside the chart box")

    report = GeometryReport()
    g = geo.inv_metric(pts)
    dg = geo.inv_metric_deriv(pts)
    b = geo.beta(pts)
    A = geo.potential(pts)
    # contour references; the composed jet takes the missing second
    # derivatives from the same calls
    dA, dg_ref, d2g_ref, db_ref = (_contour_last_axis(fn, pts) for fn in (
        geo.potential, geo.inv_metric, geo.inv_metric_deriv, geo.beta))
    d2g = d2g_ref if geo.inv_metric_deriv2 is None else geo.inv_metric_deriv2(pts)
    db = db_ref if geo.beta_deriv is None else geo.beta_deriv(pts)

    def record(name, res_per_point):
        val = float(np.max(res_per_point))
        report.residuals[name] = val
        if not val < VALIDATION_TOL:
            report.failures.append(name)

    flat = lambda a: np.abs(a).reshape(a.shape[0], -1).max(axis=1)
    record("metric_symmetry", flat(g - np.swapaxes(g, -1, -2)))
    record("beta_antisymmetry", flat(b + np.swapaxes(b, -1, -2)))
    record("reality", np.maximum.reduce([flat(np.imag(a)) for a in (g, dg, b, A, d2g, db)]))

    eigmin = np.linalg.eigvalsh(np.real(g)).min(axis=-1)
    report.residuals["metric_min_eigenvalue"] = float(eigmin.min())
    if not np.all(eigmin > 0):
        report.failures.append("metric_min_eigenvalue")

    ext = np.swapaxes(dA, -1, -2) - dA  # (dA)_{jk} = d_j A_k - d_k A_j
    record("exterior_derivative", flat(ext - b))
    record("inv_metric_deriv", flat(dg - dg_ref))
    if geo.inv_metric_deriv2 is not None:
        record("inv_metric_deriv2", flat(d2g - d2g_ref))
    if geo.beta_deriv is not None:
        record("beta_deriv", flat(db - db_ref))

    # the fused jet the flows read against the composed jet; a None entry
    # must match an all-zero array
    if geo.fused_jet is not None:
        record("jet", np.maximum.reduce([
            flat(ev if j is None else _last_to_front(j, 1) - ev)
            for j, ev in zip(geo.jet(pts.T, 2), (g, dg, b, A, d2g, db))]))

    return report
