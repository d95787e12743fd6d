"""Verification suites: the analytic identities of the construction, run as
a named battery of residual checks of the engine against the closed-form
oracles.  Every check reads a value the engine computed; an identity
between closed forms alone is a unit test of the oracles instead.

The checks live in one registry.  Each block below declares with ``@_block``
its suite and the checks it reports (name, tolerance, kind, note), and
returns each check's raw values: numbers, arrays or lists of them.  A block
runs on every ``_CHARTS`` entry in table order (then on its ``extras``), or
on the charts it names.  Three rules turn the values into CheckResults, each
in one function:

* naming (``_rows``): a ``{chart}`` name is reported once per chart, with
  that chart's ``tol``; any other name once, over every chart;
* reduction (``_worst``): the worst entry over rows, times and charts, the
  largest for kind 'max', the smallest for 'min', NaN if any entry is NaN;
* failure (``_call``): a FlowError in a block (``_ok`` raises one for the
  first failed row of a flow, frame or J) makes its checks on that chart
  NaN, with the row's reason as the note; the report is still written.

The blocks ask for their flows; they do not make them.  A block that
flows is a flow generator (see ``flow.run``): it yields its flow requests
through the generators of the batched operations (``flow_many_gen``,
``frames_at_many_gen``, ...), and ``gather`` asks for several in one
request.  ``_run`` makes each (block, chart) call a generator (``_call``)
and drives all the calls of a run, one suite's or every suite's for
``all``, as one flow plan, ``run(gather(calls))``: each round answers the
pending requests of every call with one integration per geometry object and
tangent flag.  Since each row takes its own steps, a row gets the values of
its own flow in a merged one, but for two last-bit couplings:
``np.matmul``'s rounding of the stage combinations by column position, and
the order of the error norm's column sums, which numpy sums pairwise when
one row moves alone.  Two rules keep a suite's report what it was when each
call ran alone to its end:

* draw order: ``gather`` starts the calls in registry order, suite by
  suite, and runs each to its first request before it starts the next (a
  block that never flows runs to its end when it starts), so a block draws
  every sample from its suite's generator before its first flow;
* ``case``: a block leaves on its chart's namespace only what it sets before
  its first flow (``_kde``'s ``case.Z``); a block that needs a flow's result
  of another asks for that flow itself, and the plan merges the rows.

Flows merge only on one geometry object, so a run builds each ``_CHARTS``
entry once and every suite's blocks share that build, and ``_flat`` gives
one object per plane (the table's flat chart is its (1, 1) plane).  The
exception is the sphere-oracle block: it builds a sphere of its own, so
that its 500-row tangent batch does not join the other suites' sphere
tangent flow into one integration of over 700 rows.

A (block, chart) call's runtime is the time spent inside it plus the
``seconds`` of the flow results it is sent: its rows' share of the steps of
each merged flow that answered it.  A suite's runtime is the sum of its
block runtimes.

Each check reads a value that some engine defect can move; an identity that
holds by construction is no check.  The engine is conjugation-equivariant
bit for bit (f and the frames at conj t are the conjugates of those at t,
and J is negated), which the unit tests keep as exact equalities; the flow
fixes the zero section bit for bit (every term of the field has a factor
p), which ``zero_section_fixed`` alone reads.

The report follows the blocks' order in this file.  A suite's blocks share
one generator drawn from the seed, and each chart's namespace, on which a
block may leave what a later block reads (see the ``case`` rule above).
Reports are reproducible bit for bit (modulo the runtime fields, which time
each suite and each block).
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache, partial
from inspect import isgenerator
from types import SimpleNamespace
from typing import Callable, Dict, List

import numpy as np

from . import oracles as orc
from .config import SUITE_NAMES
from .flow import (
    ComplexTime,
    FlowError,
    field_components,
    flow_many_gen,
    gather,
    raise_first_failure,
    run,
)
from .geometry import (
    ChartedGeometry,
    energy,
    make_flat_magnetic,
    make_sphere_magnetic,
    stereographic_frame,
    stereographic_point,
    twisted_symplectic_matrix,
    validate_geometry,
)
from .intertwine import check_frame_intertwine, check_shifted_frame_intertwine
from .kahler import (
    dbar_residual_many_gen,
    holomorphic_extension_gen,
    kappa2_flat,
    kde_residual_many_gen,
    phase_gradient,
    phase_gradient_gen,
    potential_f_many_gen,
    resolve_kappa1_coefficient,
)
from .structure import (
    assemble_J,
    frames_at_many_gen,
    integrability_residual_many_gen,
    normalized_zero_section_frame_change,
    orthonormalize,
    positivity_matrix,
    subspace_distance,
    transversality_check,
)

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "suite_functions"]


@dataclass
class CheckResult:
    """One named check: a residual bounded above (kind 'max') or a margin
    bounded below (kind 'min')."""

    name: str
    value: float
    tolerance: float
    kind: str = "max"
    note: str = ""

    @property
    def passed(self) -> bool:
        if not np.isfinite(self.value):
            return False
        return self.value < self.tolerance if self.kind == "max" else self.value > self.tolerance

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "tolerance": float(self.tolerance),
            "kind": self.kind,
            "passed": bool(self.passed),
            "note": self.note,
        }


# ---------------------------------------------------------------------------
# charts and the check registry
# ---------------------------------------------------------------------------

SPHERE_R, SPHERE_B = 1.0, 1.0


@lru_cache(maxsize=None)
def _flat(B: float, mass_freq: float) -> ChartedGeometry:
    """The plane of field B and mass frequency mass_freq: one object per
    (B, mass_freq) in a run (``_run`` empties the cache), so the flows of
    every block on one plane merge."""
    return make_flat_magnetic(2, [[0.0, B], [-B, 0.0]], mass_freq)


# A chart of the chart-generic checks and the values they take on it.  A box
# is (|x| max, |p| max) in chart coordinates: ``wide`` is the default sample
# box, ``tube`` the smaller one of the contour checks.  ``point`` is the (1, 2n)
# row of the frame intertwiners, whose x is also the chart's zero-section
# point; ``tol`` holds each per-chart check's tolerance, keyed by its name
# without the ``{chart}``.
_Chart = namedtuple("_Chart", "build wide tube validation_box analyticity_scale group_times "
                              "kahler_rows kde_sigma point tol")


# The charts every chart-generic check runs on, in the order of the report,
# each built once per run.  The oracle suites use the same two charts: their
# closed forms take B = mass_freq = 1 and r = B = 1.
_CHARTS: Dict[str, _Chart] = {
    "flat": _Chart(
        build=lambda: _flat(1.0, 1.0), wide=(1.0, 2.0), tube=(0.6, 1.0),
        validation_box=1.0, analyticity_scale=0.5, group_times=(0.4, 0.5), kahler_rows=50,
        kde_sigma=0.3, point=np.array([[0.2, 0.1, 0.6, -0.3]]),
        tol={"validation": 1e-11, "analyticity": 1e-10, "integrability": 1e-11,
             "kde": 1e-9, "dbar": 1e-10, "extension_dbar": 1e-10,
             "frame_intertwine": 1e-7, "frame_intertwine_shifted": 1e-6},
    ),
    "sphere": _Chart(
        build=lambda: make_sphere_magnetic(SPHERE_R, SPHERE_B), wide=(0.15, 0.45),
        tube=(0.12, 0.35), validation_box=0.45, analyticity_scale=0.1, group_times=(0.2, 0.3),
        kahler_rows=20, kde_sigma=0.2, point=np.array([[0.1, -0.05, 0.3, 0.2]]),
        tol={"validation": 1e-8, "analyticity": 1e-8, "integrability": 1e-10,
             "kde": 1e-12, "dbar": 1e-10, "extension_dbar": 1e-10,
             "frame_intertwine": 1e-6, "frame_intertwine_shifted": 1e-6},
    ),
}

# A declared check; a ``{chart}`` name takes its tolerance from the chart.
_Check = namedtuple("_Check", "name tol kind note", defaults=(None, "max", ""))
# A block's value for a check together with the note it reports.
_Noted = namedtuple("_Noted", "value note")
_Block = namedtuple("_Block", "fn checks charts extras")

_REGISTRY: Dict[str, List[_Block]] = {name: [] for name in SUITE_NAMES if name != "all"}


def _block(suite: str, *checks: _Check, charts=None, extras=()):
    """Register the decorated ``fn(case) -> {check name: values}`` in
    ``suite``.  ``charts`` None runs it on every table chart, a tuple of
    names on those charts (the run's builds), () on none; each of ``extras`` builds one
    more geometry it runs on (for names without ``{chart}``)."""
    def register(fn):
        _REGISTRY[suite].append(_Block(fn, checks, charts, extras))
        return fn
    return register


def _sample(rng, geo: ChartedGeometry, m: int, box) -> np.ndarray:
    """m phase rows of geo, uniform in the box (|x| max, |p| max)."""
    xmax, pmax = box
    return np.concatenate([rng.uniform(-xmax, xmax, (m, geo.dim)),
                           rng.uniform(-pmax, pmax, (m, geo.dim))], axis=1)


def _ok(result):
    """The batch result (of a tuple such as ``frames_at_many``'s, its first
    entry) if every row is ok; else the first failed row's FlowError, which
    ``_call`` reports."""
    if isinstance(result, tuple):
        raise_first_failure(*result[1:3])
        return result[0]
    raise_first_failure(result.ok, result.reasons)
    return result


def _at_times(gen, geo: ChartedGeometry, Z, times, **kwargs):
    """``gen`` (``flow_many_gen`` or ``frames_at_many_gen``) of the rows Z
    (or of the i-th array of a list Z) at each of ``times``, in one request,
    all ok: the flow results or the frames, one per time, in order."""
    parts = Z if isinstance(Z, list) else [Z] * len(times)
    results = yield from gather([gen(geo, rows, t, **kwargs) for rows, t in zip(parts, times)])
    return [_ok(res) for res in results]


def _zero_section_flows(geo: ChartedGeometry, xs: np.ndarray, times):
    """The flows of the zero-section points (x, 0) to each of ``times``, in
    one request, all ok."""
    return (yield from _at_times(flow_many_gen, geo,
                                 np.concatenate([xs, np.zeros_like(xs)], axis=1), times))


def _normalized_changes(geo: ChartedGeometry, xs: np.ndarray):
    """``normalized_zero_section_frame_change`` at each of the points xs,
    stacked: T (m, 2n, 2n) and beta_tilde (m, n, n)."""
    T, btil = zip(*(normalized_zero_section_frame_change(geo, x0) for x0 in xs))
    return np.stack(T), np.stack(btil)


_FLAT_HEAVY = (partial(_flat, 1.0, 0.5),)  # Btilde = 2 separates B from Btilde


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------

@_block("geometry", _Check("{chart}_validation"), _Check("metric_positive_definite", 0.0, "min"))
def _validation(case):
    box, geo = case.chart.validation_box, case.geo
    report = validate_geometry(geo, case.rng.uniform(-box, box, (100, geo.dim)))
    # every invariant residual (``jet`` and second derivatives where recorded)
    return {"{chart}_validation": [v for k, v in report.residuals.items()
                                   if k != "metric_min_eigenvalue"],
            "metric_positive_definite": report.residuals["metric_min_eigenvalue"]}


@_block("geometry", _Check("sphere_beta_pullback", 1e-10), charts=("sphere",))
def _sphere_beta_pullback(case):
    """The chart field against the explicit pullback of the invariant 2-form."""
    u = case.rng.uniform(-0.4, 0.4, (50, 2))
    E3, x3 = stereographic_frame(u, SPHERE_R), stereographic_point(u, SPHERE_R)
    pulled = (SPHERE_B / SPHERE_R) * np.einsum("mi,mi->m", x3, np.cross(E3[:, :, 0], E3[:, :, 1]))
    return {"sphere_beta_pullback": np.abs(case.geo.beta(u)[:, 0, 1] - pulled)}


@_block("geometry", _Check("{chart}_analyticity"))
def _analyticity(case):
    """Evaluators against their degree-4 Taylor expansion at an imaginary offset."""
    geo, scale = case.geo, case.chart.analyticity_scale
    h = eta = 0.04 * scale
    defects = []
    for _ in range(5):
        x = case.rng.uniform(-0.2, 0.2, geo.dim) * scale
        for fn in (geo.inv_metric, geo.beta, geo.potential):
            for k in range(geo.dim):
                e = np.eye(geo.dim)[k]
                fm2, fm1, f0, f1, f2 = (fn(x + j * h * e) for j in range(-2, 3))
                d1 = (-f2 + 8 * f1 - 8 * fm1 + fm2) / (12 * h)
                d2 = (-f2 + 16 * f1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h**2)
                d3 = (f2 - 2 * f1 + 2 * fm1 - fm2) / (2 * h**3)
                d4 = (f2 - 4 * f1 + 6 * f0 - 4 * fm1 + fm2) / h**4
                t = 1j * eta
                taylor = f0 + d1 * t + d2 * t**2 / 2 + d3 * t**3 / 6 + d4 * t**4 / 24
                defects.append(np.abs(fn(x + t * e) - taylor))
    return {"{chart}_analyticity": defects}


@_block("geometry", _Check("flat_constancy", 1e-14), charts=("flat",))
def _flat_constancy(case):
    """Constant-field chart: beta independent of x, metric derivatives zero."""
    geo = case.geo
    pts = case.rng.uniform(-1, 1, (20, geo.dim))
    return {"flat_constancy": [np.abs(geo.beta(pts) - geo.beta(pts * 0)),
                               np.abs(geo.inv_metric_deriv(pts))]}


# ---------------------------------------------------------------------------
# flow suite
# ---------------------------------------------------------------------------

@_block("flow", _Check("group_law", 1e-9), _Check("symplectomorphy", 1e-8),
        _Check("energy_conservation", 1e-10))
def _real_flows(case):
    """Group law, symplectomorphy and energy conservation on real flows."""
    geo, n = case.geo, case.geo.dim
    s1, s2 = case.chart.group_times
    Z = _sample(case.rng, geo, 20, case.chart.wide)
    r1, r12 = yield from _at_times(flow_many_gen, geo, Z, (s1, s1 + s2))
    r2 = _ok((yield from flow_many_gen(geo, np.concatenate([r1.x.real, r1.p.real], axis=1), s2)))
    om0 = twisted_symplectic_matrix(geo, Z[:, :n])
    pulled = np.einsum("mji,mjk,mkl->mil", r12.jac, twisted_symplectic_matrix(geo, r12.x), r12.jac)
    return {"group_law": np.abs(np.concatenate([r2.x - r12.x, r2.p - r12.p], axis=1)),
            "symplectomorphy": np.abs(pulled - om0),
            "energy_conservation": np.abs(energy(geo, r12.x, r12.p)
                                          - energy(geo, Z[:, :n], Z[:, n:]))}


@_block("flow", _Check("hamiltonian_field_inversion", 1e-10))
def _field_inversion(case):
    """X_E against the omega-inversion oracle, dE by ``phase_gradient``."""
    geo, n = case.geo, case.geo.dim
    Z = _sample(case.rng, geo, 10, case.chart.wide)
    dE = phase_gradient(lambda rows: (energy(geo, rows[:, :n], rows[:, n:]), True, None), Z,
                        np.eye(2 * n))[3]
    XE = np.concatenate(field_components(geo, Z[:, :n], Z[:, n:]), axis=1)
    om = twisted_symplectic_matrix(geo, Z[:, :n])
    # omega(X, .) = dE  =>  Omega^T X = dE
    X = np.linalg.solve(om.swapaxes(1, 2), dE[..., None])[..., 0]
    return {"hamiltonian_field_inversion": np.abs(X - XE)}


@_block("flow", _Check("zero_section_fixed", 1e-12))
def _zero_section_fixed(case):
    """The field vanishes on the zero section: its points are fixed."""
    n = case.geo.dim
    Z = np.concatenate([case.chart.point[:, :n], np.zeros((1, n))], axis=1)
    res = _ok((yield from flow_many_gen(case.geo, Z, 0.3 + 0.8j, tangent=False)))
    return {"zero_section_fixed": np.abs(np.concatenate([res.x, res.p], axis=1) - Z)}


@_block("flow", _Check("zero_section_jacobian", 1e-9), _Check("zero_section_frame_span", 1e-9),
        extras=_FLAT_HEAVY)
def _zero_section_linearization(case):
    """The zero-section linearization against the block matrix exponential."""
    geo = case.geo
    xs = case.rng.uniform(-0.3, 0.3, (2, geo.dim))
    Z = np.concatenate([xs, np.zeros_like(xs)], axis=1)
    g0, b0 = geo.inv_metric(xs), geo.beta(xs)
    sigmas = np.array([0.5, 1j, 0.3 + 0.8j])
    # the oracles over (time, point)
    lin = orc.zero_section_linearization(b0, sigmas[:, None], g0)
    frames = orc.zero_section_frame(b0, sigmas[1:, None], g0)
    flows, spans = yield from gather([_zero_section_flows(geo, xs, sigmas),
                                      _at_times(frames_at_many_gen, geo, Z, sigmas[1:])])
    jac = [np.abs(res.jac - ref) for res, ref in zip(flows, lin)]
    span = [subspace_distance(F, ref) for F, ref in zip(spans, frames)]
    return {"zero_section_jacobian": jac, "zero_section_frame_span": span}


@_block("flow", _Check("path_independence", 1e-9))
def _path_independence(case):
    """Path independence of the continuation."""
    geo, rng = case.geo, case.rng
    Z = _sample(rng, geo, 20, case.chart.wide)
    mid = complex(rng.uniform(0.3, 0.8), rng.uniform(-0.2, 0.4))
    rA, rB = yield from _at_times(flow_many_gen, geo, Z, (1j, ComplexTime(1j, (mid, 1j))),
                                  tangent=False)
    return {"path_independence": np.abs(np.concatenate([rA.x - rB.x, rA.p - rB.p], axis=1))}


@_block("flow", _Check("inverse_consistency", 1e-8))
def _inverse_consistency(case):
    """Back along the reversed path and out again recovers the start."""
    geo = case.geo
    Z = _sample(case.rng, geo, 15, case.chart.wide)
    times = (1j, 0.3 + 0.8j)
    backs = yield from _at_times(flow_many_gen, geo, Z, [-t for t in times], tangent=False)
    outs = yield from _at_times(flow_many_gen, geo,
                                [np.concatenate([back.x, back.p], axis=1) for back in backs],
                                times, tangent=False)
    return {"inverse_consistency": [np.abs(np.concatenate([out.x, out.p], axis=1) - Z)
                                    for out in outs]}


@_block("flow", _Check("tangent_map_contour", 1e-10))
def _tangent_map_contour(case):
    """The tangent map against dPhi_t/dz by ``phase_gradient`` of the
    tangent-free flow (holomorphic in the start point), which never
    evaluates second derivatives; a failed row reads NaN."""
    geo, t = case.geo, 1j
    Z = _sample(case.rng, geo, 6, case.chart.tube)

    def phi(rows):
        res = yield from flow_many_gen(geo, rows, t, tangent=False)
        return np.concatenate([res.x, res.p], axis=1), res.ok, res.reasons

    (*_, deriv), res = yield from gather([phase_gradient_gen(phi, Z, np.eye(2 * geo.dim)),
                                          flow_many_gen(geo, Z, t)])
    # deriv (m, coord, component) against jac (m, component, coord)
    return {"tangent_map_contour": np.abs(deriv.swapaxes(1, 2) - res.jac)}


# ---------------------------------------------------------------------------
# frames suite
# ---------------------------------------------------------------------------

@_block("frames", _Check("lagrangian_residual", 1e-8), _Check("transversality_margin", 1e-6, "min"),
        _Check("positivity_min_eigenvalue", 0.0, "min"), _Check("metric_positivity", 0.0, "min"),
        _Check("frame_gauge_invariance", 1e-9))
def _frame_structure(case):
    geo, n, rng = case.geo, case.geo.dim, case.rng
    Z = _sample(rng, geo, 100, case.chart.wide)
    # at 3 points: omega(X, JX) > 0; gauge invariance under random
    # right-multiplication
    G = np.stack([rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(3)])
    F = _ok((yield from frames_at_many_gen(geo, Z, 1j)))
    om = twisted_symplectic_matrix(geo, Z[:, :n])
    x = Z[:3, :n]
    acs, acs_g = (_ok(assemble_J(geo, x, frames)) for frames in (F[:3], orthonormalize(F[:3] @ G)))
    Sym = twisted_symplectic_matrix(geo, x).real @ acs.J
    return {"lagrangian_residual": np.abs(np.einsum("mji,mjk,mkl->mil", F, om, F)),  # F^T Om F
            "transversality_margin": transversality_check(F),
            "positivity_min_eigenvalue": np.linalg.eigvalsh(positivity_matrix(geo, Z[:, :n], F)),
            "metric_positivity": np.linalg.eigvalsh(0.5 * (Sym + Sym.swapaxes(1, 2))),
            "frame_gauge_invariance": [
                np.abs(acs.J - acs_g.J),
                np.abs(acs.positivity_spectrum - acs_g.positivity_spectrum),
                np.abs(acs.transversality - acs_g.transversality)]}


@_block("frames", _Check("zero_section_positivity_form", 1e-8,
                         note="matches 2 tau (e^{2 i tau beta}-1)/(2 i tau beta); its transpose "
                              "is the same form written with the conjugation on the other slot"),
        extras=_FLAT_HEAVY)
def _zero_section_positivity_form(case):
    """The zero-section Hermitian form against the closed-form positivity matrix."""
    geo, n = case.geo, case.geo.dim
    xs = case.rng.uniform(-0.2, 0.2, (2, n))
    T, btil = _normalized_changes(geo, xs)
    om_t = np.stack([np.block([[-b, np.eye(n)], [-np.eye(n), np.zeros((n, n))]]) for b in btil])
    times = np.array([1j, 0.3 + 0.8j])
    ref = orc.zero_section_positivity_matrix(btil, times[:, None])  # (time, point, n, n)
    defects = []
    for res, M_ref in zip((yield from _zero_section_flows(geo, xs, times)), ref):
        Fn = T @ res.jac[:, :, n:] @ T[:, :n, :n].swapaxes(1, 2)
        M = 1j * Fn.conj().swapaxes(1, 2) @ om_t @ Fn
        defects.append(np.abs(M - M_ref))
    return {"zero_section_positivity_form": defects}


@_block("frames", _Check("totally_real_vertical_block", 1e-6, "min"),
        _Check("totally_real_horizontal", 1e-6, "min"))
def _totally_real(case):
    """Totally real zero section: the vertical block of the frame is
    nonsingular.  The flow fixes (x, 0), where DPhi_{-i} = DPhi_i^{-1}, so
    the frame at i spans the vertical columns of DPhi_i."""
    geo, n = case.geo, case.geo.dim
    xs = case.rng.uniform(-0.2, 0.2, (3, n))
    jacs = (yield from _zero_section_flows(geo, xs, (1j,)))[0].jac
    acs = _ok(assemble_J(geo, xs, orthonormalize(jacs[:, :, n:])))
    T, btil = _normalized_changes(geo, xs)
    Eh = np.vstack([np.eye(n), np.zeros((n, n))])
    # the vertical blocks of the engine's frame and of the closed-form one,
    # e^{i btil}
    vertical = [(T @ jacs[:, :, n:])[:, n:], orc.zero_section_frame(btil, 1j)[:, n:]]
    horizontal = [np.hstack([Eh, J @ Eh]) for J in acs.J]
    return {"totally_real_vertical_block": [np.linalg.svd(V, compute_uv=False)[:, -1]
                                            for V in vertical],
            "totally_real_horizontal": np.linalg.svd(horizontal, compute_uv=False)[:, -1]}


@_block("frames", _Check("integrability_{chart}"))
def _integrability(case):
    """Integrability via contour-derivative brackets, at two times with
    per-row times: one flow of the centres, one of their rings."""
    geo = case.geo
    Z = [_sample(case.rng, geo, 20, case.chart.tube) for _ in range(2)]
    return {"integrability_{chart}": (yield from integrability_residual_many_gen(
        geo, np.concatenate(Z), np.repeat([1j, 0.3 + 0.8j], 20)))[3]}


# ---------------------------------------------------------------------------
# kahler suite: its blocks share each chart's rows case.Z, which ``_kde``
# sets before its first flow; each block asks for the frames it reads, and
# the plan merges those rows into one frame flow per chart
# ---------------------------------------------------------------------------

@_block("kahler", _Check("kde_{chart}"))
def _kde(case):
    c = case.chart
    case.Z = _sample(case.rng, case.geo, c.kahler_rows, c.tube)
    return {"kde_{chart}": (yield from kde_residual_many_gen(case.geo, case.Z, c.kde_sigma))[3]}


@_block("kahler", _Check("kappa2_closed_form", 1e-7), charts=("flat",))
def _flat_potential(case):
    """kappa2 = Re(2i f_{-i}) against its closed form."""
    fm = (yield from potential_f_many_gen(case.geo, case.Z, -1j))[0]
    z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, case.Z).T
    return {"kappa2_closed_form": np.abs((2j * fm).real - kappa2_flat(1.0, 1.0, z1, z2))}


@_block("kahler", _Check("dbar_{chart}"))
def _dbar(case):
    """dbar f_{-i} = (theta^A)^{0,1}."""
    F = (yield from frames_at_many_gen(case.geo, case.Z, 1j))[0]
    return {"dbar_{chart}": (yield from dbar_residual_many_gen(case.geo, case.Z, F.conj()))[3]}


@_block("kahler", _Check("kappa1_adapted", 1e-10), _Check("kappa1_coefficient_is_half", 1e-12),
        charts=("flat",))
def _kappa1(case):
    """kappa1: the tanh coefficient resolved by the adaptedness identity."""
    F = _ok((yield from frames_at_many_gen(case.geo, case.Z[:1], 1j)))  # J needs the first frame
    acs = _ok(assemble_J(case.geo, case.Z[0, :2], F[0]))
    coeff, residuals = resolve_kappa1_coefficient(1.0, 1.0, acs.J, case.Z[:10])
    note = (f"tanh coefficient resolved to {coeff} * B (candidate residuals: "
            f"0.5B -> {residuals[0.5]:.3e}, 1.0B -> {residuals[1.0]:.3e})")
    return {"kappa1_adapted": _Noted(residuals[coeff], note),
            "kappa1_coefficient_is_half": abs(coeff - 0.5)}


@_block("kahler", _Check("extension_dbar_{chart}"))
def _extension_dbar(case):
    """f o pi o Phi_i is dbar-closed: its derivatives along conj F vanish."""
    def monomials(x):  # f = x1, x2, x1^2, x1 x2
        x1, x2 = x[:, 0], x[:, 1]
        return np.stack([x1, x2, x1**2, x1 * x2], axis=1)

    F = (yield from frames_at_many_gen(case.geo, case.Z[:8], 1j))[0]
    return {"extension_dbar_{chart}": np.abs((yield from phase_gradient_gen(
        lambda rows: holomorphic_extension_gen(case.geo, monomials, rows),
        case.Z[:8], F.conj().swapaxes(1, 2)))[3])}


@_block("kahler", _Check("extension_coordinates", 1e-8),
        _Check("weight_gaussian_density", 1e-10,
               note="|weight|^2 = e^{-kappa2}; with B = lambda and mass_freq = 1/(2t) this is "
                    "the heat-kernel space weight"), charts=("flat",))
def _flat_extension_and_weights(case):
    """Holomorphic extensions and section weights on the plane."""
    flat, z = case.geo, case.Z[0]
    (ext, _, _), f = yield from gather([holomorphic_extension_gen(flat, lambda x: x, z[None]),
                                        potential_f_many_gen(flat, z[None], -1j)])
    e1, e2 = ext[0]
    z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, z)
    w1 = np.exp(-1j * complex(_ok(f)[0]))  # the section weight of k = 1
    return {"extension_coordinates": [abs(e1 - z1), abs(e2 - z2)],
            "weight_gaussian_density": abs(abs(w1) ** 2 - np.exp(-kappa2_flat(1.0, 1.0, z1, z2)))}


# ---------------------------------------------------------------------------
# intertwine suite
# ---------------------------------------------------------------------------

@_block("intertwine", _Check("frame_intertwine_{chart}"),
        _Check("frame_intertwine_shifted_{chart}"))
def _frame_intertwine(case):
    geo, point = case.geo, case.chart.point
    return {"frame_intertwine_{chart}": check_frame_intertwine(geo, point, 1j),
            "frame_intertwine_shifted_{chart}":
                check_shifted_frame_intertwine(geo, point, 0.3 + 0.8j)}


# ---------------------------------------------------------------------------
# flat oracle suite
# ---------------------------------------------------------------------------

@_block("flat-oracle", _Check("flow_oracle_equivalence", 1e-8,
                              note="200 points x Btilde in {0.5, 1, 2} x |sigma| <= 1.2"),
        _Check("complex_coordinates", 1e-8), _Check("frame_closed_form", 1e-9),
        _Check("conjugate_pair_determinant", 1e-8, note="det[F, conj F] = -4 sinh^2(Btilde)/B^2"),
        charts=("flat",))
def _flat_closed_forms(case):
    """Three planes (Btilde 0.5, 1, 2) against the closed-form flow, complex
    coordinates, frame columns and the determinant of [F, conj F]."""
    rng, wide = case.rng, case.chart.wide
    flats = [(B, mf, _flat(B, mf)) for B, mf in ((0.5, 1.0), (1.0, 1.0), (1.0, 0.5))]
    flows, coords, spans, dets = [], [], [], []
    sigmas = (0.7, -1.2, 1j, 0.3 + 0.8j, -0.5 + 0.6j, 1.2j)
    Zs = [_sample(rng, geo, 200, wide) for *_, geo in flats]
    Zf = [_sample(rng, geo, 5, wide) for *_, geo in flats]
    # per plane: the flows at sigmas, the frames at i and the raw columns
    # at the origin, all in one request
    results = yield from gather(
        [_at_times(flow_many_gen, geo, Z, sigmas, tangent=False) for (*_, geo), Z in zip(flats, Zs)]
        + [frames_at_many_gen(geo, Z, 1j) for (*_, geo), Z in zip(flats, Zf)]
        + [flow_many_gen(geo, np.zeros((1, 4)), 1j) for *_, geo in flats])
    for (B, mass_freq, _), Z, plane in zip(flats, Zs, results):
        for sig, res in zip(sigmas, plane):
            ref = orc.flat_flow_oracle(B, mass_freq, Z, sig)
            flows.append(np.abs(np.concatenate([res.x, res.p], axis=1) - ref))
            if sig == 1j:
                coords.append(np.abs(res.x - orc.flat_complex_coordinates(B, mass_freq, Z)))
    for (B, mass_freq, _), frames in zip(flats, results[3:6]):
        spans.append(subspace_distance(_ok(frames), orc.flat_frame_columns(B, mass_freq, 1j)))
    for (B, mass_freq, _), raw in zip(flats, results[6:]):  # on the raw transported columns
        Fraw = raw.jac[0][:, 2:]
        det = np.linalg.det(np.concatenate([Fraw, Fraw.conj()], axis=1))
        dets.append(abs(det - (-4 * np.sinh(B / mass_freq) ** 2 / B**2)))
    return {"flow_oracle_equivalence": flows, "complex_coordinates": coords,
            "frame_closed_form": spans, "conjugate_pair_determinant": dets}


@_block("flat-oracle", _Check("f_sigma_closed_form", 1e-9),
        _Check("f_minus_i_distinguished_point", 1e-9,
               note="z=(0,0,1,0), B=Btilde=1: 2i f_{-i} = sinh 1"), charts=("flat",))
def _flat_potential_closed_forms(case):
    """f_sigma in closed form; 2 i f_{-i} = sinh(Btilde) at (0, 0, 1, 0)."""
    geo = case.geo
    Z = _sample(case.rng, geo, 20, case.chart.wide)
    (vals, _, _), f = yield from gather([
        potential_f_many_gen(geo, np.concatenate([Z, Z]), np.repeat([0.5, -0.8], len(Z))),
        potential_f_many_gen(geo, np.array([[0, 0, 1, 0]]), -1j)])
    ref = np.concatenate([orc.flat_f_sigma(1.0, 1.0, Z, sig) for sig in (0.5, -0.8)])
    fm = complex(_ok(f)[0])
    return {"f_sigma_closed_form": np.abs(vals - ref),
            "f_minus_i_distinguished_point": abs(2j * fm - np.sinh(1.0))}


@_block("flat-oracle", _Check("geodesic_limit", 1e-10), _Check("larmor_periodicity", 1e-8),
        charts=("flat",))
def _geodesic_limit_and_larmor_period(case):
    rng, wide = case.rng, case.chart.wide
    geo0 = _flat(0.0, 1.0)
    Z = _sample(rng, geo0, 20, wide)
    Zl = _sample(rng, case.geo, 10, (wide[0], 1.0))
    res, larmor = yield from gather([flow_many_gen(geo0, Z, 0.9, tangent=False),
                                     flow_many_gen(case.geo, Zl, 2 * np.pi, tangent=False)])
    straight = Z[:, :2] + 0.9 * Z[:, 2:]
    geodesic = np.abs(np.concatenate([res.x - straight, res.p - Z[:, 2:]], axis=1))
    return {"geodesic_limit": geodesic,
            "larmor_periodicity": np.abs(np.concatenate([larmor.x, larmor.p], axis=1) - Zl)}


# ---------------------------------------------------------------------------
# sphere oracle suite
# ---------------------------------------------------------------------------

@_block("sphere-oracle", _Check("engine_oracle_equivalence", 1e-8,
                                note="100 chart points, |p| up to 2, |sigma| <= 1.2"),
        _Check("embedding_vs_engine_base", 1e-8), _Check("moment_map_conservation", 1e-9),
        charts=(), extras=(lambda: _CHARTS["sphere"].build(),))
def _sphere_engine(case):
    """The engine's flow against the rotation exponential, |p| up to 2 and
    |sigma| <= 1.2, with the tangent map whose error control `magtube flow`
    uses.  It runs on a sphere of its own build, so that its one 500-row
    tangent batch stays an integration of its own: merged with the other
    suites' first sphere tangent flow it would make one of 731 rows at seed
    1234, at about 9 KB of work arrays a row, and raise verify's peak RSS by
    about 1.4 MB (49.7-49.9 against 48.3-48.5 MB over four harness runs)."""
    rng, sph = case.rng, case.geo
    dirs = rng.normal(size=(100, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    Z = np.concatenate([rng.uniform(-0.1, 0.1, (100, 2)),
                        rng.uniform(0.1, 2.0, (100, 1)) * dirs], axis=1)
    xe, pe = orc.sphere_chart_to_embedding(Z[:, :2], Z[:, 2:], SPHERE_R)
    engine = []
    sigmas = (0.7, -1.2, 1j, 0.3 + 0.8j)
    *flows, real = yield from _at_times(flow_many_gen, sph, Z, sigmas + (0.6,))
    for sig, res in zip(sigmas, flows):
        xs, ps = orc.sphere_chart_to_embedding(res.x, res.p, SPHERE_R)
        xo, po = orc.sphere_flow_oracle(xe, pe, SPHERE_R, SPHERE_B, sig)
        engine += [np.abs(xs - xo), np.abs(ps - po)]
        if sig == 1j:
            base = np.abs(xs - orc.sphere_embedding_map(xe, pe, SPHERE_R, SPHERE_B))
    # the moment map is conserved along engine real flows (here to 0.6)
    x1, p1 = orc.sphere_chart_to_embedding(real.x.real, real.p.real, SPHERE_R)
    J0 = orc.sphere_moment_map(xe, pe, SPHERE_R, SPHERE_B)
    J1 = orc.sphere_moment_map(x1, p1, SPHERE_R, SPHERE_B)
    return {"engine_oracle_equivalence": engine, "embedding_vs_engine_base": base,
            "moment_map_conservation": np.abs(J1 - J0)}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def _call(block: _Block, case, label):
    """The block on one case as a flow generator that returns (values,
    seconds): what the block returns, and its runtime, the time spent inside
    it plus the ``seconds`` of the flow results it is sent.  A block that
    asks for no flow returns its values at once.  Failure rule: a FlowError
    makes the block's checks NaN on that case."""
    seconds, results = 0.0, None
    t0 = time.perf_counter()
    try:
        out = block.fn(case)
        while isgenerator(out):  # until the block returns its values
            try:
                request = out.send(results)
            except StopIteration as stop:
                out = stop.value
                break
            seconds += time.perf_counter() - t0
            results = yield request
            t0 = time.perf_counter()
            seconds += sum(res.seconds for res in results)
    except FlowError as err:
        out = {check.name: _Noted(np.nan, f"{label}: {err}") for check in block.checks}
    return out, seconds + time.perf_counter() - t0


def _rows(check: _Check, outs):
    """Naming rule: (name, tolerance, values) of each row a declared check
    reports, from the block's [(chart, output)] in run order."""
    if "{chart}" not in check.name:
        return [(check.name, check.tol, [out[check.name] for _, out in outs])]
    key = check.name.replace("{chart}", "").strip("_")
    return [(check.name.format(chart=chart), _CHARTS[chart].tol[key], [out[check.name]])
            for chart, out in outs]


def _worst(kind: str, values) -> float:
    """Reduction rule: the worst entry over rows, times and charts, the
    largest for kind 'max' and the smallest for 'min'; NaN if any entry is
    NaN."""
    flat = np.concatenate([np.ravel(v) for value in values
                           for v in (value if isinstance(value, list) else [value])])
    return float(np.max(flat) if kind == "max" else np.min(flat))


def _run(names: tuple, seed: int) -> list:
    """One (CheckResults, block runtimes) pair per suite of ``names``, in
    order: the suite's CheckResults in report order, and the seconds each
    of its blocks took on each chart (see ``_call``), as ``{"block",
    "chart", "runtime_sec"}`` dicts in run order.  Every (block, chart) call
    of the suites runs in one flow plan, on the run's one build of each
    table chart and of each ``_flat`` plane."""
    _flat.cache_clear()
    geos = {name: c.build() for name, c in _CHARTS.items()}
    calls = []  # (block, label, case) in run order
    for suite in names:
        rng = np.random.default_rng([seed, SUITE_NAMES.index(suite)])
        cases = {name: SimpleNamespace(rng=rng, chart=c, geo=geos[name])
                 for name, c in _CHARTS.items()}
        for block in _REGISTRY[suite]:
            calls += [(block, name, cases[name])
                      for name in (cases if block.charts is None else block.charts)]
            for build in block.extras:
                geo = build()
                calls.append((block, geo.name, SimpleNamespace(rng=rng, chart=None, geo=geo)))
    outputs = run(gather([_call(block, case, label) for block, label, case in calls]))
    reports = []
    for suite in names:
        block_runtimes, results = [], []
        for block in _REGISTRY[suite]:
            ran = [(label, out, sec) for (b, label, _), (out, sec) in zip(calls, outputs)
                   if b is block]
            block_runtimes += [{"block": block.fn.__name__.lstrip("_"), "chart": label,
                                "runtime_sec": round(sec, 4)} for label, _, sec in ran]
            outs = [(label, out) for label, out, _ in ran]
            for check in block.checks:
                for name, tol, values in _rows(check, outs):
                    notes = [v.note for v in values if isinstance(v, _Noted)]
                    values = [v.value if isinstance(v, _Noted) else v for v in values]
                    results.append(CheckResult(name, _worst(check.kind, values), tol,
                                               check.kind, notes[0] if notes else check.note))
        reports.append((results, block_runtimes))
    return reports


def _run_one(suite: str, seed: int):
    return _run((suite,), seed)[0]


# the suites, each (seed) -> (CheckResults, block runtimes) run as a plan of
# its own, as module attributes that a tracer may rebind
suite_geometry = partial(_run_one, "geometry")
suite_flow = partial(_run_one, "flow")
suite_frames = partial(_run_one, "frames")
suite_kahler = partial(_run_one, "kahler")
suite_intertwine = partial(_run_one, "intertwine")
suite_flat_oracle = partial(_run_one, "flat-oracle")
suite_sphere_oracle = partial(_run_one, "sphere-oracle")


def suite_functions() -> Dict[str, Callable[[int], tuple]]:
    """Each suite's callable, looked up by name when called."""
    return {name: globals()["suite_" + name.replace("-", "_")] for name in _REGISTRY}


def run_suite(name: str, seed: int = 1234) -> dict:
    """Run a named suite (or 'all', every suite in one flow plan) and return
    a JSON-serializable report.

    The report is deterministic for a fixed seed except for the runtime
    fields: ``runtime_sec`` of the report and of each suite, and each
    suite's ``block_runtime_sec``, the seconds of each block on each chart
    (see ``_run``), kept outside the check dicts.  A suite's
    ``runtime_sec`` is the sum of its block runtimes.
    """
    funcs = suite_functions()
    if name != "all" and name not in funcs:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    selected = list(funcs) if name == "all" else [name]
    t0 = time.perf_counter()
    reports = _run(tuple(selected), seed) if name == "all" else [funcs[name](seed)]
    sub = [{"suite": sname, "checks": [c.as_dict() for c in checks],
            "passed": all(c.passed for c in checks),
            "runtime_sec": round(sum(t["runtime_sec"] for t in block_runtimes), 3),
            "block_runtime_sec": block_runtimes}
           for sname, (checks, block_runtimes) in zip(selected, reports)]
    return {"suite": name, "seed": seed, "suites": sub, "passed": all(s["passed"] for s in sub),
            "runtime_sec": round(time.perf_counter() - t0, 3)}
