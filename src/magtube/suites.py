"""Verification suites: every analytic identity of the construction, run as a
named battery of residual checks against the closed-form oracles.

Each suite returns a list of CheckResult; ``run_suite`` wraps one (or all) of
them into a JSON-serializable report.  All randomness is drawn from the seed,
so reports are reproducible bit for bit (modulo the runtime field).
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.linalg import expm

from . import oracles as orc
from .config import SUITE_NAMES
from .flow import (
    ComplexTime,
    FlowError,
    field_components,
    flow_complex,
    flow_many,
    radius_estimate,
)
from .geometry import (
    ChartedGeometry,
    PhasePoint,
    energy,
    make_flat_magnetic,
    make_sphere_magnetic,
    twisted_symplectic_matrix,
    validate_geometry,
)
from .intertwine import (
    check_flow_reversal,
    check_frame_intertwine,
    check_shifted_frame_intertwine,
)
from .kahler import (
    _kappa_xyuv,
    dbar_residual_many,
    kappa2_flat,
    kde_residual_many,
    phase_gradient,
    potential_f,
    potential_f_many,
    resolve_kappa1_coefficient,
    section_weight,
)
from .structure import (
    acs_point,
    assemble_J,
    frame_at,
    frames_at_many,
    integrability_residual_many,
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
    expected_degenerate: bool = False

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
            "expected_degenerate": self.expected_degenerate,
        }


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

SPHERE_R, SPHERE_B = 1.0, 1.0


def _flat(B: float, mass_freq: float) -> ChartedGeometry:
    return make_flat_magnetic(2, [[0.0, B], [-B, 0.0]], mass_freq)


# A chart of the chart-generic checks and the values they take on it.  A box
# is (|x| max, |p| max) in chart coordinates: ``wide`` is the default sample
# box, ``tube`` the smaller one of the contour checks.  ``point`` is the (1, 2n)
# row of the frame intertwiners; ``tol`` holds each per-chart check's
# tolerance, keyed by its name without the chart's.
_Chart = namedtuple("_Chart", "build wide tube validation_box analyticity_scale group_times "
                              "kahler_rows kde_sigma reversal_box reversal_time point tol")


# The charts every chart-generic check runs on, in the order of the report.
# The oracle suites build the same two charts here: their closed forms take
# B = mass_freq = 1 and r = B = 1.
_CHARTS: Dict[str, _Chart] = {
    "flat": _Chart(
        build=lambda: _flat(1.0, 1.0), wide=(1.0, 2.0), tube=(0.6, 1.0),
        validation_box=1.0, analyticity_scale=0.5, group_times=(0.4, 0.5), kahler_rows=50,
        kde_sigma=0.3, reversal_box=(0.6, 1.0), reversal_time=0.7,
        point=np.array([[0.2, 0.1, 0.6, -0.3]]),
        tol={"validation": 1e-11, "analyticity": 1e-10, "integrability": 1e-11,
             "kde": 1e-9, "dbar": 1e-10, "extension_dbar": 1e-10, "flow_reversal": 1e-9,
             "frame_intertwine": 1e-7, "frame_intertwine_shifted": 1e-6},
    ),
    "sphere": _Chart(
        build=lambda: make_sphere_magnetic(SPHERE_R, SPHERE_B), wide=(0.15, 0.45),
        tube=(0.12, 0.35), validation_box=0.45, analyticity_scale=0.1, group_times=(0.2, 0.3),
        kahler_rows=20, kde_sigma=0.2, reversal_box=(0.15, 0.45), reversal_time=0.5,
        point=np.array([[0.1, -0.05, 0.3, 0.2]]),
        tol={"validation": 1e-8, "analyticity": 1e-8, "integrability": 1e-10,
             "kde": 1e-12, "dbar": 1e-10, "extension_dbar": 1e-10, "flow_reversal": 1e-8,
             "frame_intertwine": 1e-6, "frame_intertwine_shifted": 1e-6},
    ),
}


def _cases() -> Dict[str, Tuple[_Chart, ChartedGeometry]]:
    """Every table chart with its geometry, built now."""
    return {name: (chart, chart.build()) for name, chart in _CHARTS.items()}


def _sample(rng, geo: ChartedGeometry, m: int, box) -> np.ndarray:
    """m phase rows of geo, uniform in the box (|x| max, |p| max)."""
    xmax, pmax = box
    return np.concatenate([rng.uniform(-xmax, xmax, (m, geo.dim)),
                           rng.uniform(-pmax, pmax, (m, geo.dim))], axis=1)


def _rng(seed: int, channel: int):
    return np.random.default_rng([seed, channel])


def _zero_section_flow(geo: ChartedGeometry, xs: np.ndarray, t):
    """States of the zero-section points (x, 0) continued along ComplexTime(t),
    one batch; raises FlowError if a row fails."""
    Z = np.concatenate([xs, np.zeros_like(xs)], axis=1)
    res = flow_many(geo, Z, ComplexTime(t))
    return [res.state(i) for i in range(len(xs))]


def _frames(geo: ChartedGeometry, Z: np.ndarray, t) -> np.ndarray:
    """Transported frames at every row of Z, one batch; raises FlowError if
    a row fails."""
    F, ok, reasons, _ = frames_at_many(geo, Z, t)
    if not ok.all():
        raise FlowError(f"frame transport failed: {[r for r in reasons if r][0]}")
    return F


# ---------------------------------------------------------------------------
# geometry suite
# ---------------------------------------------------------------------------

def _max_residual(report) -> float:
    """The largest invariant residual of a geometry report: every recorded
    one (``jet`` and the second derivatives only where the chart has them)
    except the metric eigenvalue."""
    return max(v for k, v in report.residuals.items() if k != "metric_min_eigenvalue")


def suite_geometry(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 0)
    checks = []
    cases = _cases()

    samples, reports = {}, {}
    for name, (c, geo) in cases.items():
        samples[name] = rng.uniform(-c.validation_box, c.validation_box, (100, geo.dim))
        reports[name] = validate_geometry(geo, samples[name])
        checks.append(CheckResult(f"{name}_validation", _max_residual(reports[name]),
                                  c.tol["validation"]))
    checks.append(CheckResult("metric_positive_definite",
                              min(r.residuals["metric_min_eigenvalue"] for r in reports.values()),
                              0.0, kind="min"))

    # deliberate fault injection: scaling the potential must break dA = beta
    sph = cases["sphere"][1]
    bad = replace(sph, potential=lambda u, _p=sph.potential: 1.01 * _p(u))
    bad_rep = validate_geometry(bad, samples["sphere"][:20])
    checks.append(CheckResult("fault_injection_detected",
                              bad_rep.residuals["exterior_derivative"], 1e-6, kind="min",
                              note="potential scaled by 1.01 must fail the dA=beta check"))

    # chart field against the explicit pullback of the invariant 2-form
    u = rng.uniform(-0.4, 0.4, (50, 2))
    from .geometry import stereographic_frame, stereographic_point

    E3 = stereographic_frame(u, SPHERE_R)
    x3 = stereographic_point(u, SPHERE_R)
    pulled = (SPHERE_B / SPHERE_R) * np.einsum("mi,mi->m", x3,
                                               np.cross(E3[:, :, 0], E3[:, :, 1]))
    checks.append(CheckResult("sphere_beta_pullback",
                              float(np.abs(sph.beta(u)[:, 0, 1] - pulled).max()), 1e-10))

    # total flux of the invariant form over the sphere, by quadrature
    # (Gauss-Legendre in the polar angle, uniform in the periodic azimuth)
    r2, B2 = 2.0, 0.5
    nodes, weights = np.polynomial.legendre.leggauss(64)
    th = 0.5 * np.pi * (nodes + 1.0)
    wth = 0.5 * np.pi * weights
    ph = np.linspace(0, 2 * np.pi, 256, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    xs = r2 * np.stack([np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], -1)
    x_th = r2 * np.stack([np.cos(TH) * np.cos(PH), np.cos(TH) * np.sin(PH), -np.sin(TH)], -1)
    x_ph = r2 * np.stack([-np.sin(TH) * np.sin(PH), np.sin(TH) * np.cos(PH), 0 * TH], -1)
    integrand = (B2 / r2) * np.einsum("tpi,tpi->tp", xs, np.cross(x_th, x_ph))
    flux = float(np.einsum("t,tp->", wth, integrand) * (2 * np.pi / len(ph)))
    checks.append(CheckResult("sphere_flux_quadrature",
                              float(abs(flux - 4 * np.pi * r2**2 * B2)), 1e-8,
                              note="flux of the invariant 2-form is 4 pi r^2 B (here 8 pi)"))

    # complex-extension consistency: degree-4 Taylor from the real chart
    for name, (c, geo) in cases.items():
        checks.append(CheckResult(f"{name}_analyticity",
                                  _taylor_defect(geo, rng, c.analyticity_scale),
                                  c.tol["analyticity"]))

    # constant-field chart: beta independent of x, metric derivatives zero
    flat = cases["flat"][1]
    pts = rng.uniform(-1, 1, (20, flat.dim))
    bdev = np.abs(flat.beta(pts) - flat.beta(pts * 0)).max()
    gdev = np.abs(flat.inv_metric_deriv(pts)).max()
    checks.append(CheckResult("flat_constancy", float(max(bdev, gdev)), 1e-14))
    return checks


def _taylor_defect(geo: ChartedGeometry, rng, scale: float) -> float:
    """Max defect of evaluators against their degree-4 real Taylor expansion
    continued to an imaginary offset (analyticity probe)."""
    h = eta = 0.04 * scale
    worst = 0.0
    for _ in range(5):
        x = rng.uniform(-0.2, 0.2, geo.dim) * scale
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
                worst = max(worst, float(np.abs(fn(x + t * e) - taylor).max()))
    return worst


# ---------------------------------------------------------------------------
# flow suite
# ---------------------------------------------------------------------------

def suite_flow(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 1)
    checks = []
    cases = _cases()

    # group law, symplectomorphy, energy conservation on real flows
    worst_group, worst_symp, worst_energy, min_det = 0.0, 0.0, 0.0, np.inf
    for c, geo in cases.values():
        n = geo.dim
        s1, s2 = c.group_times
        Z = _sample(rng, geo, 20, c.wide)
        r1 = flow_many(geo, Z, s1)
        r2 = flow_many(geo, np.concatenate([r1.x.real, r1.p.real], axis=1), s2)
        r12 = flow_many(geo, Z, s1 + s2)
        worst_group = max(worst_group, float(np.abs(
            np.concatenate([r2.x - r12.x, r2.p - r12.p], axis=1)).max()))

        om0 = twisted_symplectic_matrix(geo, Z[:, :n])
        om1 = twisted_symplectic_matrix(geo, r12.x)
        pulled = np.einsum("mji,mjk,mkl->mil", r12.jac, om1, r12.jac)
        worst_symp = max(worst_symp, float(np.abs(pulled - om0).max()))

        worst_energy = max(worst_energy, float(np.abs(
            energy(geo, r12.x, r12.p) - energy(geo, Z[:, :n], Z[:, n:])).max()))
        min_det = min(min_det, float(r12.det_min.min()))
    checks.append(CheckResult("group_law", worst_group, 1e-9))
    checks.append(CheckResult("symplectomorphy", worst_symp, 1e-8))
    checks.append(CheckResult("energy_conservation", worst_energy, 1e-10))
    checks.append(CheckResult("jacobian_nonsingular", min_det, 1e-6, kind="min"))

    # Hamiltonian field against the omega-inversion oracle
    worst = max(_field_inversion_defect(geo, _sample(rng, geo, 10, c.wide))
                for c, geo in cases.values())
    checks.append(CheckResult("hamiltonian_field_inversion", worst, 1e-10))

    # zero-section: field vanishes, points are fixed
    zfix = flow_complex(cases["flat"][1], PhasePoint([0.3, -0.4], [0, 0]), 0.3 + 0.8j,
                        tangent=False)
    checks.append(CheckResult("zero_section_fixed",
                              float(np.abs(zfix.as_vector() - np.array([0.3, -0.4, 0, 0])).max()),
                              1e-12))

    # zero-section linearization against the block matrix exponential
    worst_jac, worst_span = 0.0, 0.0
    for geo in (cases["flat"][1], _flat(1.0, 0.5), cases["sphere"][1]):
        xs = rng.uniform(-0.3, 0.3, (2, geo.dim))
        Z = np.concatenate([xs, np.zeros_like(xs)], axis=1)
        g0, b0 = geo.inv_metric(xs), geo.beta(xs)
        for sig in (0.5, 1j, 0.3 + 0.8j):
            for i, st in enumerate(_zero_section_flow(geo, xs, sig)):
                ref = orc.zero_section_linearization(b0[i], sig, g0[i])
                worst_jac = max(worst_jac, float(np.abs(st.jac - ref).max()))
        for sig in (1j, 0.3 + 0.8j):
            ref = np.stack([orc.zero_section_frame(b0[i], sig, g0[i]) for i in range(len(xs))])
            worst_span = max(worst_span,
                             float(subspace_distance(_frames(geo, Z, sig), ref).max()))
    checks.append(CheckResult("zero_section_jacobian", worst_jac, 1e-9))
    checks.append(CheckResult("zero_section_frame_span", worst_span, 1e-9))

    # path independence of the continuation
    worst = 0.0
    for c, geo in cases.values():
        Z = _sample(rng, geo, 20, c.wide)
        mid = complex(rng.uniform(0.3, 0.8), rng.uniform(-0.2, 0.4))
        rA = flow_many(geo, Z, ComplexTime(1j), tangent=False)
        rB = flow_many(geo, Z, ComplexTime(1j, (mid, 1j)), tangent=False)
        worst = max(worst, float(np.abs(
            np.concatenate([rA.x - rB.x, rA.p - rB.p], axis=1)).max()))
    checks.append(CheckResult("path_independence", worst, 1e-9))

    # inverse consistency: back along the reversed path and out again
    # recovers the start
    worst = 0.0
    for c, geo in cases.values():
        Z = _sample(rng, geo, 15, c.wide)
        for t in (ComplexTime(1j), ComplexTime(0.3 + 0.8j)):
            back = flow_many(geo, Z, t.reversed(), tangent=False)
            W = np.concatenate([back.x, back.p], axis=1)
            W[~back.ok] = 0.0  # parked; masked out below
            out = flow_many(geo, W, t, tangent=False)
            ok = back.ok & out.ok
            trip = np.abs(np.concatenate([out.x, out.p], axis=1) - Z).max(axis=1)
            worst = max(worst, float(trip[ok].max()))
    checks.append(CheckResult("inverse_consistency", worst, 1e-8))

    # the sphere's tangent map against a contour derivative of the
    # tangent-free flow, which never evaluates second derivatives
    sph, geo = cases["sphere"]
    checks.append(CheckResult("tangent_map_contour",
                              _tangent_map_contour_defect(geo, _sample(rng, geo, 6, sph.tube),
                                                          ComplexTime(1j)),
                              1e-10))

    checks.append(CheckResult("radius_estimate_value",
                              abs(radius_estimate(1.0, 1.0, float(np.exp(-1.2))) - 1.2),
                              1e-12))
    return checks


def _tangent_map_contour_defect(geo: ChartedGeometry, Z: np.ndarray, t) -> float:
    """max |jac - dPhi_t/dz| over the rows of Z.

    The flow is holomorphic in the start point, so dPhi_t/dz is
    ``phase_gradient`` of the tangent-free flow, which never evaluates
    second derivatives; a failed row reads NaN.
    """
    def phi(rows):
        res = flow_many(geo, rows, t, tangent=False)
        return np.concatenate([res.x, res.p], axis=1), res.ok, res.reasons

    deriv = phase_gradient(phi, Z, np.eye(2 * geo.dim))[3].swapaxes(1, 2)  # (m, component, coord)
    ref = flow_many(geo, Z, t)
    deriv[~ref.ok] = np.nan
    return float(np.abs(deriv - ref.jac).max())


def _field_inversion_defect(geo: ChartedGeometry, Z: np.ndarray) -> float:
    """max |X_E - Omega^{-1} dE| over the rows of Z, dE by ``phase_gradient``."""
    n = geo.dim
    dE = phase_gradient(lambda rows: (energy(geo, rows[:, :n], rows[:, n:]), True, None), Z,
                        np.eye(2 * n))[3]
    XE = np.concatenate(field_components(geo, Z[:, :n], Z[:, n:]), axis=1)
    om = twisted_symplectic_matrix(geo, Z[:, :n])
    # omega(X, .) = dE  =>  Omega^T X = dE
    X = np.linalg.solve(om.swapaxes(1, 2), dE[..., None])[..., 0]
    return float(np.abs(X - XE).max())


# ---------------------------------------------------------------------------
# frames suite
# ---------------------------------------------------------------------------

def suite_frames(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 2)
    checks = []
    cases = _cases()

    worst_lagr, worst_conj_span, worst_conjJ, worst_gauge = 0.0, 0.0, 0.0, 0.0
    min_trans, min_pos, min_metric_pos = np.inf, np.inf, np.inf
    for name, (c, geo) in cases.items():
        n = geo.dim
        Z = _sample(rng, geo, 100, c.wide)
        F, ok, reasons, _ = frames_at_many(geo, Z, 1j)
        if not ok.all():
            checks.append(CheckResult(f"{name}_frames_computed", float(ok.mean()), 1.0 - 1e-12,
                                      kind="min", note=str([r for r in reasons if r][0])))
            Z, F = Z[ok], F[ok]
        om = twisted_symplectic_matrix(geo, Z[:, :n])
        lagr = np.einsum("mji,mjk,mkl->mil", F, om, F)  # complex-bilinear F^T Om F
        worst_lagr = max(worst_lagr, float(np.abs(lagr).max()))
        min_trans = min(min_trans, float(transversality_check(F).min()))
        M = positivity_matrix(geo, Z[:, :n], F)
        min_pos = min(min_pos, float(np.linalg.eigvalsh(M).min()))

        # conjugate frame spans the conjugate-time subspace
        Fm = frames_at_many(geo, Z[:5], -1j)[0]
        worst_conj_span = max(worst_conj_span, float(subspace_distance(F[:5].conj(), Fm).max()))

        # J at conjugate times are opposite; omega(X, JX) > 0; gauge
        # invariance under random right-multiplication
        for i in range(3):
            z = PhasePoint(Z[i, :n], Z[i, n:])
            acs_p = assemble_J(geo, z.x, F[i])
            acs_m = assemble_J(geo, z.x, Fm[i])
            worst_conjJ = max(worst_conjJ, float(np.abs(acs_p.J + acs_m.J).max()))
            omz = twisted_symplectic_matrix(geo, z.x).real
            Sym = omz @ acs_p.J
            Sym = 0.5 * (Sym + Sym.T)
            min_metric_pos = min(min_metric_pos, float(np.linalg.eigvalsh(Sym).min()))

            G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            acs_g = assemble_J(geo, z.x, orthonormalize(F[i] @ G))
            worst_gauge = max(
                worst_gauge,
                float(np.abs(acs_p.J - acs_g.J).max()),
                float(np.abs(acs_p.positivity_spectrum - acs_g.positivity_spectrum).max()),
                abs(acs_p.transversality - acs_g.transversality),
            )

    checks.append(CheckResult("lagrangian_residual", worst_lagr, 1e-8))
    checks.append(CheckResult("transversality_margin", min_trans, 1e-6, kind="min"))
    checks.append(CheckResult("positivity_min_eigenvalue", min_pos, 0.0, kind="min"))
    checks.append(CheckResult("conjugate_frame_span", worst_conj_span, 1e-9))
    checks.append(CheckResult("conjugate_time_J", worst_conjJ, 1e-8))
    checks.append(CheckResult("metric_positivity", min_metric_pos, 0.0, kind="min"))
    checks.append(CheckResult("frame_gauge_invariance", worst_gauge, 1e-9))

    # real time: the frame equals its conjugate, transversality degenerates
    fr_real = frame_at(cases["flat"][1], PhasePoint([0.2, 0.1], [0.6, -0.3]), 0.5)
    checks.append(CheckResult("real_time_degeneracy", transversality_check(fr_real.F), 1e-8,
                              expected_degenerate=True,
                              note="tau=0 frame equals its conjugate by construction"))

    # zero-section Hermitian form against the closed-form positivity matrix
    worst = 0.0
    for geo in (_flat(1.0, 0.5), cases["sphere"][1]):
        n = geo.dim
        xs = rng.uniform(-0.2, 0.2, (2, n))
        changes = [normalized_zero_section_frame_change(geo, x0) for x0 in xs]
        for t in (1j, 0.3 + 0.8j):
            for (T, btil), st in zip(changes, _zero_section_flow(geo, xs, t)):
                Fn = T @ st.jac[:, n:] @ T[:n, :n].T
                om_t = np.block([[-btil, np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
                M = 1j * Fn.conj().T @ om_t @ Fn
                worst = max(worst, float(np.abs(M - orc.zero_section_positivity_matrix(btil, t)).max()))
    checks.append(CheckResult("zero_section_positivity_form", worst, 1e-8,
                              note="matches 2 tau (e^{2 i tau beta}-1)/(2 i tau beta); its "
                                   "transpose is the same form written with the conjugation "
                                   "on the other slot"))

    # totally real zero-section: vertical block of the frame is nonsingular
    min_block, min_horiz = np.inf, np.inf
    for c, geo in cases.values():
        n = geo.dim
        xs = rng.uniform(-0.2, 0.2, (3, n))
        F = _frames(geo, np.concatenate([xs, np.zeros_like(xs)], axis=1), 1j)
        Eh = np.vstack([np.eye(n), np.zeros((n, n))])
        for i, st in enumerate(_zero_section_flow(geo, xs, 1j)):
            T, btil = normalized_zero_section_frame_change(geo, xs[i])
            Fn = T @ st.jac[:, n:]
            min_block = min(min_block, float(np.linalg.svd(Fn[n:], compute_uv=False)[-1]))
            min_block = min(min_block, float(np.linalg.svd(expm(1j * btil), compute_uv=False)[-1]))
            acs = assemble_J(geo, xs[i], F[i])
            min_horiz = min(min_horiz, float(
                np.linalg.svd(np.hstack([Eh, acs.J @ Eh]), compute_uv=False)[-1]))
    checks.append(CheckResult("totally_real_vertical_block", min_block, 1e-6, kind="min"))
    checks.append(CheckResult("totally_real_horizontal", min_horiz, 1e-6, kind="min"))

    # integrability via contour-derivative brackets; the samples are drawn
    # per time, chart after chart
    worst = dict.fromkeys(cases, 0.0)
    for t in (1j, 0.3 + 0.8j):
        for name, (c, geo) in cases.items():
            Z = _sample(rng, geo, 20, c.tube)
            worst[name] = max(worst[name],
                              float(integrability_residual_many(geo, Z, t)[3].max()))
    for name, (c, _) in cases.items():
        checks.append(CheckResult(f"integrability_{name}", worst[name], c.tol["integrability"]))
    return checks


# ---------------------------------------------------------------------------
# kahler suite
# ---------------------------------------------------------------------------

def suite_kahler(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 3)
    checks = []
    cases = _cases()
    Z = {name: _sample(rng, geo, c.kahler_rows, c.tube) for name, (c, geo) in cases.items()}

    for name, (c, geo) in cases.items():
        checks.append(CheckResult(f"kde_{name}",
                                  float(kde_residual_many(geo, Z[name], c.kde_sigma).max()),
                                  c.tol["kde"]))

    # f at +-i: conjugation symmetry, reality of kappa2, closed form on the plane
    flat, Zf = cases["flat"][1], Z["flat"]
    fm, fp = np.split(potential_f_many(flat, np.concatenate([Zf, Zf]),
                                       np.repeat([-1j, 1j], len(Zf)))[0], 2)
    checks.append(CheckResult("f_conjugation", float(np.abs(np.conj(fm) - fp).max()), 1e-8))
    kappa2_num = 1j * (fm - fp)
    checks.append(CheckResult("kappa2_reality", float(np.abs(kappa2_num.imag).max()), 1e-10))

    zc = orc.flat_complex_coordinates(1.0, 1.0, Zf)
    kappa2_cf = np.array([kappa2_flat(1.0, 1.0, z1, z2) for z1, z2 in zc])
    checks.append(CheckResult("kappa2_closed_form",
                              float(np.abs((2j * fm).real - kappa2_cf).max()), 1e-7))

    # f_0 = 0 and the sigma = 0 slope identity
    f0, _, _ = potential_f_many(flat, Zf[:10], 0.0)
    checks.append(CheckResult("f_zero_at_origin", float(np.abs(f0).max()), 1e-12))

    # dbar f_{-i} = (theta^A)^{0,1}
    F = {}
    for name, (c, geo) in cases.items():
        F[name] = frames_at_many(geo, Z[name], 1j)[0]
        checks.append(CheckResult(f"dbar_{name}",
                                  float(dbar_residual_many(geo, Z[name], F[name].conj())[3].max()),
                                  c.tol["dbar"]))

    # kappa1: coefficient resolution by the adaptedness identity
    acs = assemble_J(flat, Zf[0, :2], F["flat"][0])
    coeff, residuals = resolve_kappa1_coefficient(1.0, 1.0, acs.J, Zf[:10])
    checks.append(CheckResult("kappa1_adapted", residuals[coeff], 1e-10,
                              note=f"tanh coefficient resolved to {coeff} * B "
                                   f"(candidate residuals: 0.5B -> {residuals[0.5]:.3e}, "
                                   f"1.0B -> {residuals[1.0]:.3e})"))
    checks.append(CheckResult("kappa1_coefficient_is_half", abs(coeff - 0.5), 1e-12))

    # i d dbar kappa2 reproduces the twisted form in complex coordinates
    checks.append(CheckResult("i_ddbar_kappa2", _i_ddbar_defect(1.0, 1.0, rng), 1e-8))

    # holomorphic extensions: dbar-closure and ring property
    for name, (c, geo) in cases.items():
        checks.append(CheckResult(f"extension_dbar_{name}",
                                  _extension_dbar_defect(geo, Z[name][:8], F[name][:8]),
                                  c.tol["extension_dbar"]))

    z = PhasePoint(Zf[0, :2], Zf[0, 2:])
    st = flow_complex(flat, z, 1j, tangent=False)
    z1, z2 = orc.flat_complex_coordinates(1.0, 1.0, z.as_vector())
    checks.append(CheckResult("extension_coordinates",
                              float(max(abs(st.x[0] - z1), abs(st.x[1] - z2))), 1e-8))
    checks.append(CheckResult("extension_ring_property",
                              float(abs(st.x[0] ** 2 - z1**2)), 1e-8,
                              note="extension of x1^2 equals the square of the extension"))
    st0 = flow_complex(flat, PhasePoint([0.3, -0.2], [0, 0]), 1j, tangent=False)
    checks.append(CheckResult("extension_zero_section",
                              float(np.abs(st0.x - np.array([0.3, -0.2])).max()), 1e-12))

    # section weights
    w0 = section_weight(flat, PhasePoint([0.4, -0.1], [0, 0]), 1)
    checks.append(CheckResult("weight_zero_section", abs(w0 - 1.0), 1e-12))
    w1 = section_weight(flat, z, 1)
    w2 = section_weight(flat, z, 2)
    checks.append(CheckResult("weight_power_law", abs(w2 - w1**2), 1e-10))
    kap2 = kappa2_flat(1.0, 1.0, z1, z2)
    checks.append(CheckResult("weight_gaussian_density", abs(abs(w1) ** 2 - np.exp(-kap2)),
                              1e-10,
                              note="|weight|^2 = e^{-kappa2}; with B = lambda and "
                                   "mass_freq = 1/(2t) this is the heat-kernel space weight"))
    return checks


def _i_ddbar_defect(B: float, mass_freq: float, rng) -> float:
    """Defect of i d dbar kappa2 = omega (both pushed to complex coordinates)."""
    Bt = B / mass_freq
    sh, ch = np.sinh(Bt), np.cosh(Bt)
    # real coordinates (Re z1, Im z1, Re z2, Im z2) as a linear map of (x, p)
    T = np.array([[1, 0, 0, -(ch - 1) / B], [0, 0, sh / B, 0],
                  [0, 1, (ch - 1) / B, 0], [0, 0, 0, sh / B]])
    om = np.array([[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]], dtype=float)
    om[:2, :2] = [[0, -B], [B, 0]]
    Tinv = np.linalg.inv(T)
    om_z = Tinv.T @ om @ Tinv  # the twisted form in the real z-coordinates

    def kap(w):  # w = (x, y, u, v), continued holomorphically
        return _kappa_xyuv(B, mass_freq, *w.T, 0.0), True, None

    def grad(w):
        return phase_gradient(kap, w, np.eye(4))[3], True, None

    hess = phase_gradient(grad, rng.uniform(-0.5, 0.5, (5, 4)), np.eye(4))[3]
    # H_{a b-bar} = p_a^T hess conj(p_b) with p = d/dz columns
    P = 0.5 * np.array([[1, 0], [-1j, 0], [0, 1], [0, -1j]])
    H = np.einsum("ia,kij,jb->kab", P, hess, P.conj())
    # i H_{ab} dz_a ^ dzbar_b as a real 2-form matrix
    dz = np.array([[1, 1j, 0, 0], [0, 0, 1, 1j]])  # dz_a on real basis vectors
    A = np.einsum("kab,am,bn->kmn", H, dz, dz.conj())
    W = 1j * (A - A.swapaxes(1, 2))
    return float((np.abs(W.real - om_z).max(axis=(1, 2)) + np.abs(W.imag).max(axis=(1, 2))).max())


def _extension_dbar_defect(geo: ChartedGeometry, Z: np.ndarray, F: np.ndarray) -> float:
    """Max dbar defect of f o pi o Phi_i for coordinate / quadratic f: their
    derivatives along the (0,1) columns conj F of the frames F at Z."""

    def monomials(rows):  # f = x1, x2, x1^2, x1 x2 at pi o Phi_i
        res = flow_many(geo, rows, ComplexTime(1j), tangent=False)
        x1, x2 = res.x[:, 0], res.x[:, 1]
        return np.stack([x1, x2, x1**2, x1 * x2], axis=1), res.ok, res.reasons

    return float(np.abs(phase_gradient(monomials, Z, F.conj().swapaxes(1, 2))[3]).max())


# ---------------------------------------------------------------------------
# intertwine suite
# ---------------------------------------------------------------------------

def suite_intertwine(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 4)
    checks = []
    cases = _cases()
    flat0 = _flat(0.0, 1.0)
    flat, flat_geo = cases["flat"]

    z = np.array([[0.0, 0.0, 1.0, 0.0]])
    checks.append(CheckResult("flow_reversal_geodesic",
                              float(check_flow_reversal(flat0, z, 0.7).max()), 1e-10))

    # the same identity on every chart, and on the closed-form flow alone;
    # the closed-form sample is drawn, and its check reported, right after
    # the flat chart's
    Z = {"flat": _sample(rng, flat_geo, 10, flat.reversal_box)}
    Zo = _sample(rng, flat_geo, 10, flat.wide)
    Z.update((name, _sample(rng, geo, 10, c.reversal_box))
             for name, (c, geo) in cases.items() if name not in Z)
    reversal = {name: CheckResult(f"flow_reversal_{name}",
                                  float(check_flow_reversal(geo, Z[name], c.reversal_time).max()),
                                  c.tol["flow_reversal"])
                for name, (c, geo) in cases.items()}
    nu = np.diag([1.0, 1.0, -1.0, -1.0])
    lhs = orc.flat_flow_oracle(-1.0, 1.0, Zo @ nu, 0.7) @ nu
    rhs = orc.flat_flow_oracle(1.0, 1.0, Zo, -0.7)
    checks.append(reversal.pop("flat"))
    checks.append(CheckResult("flow_reversal_flat_oracle", float(np.abs(lhs - rhs).max()), 1e-12))
    checks.extend(reversal.values())

    checks.append(CheckResult("frame_intertwine_geodesic",
                              float(check_frame_intertwine(flat0, flat.point, 1j).max()), 1e-8))
    for key, check, t in (("frame_intertwine", check_frame_intertwine, 1j),
                          ("frame_intertwine_shifted", check_shifted_frame_intertwine, 0.3 + 0.8j)):
        for name, (c, geo) in cases.items():
            checks.append(CheckResult(f"{key}_{name}", float(check(geo, c.point, t).max()),
                                      c.tol[key]))

    # nu is an involution: pushing a frame through twice recovers its span
    F = _frames(flat_geo, flat.point, 1j)[0]
    checks.append(CheckResult("involution", subspace_distance(nu @ (nu @ F), F), 1e-10))
    return checks


# ---------------------------------------------------------------------------
# flat oracle suite
# ---------------------------------------------------------------------------

def suite_flat_oracle(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 5)
    checks = []
    wide = _CHARTS["flat"].wide
    # (B, mass_freq, chart) with Btilde 0.5, 1, 2
    flats = [(B, mf, _flat(B, mf)) for B, mf in ((0.5, 1.0), (1.0, 1.0), (1.0, 0.5))]

    worst_flow, worst_z = 0.0, 0.0
    for B, mass_freq, geo in flats:
        Z = _sample(rng, geo, 200, wide)
        for sig in (0.7, -1.2, 1j, 0.3 + 0.8j, -0.5 + 0.6j, 1.2j):
            res = flow_many(geo, Z, ComplexTime(complex(sig)), tangent=False)
            ref = orc.flat_flow_oracle(B, mass_freq, Z, sig)
            worst_flow = max(worst_flow, float(np.abs(
                np.concatenate([res.x, res.p], axis=1) - ref).max()))
        res_i = flow_many(geo, Z, ComplexTime(1j), tangent=False)
        zc = orc.flat_complex_coordinates(B, mass_freq, Z)
        worst_z = max(worst_z, float(np.abs(res_i.x - zc).max()))
    checks.append(CheckResult("flow_oracle_equivalence", worst_flow, 1e-8,
                              note="200 points x Btilde in {0.5, 1, 2} x |sigma| <= 1.2"))
    checks.append(CheckResult("complex_coordinates", worst_z, 1e-8))

    # transported frame against the closed-form pushforward columns
    worst = 0.0
    for B, mass_freq, geo in flats:
        Fo = orc.flat_frame_columns(B, mass_freq, 1j)
        worst = max(worst, float(subspace_distance(_frames(geo, _sample(rng, geo, 5, wide), 1j),
                                                   Fo).max()))
    checks.append(CheckResult("frame_closed_form", worst, 1e-9))

    # determinant of [F, conj F] on the raw transported columns
    worst = 0.0
    for B, mass_freq, geo in flats:
        st = flow_complex(geo, PhasePoint([0.0, 0.0], [0.0, 0.0]), 1j)
        Fraw = st.jac[:, 2:]
        det = np.linalg.det(np.concatenate([Fraw, Fraw.conj()], axis=1))
        Bt = B / mass_freq
        worst = max(worst, float(abs(det - (-4 * np.sinh(Bt) ** 2 / B**2))))
    checks.append(CheckResult("conjugate_pair_determinant", worst, 1e-8,
                              note="det[F, conj F] = -4 sinh^2(Btilde)/B^2"))

    # f_sigma closed form
    geo = _CHARTS["flat"].build()
    Z = _sample(rng, geo, 20, wide)
    vals = potential_f_many(geo, np.concatenate([Z, Z]), np.repeat([0.5, -0.8], len(Z)))[0]
    ref = np.concatenate([orc.flat_f_sigma(1.0, 1.0, Z, sig) for sig in (0.5, -0.8)])
    checks.append(CheckResult("f_sigma_closed_form", float(np.abs(vals - ref).max()), 1e-9))

    # 2 i f_{-i} at the distinguished point equals sinh(Btilde)
    fm = potential_f(geo, PhasePoint([0, 0], [1, 0]), -1j)
    checks.append(CheckResult("f_minus_i_distinguished_point",
                              abs(2j * fm - np.sinh(1.0)), 1e-9,
                              note="z=(0,0,1,0), B=Btilde=1: 2i f_{-i} = sinh 1"))

    # geodesic limit and Larmor periodicity
    geo0 = _flat(0.0, 1.0)
    Z = _sample(rng, geo0, 20, wide)
    res = flow_many(geo0, Z, 0.9, tangent=False)
    straight = Z[:, :2] + 0.9 * Z[:, 2:]
    worst = float(np.abs(np.concatenate([res.x - straight, res.p - Z[:, 2:]], axis=1)).max())
    checks.append(CheckResult("geodesic_limit", worst, 1e-10))

    Z = _sample(rng, geo, 10, (wide[0], 1.0))
    res = flow_many(geo, Z, 2 * np.pi, tangent=False)
    worst = float(np.abs(np.concatenate([res.x, res.p], axis=1) - Z).max())
    checks.append(CheckResult("larmor_periodicity", worst, 1e-8))

    # kappa1 tanh-coefficient resolution note (recorded here as well)
    acs = acs_point(geo, PhasePoint([0.2, 0.1], [0.6, -0.3]), 1j)
    coeff, residuals = resolve_kappa1_coefficient(1.0, 1.0, acs.J, _sample(rng, geo, 6, wide))
    checks.append(CheckResult("kappa1_coefficient_resolution", residuals[coeff], 1e-10,
                              note=f"adapted potential uses {coeff} * B tanh(Btilde/2); "
                                   f"rejected coefficient residual {residuals[1.0]:.3e}"))
    return checks


# ---------------------------------------------------------------------------
# sphere oracle suite
# ---------------------------------------------------------------------------

def _random_sphere_states(rng, m, r, pmax=2.0):
    x = rng.normal(size=(m, 3))
    x *= r / np.linalg.norm(x, axis=1, keepdims=True)
    v = rng.normal(size=(m, 3))
    # project twice: one pass leaves x.v at ~1e-12 when v is nearly radial,
    # and the embedding quadric a.a = r^2 holds only for tangent v
    for _ in range(2):
        v -= (np.einsum("mi,mi->m", v, x) / r**2)[:, None] * x
    norm = np.linalg.norm(v, axis=1, keepdims=True)
    v *= rng.uniform(0.05, pmax, (m, 1)) / norm
    return x, v


def suite_sphere_oracle(seed: int) -> List[CheckResult]:
    rng = _rng(seed, 6)
    checks = []

    # a . a = r^2 on random states across radii and fields
    worst = 0.0
    for r in (1.0, 2.0):
        for B in (0.0, 0.5, 1.0):
            x, p = _random_sphere_states(rng, 84, r)
            a = orc.sphere_embedding_map(x, p, r, B)
            worst = max(worst, float(np.abs(np.einsum("mi,mi->m", a, a) - r**2).max()))
    checks.append(CheckResult("embedding_quadric", worst, 1e-12,
                              note="504 random states, r in {1,2}, B in {0,0.5,1}"))

    x, p = _random_sphere_states(rng, 20, 1.0)
    a0 = orc.sphere_embedding_map(x, np.zeros_like(p), 1.0, 1.0)
    checks.append(CheckResult("embedding_fixes_zero_section",
                              float(np.abs(a0 - x).max()), 1e-12))

    J = orc.sphere_moment_map(x, p, 1.0, 1.0)
    jsq = np.einsum("mi,mi->m", J, J)
    psq = np.einsum("mi,mi->m", p, p)
    checks.append(CheckResult("moment_map_identity",
                              float(np.abs(jsq - (psq + 1.0)).max()), 1e-12,
                              note="J.J = r^2 p.p + r^4 B^2"))

    # rigid-rotation checks at real and complex times (oracle side)
    worst_real, worst_cplx = 0.0, 0.0
    for sig in (0.8, 1j, 0.4 - 0.6j):
        xr, pr = orc.sphere_flow_oracle(x, p, 1.0, 1.0, sig)
        cx = np.abs(np.einsum("mi,mi->m", xr, xr) - 1.0).max()
        cp = np.abs(np.einsum("mi,mi->m", xr, pr)).max()
        Jr = orc.sphere_moment_map(xr, pr, 1.0, 1.0)
        cj = np.abs(Jr - J).max()
        if np.iscomplexobj(sig) and complex(sig).imag:
            worst_cplx = max(worst_cplx, float(max(cx, cp, cj)))
        else:
            er = 0.5 * np.abs(np.einsum("mi,mi->m", pr, pr) - psq).max()
            worst_real = max(worst_real, float(max(cx, cp, cj, er)))
    checks.append(CheckResult("oracle_conservation_real", worst_real, 1e-12))
    checks.append(CheckResult("oracle_constraints_complex", worst_cplx, 1e-12))

    # engine flow through the chart against the rotation exponential,
    # momenta up to |p| = 2 and times throughout |sigma| <= 1.2; these flows
    # keep the tangent map, whose error control `magtube flow` also uses
    sph = _CHARTS["sphere"].build()
    dirs = rng.normal(size=(100, 2))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    Z = np.concatenate([rng.uniform(-0.1, 0.1, (100, 2)), rng.uniform(0.1, 2.0, (100, 1)) * dirs],
                       axis=1)
    xe, pe = orc.sphere_chart_to_embedding(Z[:, :2], Z[:, 2:], SPHERE_R)
    worst = 0.0
    for sig in (0.7, -1.2, 1j, 0.3 + 0.8j):
        res = flow_many(sph, Z, sig)
        if not res.ok.all():
            worst = np.inf
            break
        xs, ps = orc.sphere_chart_to_embedding(res.x, res.p, SPHERE_R)
        xo, po = orc.sphere_flow_oracle(xe, pe, SPHERE_R, SPHERE_B, sig)
        worst = max(worst, float(max(np.abs(xs - xo).max(), np.abs(ps - po).max())))
    checks.append(CheckResult("engine_oracle_equivalence", worst, 1e-8,
                              note="100 chart points, |p| up to 2, |sigma| <= 1.2"))

    a = orc.sphere_embedding_map(xe, pe, SPHERE_R, SPHERE_B)
    res_i = flow_many(sph, Z, ComplexTime(1j))
    xs, _ = orc.sphere_chart_to_embedding(res_i.x, res_i.p, SPHERE_R)
    checks.append(CheckResult("embedding_vs_engine_base", float(np.abs(xs - a).max()), 1e-8))

    # moment map conserved along engine real flows
    res = flow_many(sph, Z, 0.6)
    x1, p1 = orc.sphere_chart_to_embedding(res.x.real, res.p.real, SPHERE_R)
    J0 = orc.sphere_moment_map(xe, pe, SPHERE_R, SPHERE_B)
    J1 = orc.sphere_moment_map(x1, p1, SPHERE_R, SPHERE_B)
    checks.append(CheckResult("moment_map_conservation", float(np.abs(J1 - J0).max()), 1e-9))

    # |Im a| is strictly monotone along a momentum ray
    xx = np.array([1.0, 0.0, 0.0])
    direction = np.array([0.0, 1.0, 0.0])
    ps = np.linspace(0.0, 3.0, 100)
    ima = np.array([
        np.linalg.norm(np.imag(orc.sphere_embedding_map(xx, s * direction, 1.0, 1.0)))
        for s in ps
    ])
    checks.append(CheckResult("imag_norm_monotone", float(np.diff(ima).min()), 0.0, kind="min",
                              note="|Im a| = (sinh L / L) |p| with L = sqrt(p^2 + r^2 B^2)/r; "
                                   "the variant taking sinh of p^2 + r^2 B^2 itself fails "
                                   "this identity and is rejected"))

    # numerical injectivity margin
    x1s, p1s = _random_sphere_states(rng, 200, 1.0)
    x2s, p2s = _random_sphere_states(rng, 200, 1.0)
    a1 = orc.sphere_embedding_map(x1s, p1s, 1.0, 1.0)
    a2 = orc.sphere_embedding_map(x2s, p2s, 1.0, 1.0)
    sep_state = np.linalg.norm(np.concatenate([x1s - x2s, p1s - p2s], axis=1), axis=1)
    sep_a = np.linalg.norm(np.abs(a1 - a2), axis=1)
    checks.append(CheckResult("injectivity_margin", float((sep_a / sep_state).min()), 1e-6,
                              kind="min"))

    # chart conversions invert each other
    u2, pc2 = orc.sphere_embedding_to_chart(xe, pe, SPHERE_R)
    checks.append(CheckResult("chart_roundtrip",
                              float(max(np.abs(u2 - Z[:, :2]).max(), np.abs(pc2 - Z[:, 2:]).max())),
                              1e-12))

    # zero-section linearization oracle: geodesic shear and 2x2 exponential
    shear = orc.zero_section_linearization(np.zeros((2, 2)), 0.7 + 0.2j)
    ref = np.eye(4, dtype=complex)
    ref[0, 2] = ref[1, 3] = 0.7 + 0.2j
    worst = float(np.abs(shear - ref).max())
    rot = orc.zero_section_linearization(np.array([[0.0, 1.3], [-1.3, 0.0]]), 1j)
    blk = rot[2:, 2:]
    ref_blk = np.cosh(1.3) * np.eye(2) + 1j * np.sinh(1.3) * np.array([[0, 1], [-1, 0]])
    worst = max(worst, float(np.abs(blk - ref_blk).max()))
    checks.append(CheckResult("zero_section_oracle_forms", worst, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def suite_functions() -> Dict[str, Callable[[int], List[CheckResult]]]:
    return {
        "geometry": suite_geometry,
        "flow": suite_flow,
        "frames": suite_frames,
        "kahler": suite_kahler,
        "intertwine": suite_intertwine,
        "flat-oracle": suite_flat_oracle,
        "sphere-oracle": suite_sphere_oracle,
    }


def run_suite(name: str, seed: int = 1234) -> dict:
    """Run a named suite (or 'all') and return a JSON-serializable report.

    The report is deterministic for a fixed seed except for the runtime
    fields.
    """
    funcs = suite_functions()
    if name != "all" and name not in funcs:
        raise KeyError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    selected = list(funcs) if name == "all" else [name]
    t0 = time.perf_counter()
    sub = []
    for sname in selected:
        t1 = time.perf_counter()
        checks = funcs[sname](seed)
        sub.append({"suite": sname, "checks": [c.as_dict() for c in checks],
                    "passed": all(c.passed for c in checks),
                    "runtime_sec": round(time.perf_counter() - t1, 3)})
    return {"suite": name, "seed": seed, "suites": sub, "passed": all(s["passed"] for s in sub),
            "runtime_sec": round(time.perf_counter() - t0, 3)}
