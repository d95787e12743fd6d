"""Oracle gate: every CSV row of a grid command against closed forms.

Tolerances are those that ``magtube.suites`` uses for the same identity; the
check each one comes from is named beside it.  Each ``gate_*`` function
returns one reason string per row, empty when the row passes.
"""

from __future__ import annotations

import numpy as np

from magtube import oracles as orc
from magtube.geometry import make_flat_magnetic, make_sphere_magnetic, twisted_symplectic_matrix

TOL = {
    "flow_state": 1e-8,        # flat-oracle/flow_oracle_equivalence, sphere-oracle/engine_oracle_equivalence
    "flow_jacobian": 1e-8,     # flow/symplectomorphy (tangent map entries)
    "flow_quadrature": 1e-9,   # flat-oracle/f_sigma_closed_form
    "frame_span": 1e-9,        # flat-oracle/frame_closed_form
    "lagrangian": 1e-8,        # frames/lagrangian_residual
    "transversality": 1e-6,    # frames/transversality_margin (lower bound)
    "inverse_residual": 1e-8,  # flow/inverse_consistency
    "positivity": 0.0,         # frames/positivity_min_eigenvalue (lower bound)
    "f_minus_i": 1e-9,         # flat-oracle/f_minus_i_distinguished_point
    "kappa2": 1e-7,            # kahler/kappa2_closed_form
    "weight": 1e-10,           # kahler/weight_gaussian_density
    "kde": 1e-6,               # kahler/kde_flat, kahler/kde_sphere
    "dbar_flat": 1e-6,         # kahler/dbar_flat
    "dbar_sphere": 1e-5,       # kahler/dbar_sphere
    "integrability": 1e-4,     # frames/integrability_flat, integrability_sphere
    "J": 1e-8,                 # frames/conjugate_time_J
}


class Table:
    """Column access to CSV rows by header name."""

    def __init__(self, text: str):
        lines = text.strip("\n").split("\n")
        self.index = {name: i for i, name in enumerate(lines[0].split(","))}
        self.rows = [line.split(",") for line in lines[1:]]

    def __len__(self):
        return len(self.rows)

    def col(self, name):
        i = self.index[name]
        return np.array([float(r[i]) for r in self.rows])

    def ccol(self, name):
        return self.col(f"{name}_re") + 1j * self.col(f"{name}_im")

    def status(self):
        i = self.index["status"]
        return np.array([r[i] for r in self.rows])


def _geometry(chart, params):
    if chart == "flat":
        B = params["B"]
        return make_flat_magnetic(2, [[0.0, B], [-B, 0.0]], params["mass_freq"])
    return make_sphere_magnetic(params["radius"], params["field"])


class _Reasons:
    def __init__(self, m):
        self.out = [""] * m

    def flag(self, bad, why):
        for i in np.nonzero(bad)[0]:
            if not self.out[i]:
                self.out[i] = why

    def above(self, values, tol, why):
        self.flag(~(np.asarray(values) < tol), why)

    def below(self, values, tol, why):
        self.flag(~(np.asarray(values) > tol), why)


def _status(tab, reasons):
    reasons.flag(tab.status() != "ok", "status")


def _span_distance(A, B):
    """sin of the largest principal angle between column spans, batched."""
    def proj(F):
        Q, _ = np.linalg.qr(F)
        return Q @ Q.conj().swapaxes(-1, -2)
    return np.linalg.norm(proj(A) - proj(B), ord=2, axis=(-2, -1))


def gate_flow(text, Z, chart, params):
    tab = Table(text)
    r = _Reasons(len(tab))
    _status(tab, r)
    x = np.stack([tab.ccol("x1"), tab.ccol("x2")], axis=1)
    p = np.stack([tab.ccol("p1"), tab.ccol("p2")], axis=1)
    jac = np.stack([tab.ccol(f"jac{a}{b}") for a in range(4) for b in range(4)], axis=1)
    jac = jac.reshape(-1, 4, 4)
    if chart == "flat":
        B, mf = params["B"], params["mass_freq"]
        ref = orc.flat_flow_oracle(B, mf, Z, 1j)
        r.above(np.abs(np.concatenate([x, p], axis=1) - ref).max(axis=1),
                TOL["flow_state"], "flow_state")
        r.above(np.abs(jac - orc.flat_flow_jacobian(B, mf, 1j)).max(axis=(1, 2)),
                TOL["flow_jacobian"], "flow_jacobian")
        # q(i) = -i E - f_{-i}, from f_t = t E - q(-t)
        energy = 0.5 * (Z[:, 2] ** 2 + Z[:, 3] ** 2) / mf
        q_ref = -1j * energy - orc.flat_f_sigma(B, mf, Z, -1j)
        r.above(np.abs(tab.ccol("q") - q_ref), TOL["flow_quadrature"], "flow_quadrature")
    else:
        R, Bf = params["radius"], params["field"]
        xe, pe = orc.sphere_chart_to_embedding(Z[:, :2], Z[:, 2:], R)
        xo, po = orc.sphere_flow_oracle(xe, pe, R, Bf, 1j)
        u, pc = orc.sphere_embedding_to_chart(xo, po, R)
        ref = np.concatenate([u, pc], axis=1)
        r.above(np.abs(np.concatenate([x, p], axis=1) - ref).max(axis=1),
                TOL["flow_state"], "flow_state")
    return r.out


def _frame_columns(tab):
    cols = [tab.ccol(f"F{a}{b}") for a in range(4) for b in range(2)]
    # a failed row is NaN; zeros keep the linear algebra defined and still fail
    return np.nan_to_num(np.stack(cols, axis=1).reshape(-1, 4, 2))


def _positivity_min(geo, Z, F):
    om = twisted_symplectic_matrix(geo, Z[:, :2])
    M = 1j * F.conj().swapaxes(1, 2) @ om @ F
    return np.linalg.eigvalsh(0.5 * (M + M.conj().swapaxes(1, 2))).min(axis=1)


def gate_frame(text, Z, chart, params):
    tab = Table(text)
    r = _Reasons(len(tab))
    _status(tab, r)
    geo = _geometry(chart, params)
    F = _frame_columns(tab)
    S = np.concatenate([F, F.conj()], axis=2)
    r.below(np.linalg.svd(S, compute_uv=False)[:, -1], TOL["transversality"], "transversality")
    r.above(tab.col("inverse_residual"), TOL["inverse_residual"], "inverse_residual")
    om = twisted_symplectic_matrix(geo, Z[:, :2])
    lagr = np.einsum("mji,mjk,mkl->mil", F, om, F)
    r.above(np.abs(lagr).max(axis=(1, 2)), TOL["lagrangian"], "lagrangian")
    r.below(_positivity_min(geo, Z, F), TOL["positivity"], "positivity")
    if chart == "flat":
        Fo = orc.flat_frame_columns(params["B"], params["mass_freq"], 1j)
        r.above(_span_distance(F, np.broadcast_to(Fo, F.shape)), TOL["frame_span"], "frame_span")
    return r.out


def gate_potential(text, Z, chart, params):
    tab = Table(text)
    r = _Reasons(len(tab))
    _status(tab, r)
    f = tab.col("f_minus_i_re") + 1j * tab.col("f_minus_i_im")
    kappa2 = tab.col("kappa2")
    r.above(np.abs(tab.col("weight_modulus") ** 2 - np.exp(-kappa2)), TOL["weight"], "weight")
    r.above(np.abs(kappa2 - (2j * f).real), TOL["kappa2"], "kappa2")
    r.above(tab.col("kde_residual"), TOL["kde"], "kde")
    r.above(tab.col("dbar_residual"), TOL[f"dbar_{chart}"], "dbar")
    if chart == "flat":
        f_ref = orc.flat_f_sigma(params["B"], params["mass_freq"], Z, -1j)
        r.above(np.abs(f - f_ref), TOL["f_minus_i"], "f_minus_i")
    return r.out


def _J_from_frame(F):
    n = F.shape[-1]
    S = np.concatenate([F, F.conj()], axis=-1)
    D = np.diag(np.concatenate([np.full(n, 1j), np.full(n, -1j)]))
    return (S @ D @ np.linalg.inv(S)).real


def gate_acs(text, Z, chart, params):
    tab = Table(text)
    r = _Reasons(len(tab))
    _status(tab, r)
    geo = _geometry(chart, params)
    J = np.stack([tab.col(f"J{a}{b}") for a in range(4) for b in range(4)], axis=1)
    J = np.nan_to_num(J.reshape(-1, 4, 4))
    r.below(tab.col("transversality"), TOL["transversality"], "transversality")
    r.below(tab.col("min_positivity_eig"), TOL["positivity"], "positivity")
    r.above(tab.col("integrability_residual"), TOL["integrability"], "integrability")
    r.above(np.abs(J @ J + np.eye(4)).max(axis=(1, 2)), TOL["J"], "J_squared")
    om = twisted_symplectic_matrix(geo, Z[:, :2]).real
    sym = om @ J
    sym = 0.5 * (sym + sym.swapaxes(1, 2))
    r.below(np.linalg.eigvalsh(sym).min(axis=1), TOL["positivity"], "metric_positivity")
    if chart == "flat":
        Fo = orc.flat_frame_columns(params["B"], params["mass_freq"], 1j)
        r.above(np.abs(J - _J_from_frame(Fo)).max(axis=(1, 2)), TOL["J"], "J_closed_form")
    return r.out


GATES = {"flow": gate_flow, "frame": gate_frame, "potential": gate_potential, "acs": gate_acs}


def gate_verify(report: dict):
    """One reason per suite check: empty when the check passed."""
    return [("" if c["passed"] else f"{s['suite']}/{c['name']}")
            for s in report["suites"] for c in s["checks"]]
