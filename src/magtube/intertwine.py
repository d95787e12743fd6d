"""Time-reversal intertwining between the +beta and -beta structures.

Fiber inversion nu(x, p) = (x, -p) conjugates the -beta flow into the
time-reversed +beta flow, and its pushforward maps the (1,0) distribution of
the +beta structure onto the (0,1) distribution of the -beta structure: an
antiholomorphic intertwiner.  For beta = 0 the two structures coincide and nu
is antiholomorphic for the single structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import FlowOpts, as_complex_time, flow_real
from .geometry import ChartedGeometry, PhasePoint
from .structure import frame_at, subspace_distance

__all__ = [
    "IntertwineReport",
    "fiber_inversion",
    "intertwine_report",
    "check_flow_reversal",
    "check_frame_intertwine",
    "check_shifted_frame_intertwine",
]


@dataclass
class IntertwineReport:
    base: PhasePoint
    flow_residual: float
    subspace_distance: float

    def accepted(self, flow_tol: float = 1e-8, frame_tol: float = 1e-6) -> bool:
        return self.flow_residual < flow_tol and self.subspace_distance < frame_tol


def fiber_inversion(z: PhasePoint) -> PhasePoint:
    return PhasePoint(z.x, -z.p)


def _minus_geometry(geo_plus: ChartedGeometry, geo_minus) -> ChartedGeometry:
    # generated automatically from geo_plus unless supplied, preventing
    # sign-mismatch between beta and the potential
    return geo_plus.with_negated_field() if geo_minus is None else geo_minus


def check_flow_reversal(
    geo_plus: ChartedGeometry,
    geo_minus: Optional[ChartedGeometry],
    z: PhasePoint,
    sigma: float,
    opts: Optional[FlowOpts] = None,
) -> float:
    """Max coordinate defect of nu o Phi^{-beta}_sigma o nu = Phi^{+beta}_{-sigma}."""
    opts = opts or FlowOpts()
    geo_minus = _minus_geometry(geo_plus, geo_minus)
    lhs = fiber_inversion(
        flow_real(geo_minus, fiber_inversion(z), sigma, opts, tangent=False).phase_point
    )
    rhs = flow_real(geo_plus, z, -sigma, opts, tangent=False).phase_point
    return float(np.abs(lhs.as_vector() - rhs.as_vector()).max())


def _nu_pushforward(n: int) -> np.ndarray:
    D = np.eye(2 * n)
    D[n:, n:] *= -1.0
    return D


def check_frame_intertwine(
    geo_plus: ChartedGeometry,
    geo_minus: Optional[ChartedGeometry],
    z: PhasePoint,
    t=1j,
    opts: Optional[FlowOpts] = None,
) -> float:
    """Span distance between nu_*(+beta frame at z) and the conjugated -beta
    frame at nu(z); (sin of the largest principal angle)."""
    opts = opts or FlowOpts()
    geo_minus = _minus_geometry(geo_plus, geo_minus)
    t = as_complex_time(t)
    F_plus = frame_at(geo_plus, z, t, opts).F
    F_minus = frame_at(geo_minus, fiber_inversion(z), t, opts).F
    nu = _nu_pushforward(geo_plus.dim)
    return subspace_distance(nu @ F_plus, F_minus.conj())


def intertwine_report(
    geo_plus: ChartedGeometry,
    geo_minus: Optional[ChartedGeometry],
    z: PhasePoint,
    sigma: float = 0.5,
    t=1j,
    opts: Optional[FlowOpts] = None,
) -> IntertwineReport:
    """Both intertwining residuals at one point."""
    geo_minus = _minus_geometry(geo_plus, geo_minus)
    return IntertwineReport(
        base=z,
        flow_residual=check_flow_reversal(geo_plus, geo_minus, z, sigma, opts),
        subspace_distance=check_frame_intertwine(geo_plus, geo_minus, z, t, opts),
    )


def check_shifted_frame_intertwine(
    geo_plus: ChartedGeometry,
    geo_minus: Optional[ChartedGeometry],
    z: PhasePoint,
    t,
    opts: Optional[FlowOpts] = None,
) -> float:
    """The general-time variant: Phi^{-beta}_{2 sigma} o nu antiholomorphically
    maps the +beta structure at sigma + i tau to the -beta one.

    Compares the pushforward of the +beta frame under D(Phi^{-beta}_{2 sigma}) nu_*
    with the conjugate -beta frame at the mapped point.
    """
    opts = opts or FlowOpts()
    geo_minus = _minus_geometry(geo_plus, geo_minus)
    t = as_complex_time(t)
    sigma = t.target.real
    F_plus = frame_at(geo_plus, z, t, opts).F
    nu = _nu_pushforward(geo_plus.dim)
    shifted = flow_real(geo_minus, fiber_inversion(z), 2.0 * sigma, opts)
    F_minus = frame_at(geo_minus, shifted.phase_point, t, opts).F
    pushed = shifted.jac.real @ nu @ F_plus
    return subspace_distance(pushed, F_minus.conj())
