"""Time-reversal intertwining between the +beta and -beta structures.

Fiber inversion nu(x, p) = (x, -p) conjugates the -beta flow into the
time-reversed +beta flow, and its pushforward maps the (1,0) distribution of
the +beta structure onto the (0,1) distribution of the -beta structure: an
antiholomorphic intertwiner.  For beta = 0 the two structures coincide and nu
is antiholomorphic for the single structure.

Each check takes real phase rows Z of shape (m, 2n) and returns one defect
per row; a row whose flow or frame transport failed gets a NaN defect.  The
frame checks take any time ``flow_many`` takes, per-row times included.  The
-beta chart is ``geo.with_negated_field()``: the -beta flow and frames do not
depend on the gauge of A, so no other -beta chart could give other values.
"""

from __future__ import annotations

import numpy as np

from .flow import _time_path, flow_many
from .geometry import ChartedGeometry
from .structure import frames_at_many, subspace_distance

__all__ = [
    "check_flow_reversal",
    "check_frame_intertwine",
    "check_shifted_frame_intertwine",
]


def _nu_pushforward(n: int) -> np.ndarray:
    D = np.eye(2 * n)
    D[n:, n:] *= -1.0
    return D


def check_flow_reversal(
    geo: ChartedGeometry,
    Z: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Max coordinate defect of nu o Phi^{-beta}_sigma o nu = Phi^{+beta}_{-sigma}
    at each row of Z."""
    nu = _nu_pushforward(geo.dim)
    minus = flow_many(geo.with_negated_field(), Z @ nu, sigma, tangent=False)
    plus = flow_many(geo, Z, -sigma, tangent=False)
    lhs = np.concatenate([minus.x, minus.p], axis=1) @ nu
    return np.abs(lhs - np.concatenate([plus.x, plus.p], axis=1)).max(axis=1)


def check_frame_intertwine(
    geo: ChartedGeometry,
    Z: np.ndarray,
    t=1j,
) -> np.ndarray:
    """Span distance between nu_*(+beta frame at z) and the conjugated -beta
    frame at nu(z) (sin of the largest principal angle), at each row z of Z."""
    nu = _nu_pushforward(geo.dim)
    F_plus = frames_at_many(geo, Z, t)[0]
    F_minus = frames_at_many(geo.with_negated_field(), Z @ nu, t)[0]
    return subspace_distance(nu @ F_plus, F_minus.conj())


def check_shifted_frame_intertwine(
    geo: ChartedGeometry,
    Z: np.ndarray,
    t,
) -> np.ndarray:
    """The general-time variant: Phi^{-beta}_{2 sigma} o nu antiholomorphically
    maps the +beta structure at sigma + i tau to the -beta one.

    Compares, at each row z of Z, the pushforward of the +beta frame under
    D(Phi^{-beta}_{2 sigma}) nu_* with the conjugate -beta frame at the
    mapped point.
    """
    nu = _nu_pushforward(geo.dim)
    minus = geo.with_negated_field()
    F_plus = frames_at_many(geo, Z, t)[0]
    shifted = flow_many(minus, Z @ nu, 2.0 * _time_path(t)[1].real)
    F_minus = frames_at_many(minus, np.concatenate([shifted.x, shifted.p], axis=1), t)[0]
    return subspace_distance(shifted.jac.real @ nu @ F_plus, F_minus.conj())
