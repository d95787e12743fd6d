"""Magnetic adapted complex structures on cotangent tubes.

Constructs the complex structure induced on a tube in a cotangent bundle by
analytically continuing the twisted (magnetic) Hamiltonian flow to imaginary
time, and verifies its defining identities numerically against closed-form
solutions on the constant-field plane and the invariant-field sphere.
"""

import importlib

from .geometry import (
    ChartedGeometry,
    GeometryError,
    energy,
    make_flat_magnetic,
    make_sphere_magnetic,
    twisted_symplectic_matrix,
    validate_geometry,
)
from .flow import (
    BatchFlowResult,
    ComplexTime,
    FlowError,
    field_components,
    flow_many,
)
from .structure import (
    ACSPointData,
    assemble_J,
    frame_at,
    frames_at_many,
    integrability_residual_many,
    subspace_distance,
    transversality_check,
)
from .kahler import (
    dbar_residual_many,
    holomorphic_extension,
    kappa1_flat,
    kappa2_flat,
    kde_residual_many,
    potential_f,
    potential_f_many,
    section_weight,
)
from .intertwine import (
    check_flow_reversal,
    check_frame_intertwine,
    check_shifted_frame_intertwine,
)

__version__ = "0.1.0"


# Only ``verify`` runs the closed-form oracles and the suites, so they load on
# first access instead of with the engine: importing them costs every other
# command about 18 ms of start-up (on a 2-core x86 machine, where importing
# ``magtube.cli`` takes about 90 ms).  A ``from . import oracles`` here would
# re-enter this hook without end.
def __getattr__(name):
    if name == "oracles":
        return importlib.import_module(".oracles", __name__)
    if name == "run_suite":
        return importlib.import_module(".suites", __name__).run_suite
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
