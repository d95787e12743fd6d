"""Mutation battery: each defect, applied in-process, must fail the named
verify checks (DeMillo, Lipton and Sayward, IEEE Computer 1978).

A defect is a small wrong change to one piece of the engine: a chart
evaluator, the field, the quadrature, the variational term, the integrator's
tableau, the time of the frame transport or the -beta chart.  A flow
reads the jet at every stage and passes its arrays to ``flow._rhs``, which
it records once per working set and replays (``flow._Replay``); a defect
that wraps ``flow._rhs`` or ``flow._field`` is recorded with them, so it
enters every stage of every flow.  On the composed jets of the evaluator
defects a working set calls ``flow._rhs`` at every stage after its
recording.  The battery
runs only the suites that hold the checks named for it; the kill matrix over
every check comes from running this file as a script:

    PYTHONPATH=src python tests/test_mutations.py [seed]

which prints, for each defect, the checks of ``run_suite("all", seed)`` that
fail under it, and the checks that no defect fails: each of those needs a
defect that it alone catches, or it carries no evidence.
"""

import dataclasses
import sys

import numpy as np
import pytest

from conftest import patch_chart
from magtube import flow, structure, suites
from magtube.geometry import ChartedGeometry

SEED = 1234
EPS = 1e-6


def _scaled(fn, factor=1 + EPS):
    return lambda x: factor * fn(x)


def _scale_evaluator(mp, name, charts):
    for chart in charts:
        patch_chart(mp, chart, lambda geo: dataclasses.replace(
            geo, **{name: _scaled(getattr(geo, name))}))


def potential(mp):
    """A x (1 + 1e-6) on both charts: dA = beta fails."""
    _scale_evaluator(mp, "potential", ("flat", "sphere"))


def sphere_d2g(mp):
    _scale_evaluator(mp, "inv_metric_deriv2", ("sphere",))


def sphere_dbeta(mp):
    _scale_evaluator(mp, "beta_deriv", ("sphere",))


def half_of_quadratic_term(mp):
    """The 1/2 of -(1/2) dg(p, p) in dp/ds times 1 + 1e-6 (a chart with dg)."""
    field = flow._field

    def defective(g, dg, b, p, out):
        T = field(g, dg, b, p, out)
        if T is not None:
            out[len(p):] -= 0.5 * EPS * flow._dot(p, T)
        return T

    mp.setattr(flow, "_field", defective)


def beta_term_sign(mp):
    """dp/ds with -beta g p in place of +beta g p."""
    field = flow._field

    def defective(g, dg, b, p, out):
        T = field(g, dg, b, p, out)
        out[len(p):] -= 2.0 * flow._contract_mid(b, out[:len(p)])
        return T

    mp.setattr(flow, "_field", defective)


def _after_rhs(mp, change):
    rhs = flow._rhs

    def defective(geo, Y, out, jet):
        rhs(geo, Y, out, jet)
        change(geo.dim, Y, out)
        return out

    mp.setattr(flow, "_rhs", defective)


def quadrature_row(mp):
    """dq/ds = A(dx/ds) times 1 + 1e-6."""
    def change(n, Y, out):
        out[2 * n] *= 1 + EPS

    _after_rhs(mp, change)


def p_free_force(mp):
    """dp/ds + 1e-6 in every component: a force that does not vanish on the
    zero section."""
    def change(n, Y, out):
        out[n:2 * n] += EPS

    _after_rhs(mp, change)


def variational_dJx(mp):
    """The tangent map's x block d(Jx) times 1 + 1e-6."""
    def change(n, Y, out):
        if len(Y) > 2 * n + 1:
            out[2 * n + 1:].reshape(2 * n, 2 * n, -1)[:n] *= 1 + EPS

    _after_rhs(mp, change)


def solution_weight(mp):
    """The DOP853 solution weight of the first stage + 1e-7: the weights sum
    to 1 + 1e-7, an inconsistent step."""
    lo, hi, w = flow._STEP_RUN
    w = w.copy()
    w[0, flow._SLOT[0] - lo] += 1e-7
    mp.setattr(flow, "_STEP_RUN", (lo, hi, w))


def transport_conj(mp):
    """The frame transport flows to -conj(t) in place of -t: the frames of
    conj t, the conjugate subspace.  ``structure._transport`` is the flow
    generator that ``frames_at_many`` and the suites' frame requests share."""
    transport = structure._transport
    mp.setattr(structure, "_transport", lambda geo, Z, t: transport(geo, Z, np.conj(t)))


def negation_keeps_beta(mp):
    """The -beta chart negates A only."""
    def with_negated_field(self):
        pot = self.potential
        return dataclasses.replace(self, potential=lambda x: -pot(x),
                                   name=self.name + "(-beta)")

    mp.setattr(ChartedGeometry, "with_negated_field", with_negated_field)


def negation_keeps_dbeta(mp):
    """The -beta chart negates beta and A but keeps +dbeta."""
    def with_negated_field(self):
        beta, pot = self.beta, self.potential
        return dataclasses.replace(self, beta=lambda x: -beta(x), potential=lambda x: -pot(x),
                                   name=self.name + "(-beta)")

    mp.setattr(ChartedGeometry, "with_negated_field", with_negated_field)


# defect -> {suite: the checks of that suite it must fail}
BATTERY = {
    potential: {"geometry": {"flat_validation", "sphere_validation"},
                "kahler": {"dbar_flat", "dbar_sphere"}},
    sphere_d2g: {"flow": {"tangent_map_contour"}, "frames": {"integrability_sphere"}},
    sphere_dbeta: {"flow": {"symplectomorphy", "tangent_map_contour"}},
    half_of_quadratic_term: {"flow": {"energy_conservation", "hamiltonian_field_inversion"}},
    beta_term_sign: {"flow": {"hamiltonian_field_inversion"},
                     "flat-oracle": {"flow_oracle_equivalence"}},
    quadrature_row: {"kahler": {"kde_flat", "kde_sphere", "dbar_flat", "dbar_sphere"}},
    solution_weight: {"flat-oracle": {"flow_oracle_equivalence"},
                      "sphere-oracle": {"engine_oracle_equivalence"}},
    variational_dJx: {"flow": {"tangent_map_contour"}},
    p_free_force: {"flow": {"zero_section_fixed", "energy_conservation"}},
    transport_conj: {"frames": {"positivity_min_eigenvalue", "metric_positivity"},
                     "kahler": {"kappa1_coefficient_is_half"}},
    negation_keeps_beta: {"intertwine": {
        "frame_intertwine_flat", "frame_intertwine_sphere",
        "frame_intertwine_shifted_flat", "frame_intertwine_shifted_sphere"}},
    negation_keeps_dbeta: {"intertwine": {
        "frame_intertwine_sphere", "frame_intertwine_shifted_sphere"}},
}


def _failing(report) -> set:
    return {c["name"] for s in report["suites"] for c in s["checks"] if not c["passed"]}


@pytest.mark.parametrize("defect", BATTERY, ids=lambda d: d.__name__)
def test_defect_fails_its_checks(defect, monkeypatch):
    defect(monkeypatch)
    for suite, names in BATTERY[defect].items():
        missed = names - _failing(suites.run_suite(suite, SEED))
        assert not missed, f"{suite}: {sorted(missed)} pass under {defect.__name__}"


def test_a_wrong_integrator_fails_kappa1_by_value(monkeypatch):
    # the kappa1 check reports the defect of the better tanh coefficient,
    # however large, instead of raising and losing the report
    solution_weight(monkeypatch)
    report = suites.run_suite("kahler", SEED)
    checks = {c["name"]: c for c in report["suites"][0]["checks"]}
    assert not checks["kappa1_adapted"]["passed"]
    assert checks["kappa1_adapted"]["value"] > checks["kappa1_adapted"]["tolerance"]


def kill_matrix(seed: int = SEED) -> dict:
    """{defect name: the checks of run_suite("all", seed) that fail under it}."""
    matrix = {}
    for defect in BATTERY:
        with pytest.MonkeyPatch.context() as mp:
            defect(mp)
            matrix[defect.__name__] = sorted(_failing(suites.run_suite("all", seed)))
    return matrix


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else SEED
    clean = _failing(suites.run_suite("all", seed))
    print(f"seed {seed}: {len(clean)} checks fail without a defect {sorted(clean)}")
    matrix = kill_matrix(seed)
    for name, failed in matrix.items():
        print(f"{name} ({len(failed)}): {', '.join(failed)}")
    checks = [c["name"] for s in suites.run_suite("all", seed)["suites"] for c in s["checks"]]
    unkilled = [c for c in checks if not any(c in failed for failed in matrix.values())]
    print(f"no defect fails ({len(unkilled)}): {', '.join(unkilled)}")
