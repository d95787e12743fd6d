"""The suites' chart table and check registry: a new chart is one table
entry that every chart-generic check picks up, a defect in a table chart
reaches the checks that must see it, a NaN entry fails its check and a
failed flow or J fails its checks without stopping the report."""

import dataclasses

import numpy as np

from conftest import patch_chart
from magtube import flow, structure, suites
from magtube.geometry import make_flat_magnetic

# the suites whose aggregated checks (group_law, symplectomorphy, lagrangian
# frames, ...) integrate every table chart
FLOWING_SUITES = ("flow", "frames", "kahler", "intertwine")


def test_a_third_chart_is_one_table_entry(monkeypatch):
    # A 3-dim flat chart with a non-planar field, at the flat entry's boxes
    # and tolerances.  Not reached, because they are chart-specific: the
    # closed-form checks of the sphere (beta pullback, flux) and of the flat
    # chart, and the oracle suites.
    B = [[0.0, 1.0, -0.5], [-1.0, 0.0, 0.7], [0.5, -0.7, 0.0]]
    monkeypatch.setitem(suites._CHARTS, "flat3", suites._CHARTS["flat"]._replace(
        build=lambda: make_flat_magnetic(3, B, 1.0),
        point=np.array([[0.2, 0.1, -0.15, 0.6, -0.3, 0.25]])))

    widths, suite = {}, None
    integrate = flow._integrate_path

    def spy(geo, Z0, *args, **kwargs):
        widths.setdefault(suite, set()).add(np.shape(Z0)[-1])
        return integrate(geo, Z0, *args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_path", spy)
    ran, call = {}, suites._call

    def call_spy(block, case, label):
        ran.setdefault(label, set()).update(check.name for check in block.checks)
        return call(block, case, label)

    monkeypatch.setattr(suites, "_call", call_spy)
    funcs = suites.suite_functions()
    checks = {}
    for suite in ("geometry",) + FLOWING_SUITES:
        checks.update({c.name: c for c in funcs[suite](1234)})
    failed = [name for name, c in checks.items() if not c.passed]
    assert not failed
    for key in suites._CHARTS["flat"].tol:
        assert {f"{key}_flat3", f"flat3_{key}"} & set(checks), key
    for suite in FLOWING_SUITES:
        assert 6 in widths[suite], suite
    # the chart-generic checks without a {chart} name
    assert {"zero_section_jacobian", "zero_section_frame_span", "zero_section_positivity_form",
            "zero_section_fixed", "real_time_degeneracy", "tangent_map_contour",
            "totally_real_vertical_block"} <= ran["flat3"]


def test_a_nan_entry_fails_its_check(monkeypatch):
    # one NaN sphere row at t = i; a fold by Python's max drops a NaN that
    # comes after a number (the flat chart's, or the same chart's at the
    # second time) and would pass both checks
    def nan_sphere_row(fn, index):
        def wrapped(geo, Z, t, *args, **kwargs):
            out = fn(geo, Z, t, *args, **kwargs)
            target = t.target if isinstance(t, flow.ComplexTime) else t
            if geo.name.startswith("sphere") and target == 1j:
                part = out[index] if index is not None else out.jac
                if part is not None:
                    part[0] = np.nan
            return out
        return wrapped

    monkeypatch.setattr(suites, "integrability_residual_many",
                        nan_sphere_row(suites.integrability_residual_many, 3))
    frames = {c.name: c for c in suites.suite_frames(1234)}
    monkeypatch.setattr(suites, "flow_many", nan_sphere_row(suites.flow_many, None))
    flows = {c.name: c for c in suites.suite_flow(1234)}
    assert np.isnan(frames["integrability_sphere"].value)
    assert not frames["integrability_sphere"].passed and frames["integrability_flat"].passed
    assert np.isnan(flows["tangent_map_contour"].value)
    assert not flows["tangent_map_contour"].passed


def test_a_failed_flow_fails_its_checks_and_the_report_is_written(monkeypatch):
    # a complex region of radius 0.2 puts the sphere's sample rows outside
    # it: their flows fail BLOWUP, which fails those checks on that chart
    patch_chart(monkeypatch, "sphere", lambda geo: dataclasses.replace(geo, complex_radius=0.2))
    report = suites.run_suite("all", 1234)
    assert not report["passed"]
    checks = {c["name"]: c for s in report["suites"] for c in s["checks"]}
    for name in ("zero_section_jacobian", "zero_section_frame_span", "lagrangian_residual",
                 "transversality_margin", "positivity_min_eigenvalue"):
        assert not checks[name]["passed"], name
        assert "BLOWUP" in checks[name]["note"], name
    assert checks["kde_flat"]["passed"] and checks["integrability_flat"]["passed"]


def test_a_failed_kahler_frame_fails_kappa1_with_the_flow_reason(monkeypatch):
    # a complex region of radius 0.3 fails the flat chart's first kahler
    # frame: J is not assembled on it, and the kappa1 checks carry the
    # frame flow's reason; the report is still written
    patch_chart(monkeypatch, "flat", lambda geo: dataclasses.replace(geo, complex_radius=0.3))
    report = suites.run_suite("kahler", 1234)
    checks = {c["name"]: c for s in report["suites"] for c in s["checks"]}
    for name in ("kappa1_adapted", "kappa1_coefficient_is_half"):
        assert np.isnan(checks[name]["value"]) and checks[name]["note"] == "flat: BLOWUP", name
    assert np.isnan(checks["dbar_flat"]["value"]) and checks["dbar_sphere"]["passed"]


def test_a_wrong_potential_fails_dbar_not_kde(monkeypatch):
    # dbar f_{-i} = (theta^A)^{0,1} needs dA = beta; the kde identity holds
    # for any 1-form A, so a scaled A leaves it at roundoff
    def scaled_potential(geo):
        return dataclasses.replace(geo, potential=lambda u, _p=geo.potential: (1 + 1e-6) * _p(u))

    patch_chart(monkeypatch, "sphere", scaled_potential)
    kahler = {c.name: c for c in suites.suite_kahler(1234)}
    geometry = {c.name: c for c in suites.suite_geometry(1234)}
    assert not kahler["dbar_sphere"].passed
    assert not geometry["sphere_validation"].passed
    assert kahler["kde_sphere"].passed
    assert kahler["dbar_flat"].passed and kahler["kde_flat"].passed


def test_frames_without_a_complex_structure_fail_their_J_checks(monkeypatch):
    # with a threshold that no frame meets, assemble_J fails every point: the
    # checks that read J are NaN with the reason as their note, and the
    # report is still written
    monkeypatch.setattr(structure, "TRANSVERSALITY_THRESHOLD", 10.0)
    report = suites.run_suite("frames", 1234)
    assert not report["passed"]
    checks = {c["name"]: c for c in report["suites"][0]["checks"]}
    for name in ("conjugate_time_J", "metric_positivity", "frame_gauge_invariance",
                 "totally_real_horizontal"):
        assert np.isnan(checks[name]["value"]) and not checks[name]["passed"], name
        assert "frame not transversal to its conjugate" in checks[name]["note"], name
    assert checks["zero_section_positivity_form"]["passed"]
