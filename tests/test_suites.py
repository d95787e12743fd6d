"""The suites' chart table: a new chart is one table entry that every
chart-generic check picks up, and a defect in a table chart reaches the
checks that must see it."""

import dataclasses

import numpy as np

from conftest import patch_chart
from magtube import flow, suites
from magtube.geometry import make_flat_magnetic

# the suites whose aggregated checks (group_law, symplectomorphy, lagrangian
# frames, ...) integrate every table chart
FLOWING_SUITES = ("flow", "frames", "kahler", "intertwine")


def test_a_third_chart_is_one_table_entry(monkeypatch):
    # A 3-dim flat chart with a non-planar field, at the flat entry's boxes
    # and tolerances.  Not reached, because they are chart-specific: the
    # fixed 2-dim points of zero_section_fixed and real_time_degeneracy, the
    # zero-section checks' own chart lists, the sphere's fault injection, the
    # flat chart's closed forms and the oracle suites.
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
