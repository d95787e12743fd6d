"""The suites' chart table and check registry: a new chart is one table
entry that every chart-generic check picks up, a defect in a table chart
reaches the checks that must see it, a NaN entry fails its check, a
failed flow or J fails its checks without stopping the report, each suite
and the one plan over all suites keep their flow budgets, that plan gives
each suite's checks as the suite alone does, and each block reports its
runtime."""

import dataclasses
import re

import numpy as np
import pytest

from conftest import patch_chart
from magtube import flow, structure, suites
from magtube.geometry import make_flat_magnetic

# the suites whose aggregated checks (group_law, symplectomorphy, lagrangian
# frames, ...) integrate every table chart
FLOWING_SUITES = ("flow", "frames", "kahler", "intertwine")


def test_a_third_chart_is_one_table_entry(monkeypatch):
    # A 3-dim flat chart with a non-planar field, at the flat entry's boxes
    # and tolerances.  Not reached, because they are chart-specific: the
    # closed-form checks of the sphere (beta pullback) and of the flat chart,
    # and the oracle suites.
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
        checks.update({c.name: c for c in funcs[suite](1234)[0]})
    failed = [name for name, c in checks.items() if not c.passed]
    assert not failed
    for key in suites._CHARTS["flat"].tol:
        assert {f"{key}_flat3", f"flat3_{key}"} & set(checks), key
    for suite in FLOWING_SUITES:
        assert 6 in widths[suite], suite
    # the chart-generic checks without a {chart} name
    assert {"zero_section_jacobian", "zero_section_frame_span", "zero_section_positivity_form",
            "zero_section_fixed", "tangent_map_contour",
            "totally_real_vertical_block"} <= ran["flat3"]


def test_a_nan_entry_fails_its_check(monkeypatch):
    # one NaN sphere row at t = i, the first row whose own target is i (a
    # request may hold several times); a fold by Python's max drops a NaN
    # that comes after a number (the flat chart's, or the same chart's at
    # the second time) and would pass both checks
    def nan_sphere_row(gen, index):
        def wrapped(geo, Z, t, *args, **kwargs):
            out = yield from gen(geo, Z, t, *args, **kwargs)
            target = t.target if isinstance(t, flow.ComplexTime) else t
            rows = np.flatnonzero(np.broadcast_to(target, len(Z)) == 1j)
            if geo.name.startswith("sphere") and rows.size:
                part = out[index] if index is not None else out.jac
                if part is not None:
                    part[rows[0]] = np.nan
            return out
        return wrapped

    monkeypatch.setattr(suites, "integrability_residual_many_gen",
                        nan_sphere_row(suites.integrability_residual_many_gen, 3))
    frames = {c.name: c for c in suites.suite_frames(1234)[0]}
    monkeypatch.setattr(suites, "flow_many_gen", nan_sphere_row(suites.flow_many_gen, None))
    flows = {c.name: c for c in suites.suite_flow(1234)[0]}
    assert np.isnan(frames["integrability_sphere"].value)
    assert not frames["integrability_sphere"].passed and frames["integrability_flat"].passed
    assert np.isnan(flows["tangent_map_contour"].value)
    assert not flows["tangent_map_contour"].passed


def _block_at_a_time(gens):
    """A test-only stand-in for ``flow.gather`` in ``suites``.  The run's
    lockstep over its (block, chart) calls (``_call`` generators) runs each
    call to its end, its requests answered by ``flow.run``, before the next
    one starts, the order of the suites before the flow plan; a ``gather``
    inside a block still merges its flows."""
    gens = list(gens)
    if any(gen.gi_code is not suites._call.__code__ for gen in gens):
        return (yield from flow.gather(gens))
    return [flow.run(gen) for gen in gens]


# a number in a note, as the blocks format them (kappa1's candidate residuals)
_NOTE_NUMBER = re.compile(r"[-+]?\d+\.\d+e[-+]\d+")


def _close(value, want) -> bool:
    return value == pytest.approx(want, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("seed", [1234, 0])
def test_planned_suites_equal_block_at_a_time(seed, monkeypatch):
    # the plan starts the calls in this order and every block draws all its
    # samples before its first flow, so both see the same samples and give
    # the same pass flags and notes.  A merged flow gives a row its own
    # values but for the last-bit rounding of the stage combinations by
    # column position, and a one-row flow also sums its error norm in
    # another order (the stand-in unmerges only the run's lockstep; the
    # blocks' own gathers still merge their flows); so a value, and a
    # number in a note, is equal within 1e-12 relative, or, for a residual
    # at rounding level, within 1e-15 absolute (kappa1_adapted reads
    # 1.3690e-13 planned and 1.3656e-13 from the one-row frame flow that
    # kappa1 makes alone at seed 0)
    planned = suites.run_suite("all", seed)
    monkeypatch.setattr(suites, "gather", _block_at_a_time)
    alone = suites.run_suite("all", seed)
    for sub, ref in zip(planned["suites"], alone["suites"]):
        assert [c["name"] for c in sub["checks"]] == [c["name"] for c in ref["checks"]]
        for check, want in zip(sub["checks"], ref["checks"]):
            assert check["passed"] == want["passed"] and _close(check["value"], want["value"]), check
            note, want_note = check["note"], want["note"]
            assert _NOTE_NUMBER.split(note) == _NOTE_NUMBER.split(want_note), check
            assert all(_close(float(a), float(b)) for a, b in
                       zip(_NOTE_NUMBER.findall(note), _NOTE_NUMBER.findall(want_note))), check


def test_suite_flow_budget(monkeypatch):
    # flows per suite at seed 1234: each round of a suite's flow plan makes
    # one flow per geometry object and tangent flag (intertwine runs its
    # one-row flows on fresh -beta charts, one at a time)
    original = flow._integrate_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_path", counting)
    budget = {}
    for suite in suites.suite_functions():
        calls.clear()
        assert suites.run_suite(suite, 1234)["passed"], suite
        budget[suite] = len(calls)
    assert budget == {"geometry": 0, "flow": 9, "frames": 5, "kahler": 6, "intertwine": 10,
                      "flat-oracle": 7, "sphere-oracle": 1}


def test_one_plan_flow_budget(monkeypatch):
    # run_suite("all") answers every suite's calls in one plan, on one build
    # of each chart and plane: at seed 1234 it makes 24 flows in 197 batch
    # iterations, against 38 in 280 for the suites one after another, with
    # the same row-steps.  The sphere-oracle's 500-row tangent batch runs on
    # a sphere of its own, so it stays an integration of its own instead of
    # joining the 231 sphere rows of the other suites' first tangent flow
    original = flow._integrate_path
    flows = []

    def counting(geo, Z0, *args, **kwargs):
        out = original(geo, Z0, *args, **kwargs)
        flows.append((geo.name, out[0].shape, out[4]))
        return out

    monkeypatch.setattr(flow, "_integrate_path", counting)
    assert suites.run_suite("all", 1234)["passed"]
    assert len(flows) == 24
    assert sum(int(steps) for *_, steps in flows) == 197
    assert sum(int(steps.rows.sum()) for *_, steps in flows) == 41356
    sphere_tangent = [shape[0] for name, shape, _ in flows
                      if name.startswith("sphere") and shape[1] == 2 * 2 + 1 + 4 * 2 * 2]
    assert 500 in sphere_tangent and 231 in sphere_tangent


@pytest.mark.parametrize("seed", [1234, 0])
def test_one_plan_equals_the_suites_alone(seed):
    # every suite keeps its own generator and its calls start in registry
    # order, suite by suite, so the plan over all suites gives each check
    # the name, value, tolerance, pass flag and note of its suite run alone
    planned = suites.run_suite("all", seed)
    alone = [suites.run_suite(name, seed)["suites"][0] for name in suites.suite_functions()]
    assert [s["suite"] for s in planned["suites"]] == [s["suite"] for s in alone]
    assert [s["checks"] for s in planned["suites"]] == [s["checks"] for s in alone]


def test_sphere_engine_rows_take_their_own_steps(monkeypatch):
    # the sphere-oracle block flows 100 points at five times as one batch of
    # 500 rows with the tangent map; each row stops when it arrives, so the
    # batch makes far fewer row-steps than 500 per iteration (3140 against
    # 8000 at seed 1234)
    results, integrate = [], flow._integrate_path

    def recording(*args, **kwargs):
        results.append(integrate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(flow, "_integrate_path", recording)
    assert suites.run_suite("sphere-oracle", 1234)["passed"]
    ((Y, _, _, _, steps),) = results
    assert Y.shape == (500, 2 * 2 + 1 + 4 * 2 * 2)  # with the tangent map
    assert steps.rows.max() == steps and steps.rows.sum() < 0.5 * 500 * steps


def test_each_block_reports_its_runtime_outside_the_checks():
    # every block on every chart it runs on has a runtime, in run order, in
    # the suite's block_runtime_sec; the check dicts carry no time, so two
    # reports at one seed have equal checks
    first, again = (suites.run_suite("all", 1234) for _ in range(2))
    assert [s["checks"] for s in first["suites"]] == [s["checks"] for s in again["suites"]]
    for report in (first, again):
        for sub in report["suites"]:
            want = []
            for block in suites._REGISTRY[sub["suite"]]:
                charts = (list(suites._CHARTS if block.charts is None else block.charts)
                          + [build().name for build in block.extras])
                want += [(block.fn.__name__.lstrip("_"), chart) for chart in charts]
            times = sub["block_runtime_sec"]
            assert [(t["block"], t["chart"]) for t in times] == want
            assert all(t["runtime_sec"] >= 0.0 for t in times)
            assert not [key for check in sub["checks"] for key in check if "runtime" in key]


def test_block_runtimes_never_count_a_flow_twice():
    # a block's runtime is its own time plus the seconds of the flow results
    # it is sent, each counted once however many gathers they passed, so the
    # block runtimes of the whole plan sum to no more than the report's
    # runtime, and a suite's to no more than its runtime, their sum (up to
    # the rounding of the rounded fields: 4 decimals each, 3 for a suite and
    # the report)
    report = suites.run_suite("all", 1234)
    every = [t["runtime_sec"] for sub in report["suites"] for t in sub["block_runtime_sec"]]
    assert sum(every) <= report["runtime_sec"] + 5e-4 + 5e-5 * len(every)
    for sub in report["suites"]:
        times = [t["runtime_sec"] for t in sub["block_runtime_sec"]]
        assert sum(times) <= sub["runtime_sec"] + 5e-4 + 5e-5 * len(times), sub["suite"]


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
    kahler = {c.name: c for c in suites.suite_kahler(1234)[0]}
    geometry = {c.name: c for c in suites.suite_geometry(1234)[0]}
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
    for name in ("metric_positivity", "frame_gauge_invariance", "totally_real_horizontal"):
        assert np.isnan(checks[name]["value"]) and not checks[name]["passed"], name
        assert "frame not transversal to its conjugate" in checks[name]["note"], name
    assert checks["zero_section_positivity_form"]["passed"]
