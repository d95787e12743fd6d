import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import sample_flat, sample_sphere, tiny_validity_geometry
import magtube
from magtube import dop853, flow
from magtube import oracles as orc
from magtube.flow import (
    ComplexTime,
    field_components,
    flow_many,
)
from magtube.geometry import FusedJet, energy, twisted_symplectic_matrix
from magtube.kahler import phase_gradient, potential_f_many
from magtube.structure import frames_at_many, subspace_distance


# ---------------------------------------------------------------------------
# Hamiltonian vector field
# ---------------------------------------------------------------------------

def test_field_flat_unit(flat_geo):
    X = np.concatenate(field_components(flat_geo, np.array([0.0, 0.0]), np.array([1.0, 0.0])))
    assert np.allclose(X, [1.0, 0.0, 0.0, -1.0])


def test_field_vanishes_on_zero_section(flat_geo, sphere_geo):
    for geo in (flat_geo, sphere_geo):
        X = np.concatenate(field_components(geo, np.array([0.2, -0.1]), np.zeros(2)))
        assert np.abs(X).max() == 0.0


def test_field_matches_symplectic_inversion(sphere_geo, rng):
    # X solves omega(X, .) = dE with dE by the contour rule
    Z = sample_sphere(rng, 10)
    def E(rows):
        return energy(sphere_geo, rows[:, :2], rows[:, 2:]), True, None

    dE = phase_gradient(E, Z, np.eye(4))[3]
    om = twisted_symplectic_matrix(sphere_geo, Z[:, :2]).real
    X = np.concatenate(field_components(sphere_geo, Z[:, :2], Z[:, 2:]), axis=1)
    assert np.abs(np.linalg.solve(om.swapaxes(1, 2), dE.real[..., None])[..., 0] - X).max() < 1e-11


# ---------------------------------------------------------------------------
# real-time flow
# ---------------------------------------------------------------------------

def _end(res):
    """The phase rows [x, p] a flow ends at."""
    return np.concatenate([res.x, res.p], axis=1)


def test_flow_real_quarter_turn(flat_geo):
    res = flow_many(flat_geo, np.array([[0.0, 0.0, 1.0, 0.0]]), np.pi / 2)
    assert np.abs(_end(res)[0] - np.array([1.0, -1.0, 0.0, -1.0])).max() < 1e-10


def test_flow_zero_time_is_identity(flat_geo, sphere_geo):
    for geo in (flat_geo, sphere_geo):
        z0 = np.array([[0.1, -0.05, 0.3, 0.2]])
        res = flow_many(geo, z0, 0.0)
        assert res.ok[0] and np.abs(_end(res) - z0).max() == 0.0
        assert np.allclose(res.jac[0], np.eye(4))
        assert res.quad[0] == 0.0


def test_flow_preserves_energy(sphere_geo, rng):
    for row in sample_sphere(rng, 5):
        res = flow_many(sphere_geo, row[None, :], 0.7)
        e0 = energy(sphere_geo, row[:2], row[2:])
        e1 = energy(sphere_geo, res.x[0], res.p[0])
        assert res.ok[0] and abs(e1 - e0) < 1e-10


def test_flow_group_law(flat_geo, rng):
    for row in sample_flat(rng, 5):
        s1, s2 = rng.uniform(-0.8, 0.8, 2)
        a = flow_many(flat_geo, row[None, :], s1)
        b = flow_many(flat_geo, _end(a), s2)
        c = flow_many(flat_geo, row[None, :], s1 + s2)
        assert np.abs(_end(b) - _end(c)).max() < 1e-9


def test_flow_is_symplectic(flat_geo, sphere_geo, rng):
    for geo, sampler in ((flat_geo, sample_flat), (sphere_geo, sample_sphere)):
        for row in sampler(rng, 4):
            res = flow_many(geo, row[None, :], 0.45)
            jac = res.jac[0]
            om0 = twisted_symplectic_matrix(geo, row[:2])
            om1 = twisted_symplectic_matrix(geo, res.x[0])
            assert np.abs(jac.T @ om1 @ jac - om0).max() < 1e-8
            assert res.det[0] > 1e-6


def test_flow_real_stays_real(sphere_geo):
    res = flow_many(sphere_geo, np.array([[0.1, -0.05, 0.3, 0.2]]), 0.6)
    assert res.ok[0]
    assert max(np.abs(a.imag).max() for a in (res.x, res.p, res.jac)) < 1e-12


# ---------------------------------------------------------------------------
# complex-time flow
# ---------------------------------------------------------------------------

def test_flow_complex_reaches_complex_coordinates(flat_geo):
    res = flow_many(flat_geo, np.array([[0.0, 0.0, 1.0, 0.0]]), 1j)
    x, p = res.x[0], res.p[0]
    assert abs(x[0] - 1j * np.sinh(1.0)) < 1e-10
    assert abs(x[1] - (np.cosh(1.0) - 1.0)) < 1e-10
    assert abs(p[0] - np.cosh(1.0)) < 1e-10
    assert abs(p[1] + 1j * np.sinh(1.0)) < 1e-10


def test_flow_complex_zero_section(flat_geo_heavy, sphere_geo):
    # zero-section points are fixed; the tangent map is the block exponential
    for geo in (flat_geo_heavy, sphere_geo):
        x0 = np.array([0.2, -0.1])
        res = flow_many(geo, np.concatenate([x0, [0.0, 0.0]])[None, :], 0.3 + 0.8j)
        assert np.abs(res.x[0] - x0).max() < 1e-12
        assert np.abs(res.p[0]).max() < 1e-12
        ref = orc.zero_section_linearization(geo.beta(x0), 0.3 + 0.8j, geo.inv_metric(x0))
        assert np.abs(res.jac[0] - ref).max() < 1e-9


def test_flow_complex_path_independent(flat_geo, sphere_geo, rng):
    for geo, sampler in ((flat_geo, sample_flat), (sphere_geo, sample_sphere)):
        row = sampler(rng, 1)
        a = flow_many(geo, row, ComplexTime(1j))
        b = flow_many(geo, row, ComplexTime(1j, (0.8 + 0.1j, 1j)))
        assert np.abs(_end(a) - _end(b)).max() < 1e-9


def test_flow_complex_inverse_consistency(flat_geo):
    z0 = np.array([[0.3, -0.2, 0.8, 0.4]])
    t = ComplexTime(0.3 + 0.8j)
    out = flow_many(flat_geo, z0, t)
    back = flow_many(flat_geo, _end(out), -t)
    assert out.ok[0] and back.ok[0]
    assert np.abs(_end(back) - z0).max() < 1e-8


def test_complex_time_validation():
    with pytest.raises(ValueError):
        ComplexTime(1.5j)  # outside the default disk of radius 1.25
    with pytest.raises(ValueError):
        ComplexTime(1j, (1.3 + 0.3j, 1j))  # waypoint outside the disk
    with pytest.raises(ValueError):
        ComplexTime(1j, (0.5, 0.9j))  # path must end at the target


def test_real_times_carry_no_disk_constraint(flat_geo, rng):
    # one disk rule for the library: a path whose waypoints are all real is
    # not held to the disk, every waypoint of any other path is
    Z = sample_flat(rng, 6)
    res = flow_many(flat_geo, Z, 2.0)
    want = orc.flat_flow_oracle(1.0, 1.0, Z, 2.0)
    assert res.ok.all() and np.abs(np.concatenate([res.x, res.p], axis=1) - want).max() < 1e-11
    for t in (2.0, np.full(len(Z), 2.0)):
        f, ok, _ = potential_f_many(flat_geo, Z, t)
        assert ok.all() and np.abs(f - orc.flat_f_sigma(1.0, 1.0, Z, 2.0)).max() < 1e-10
    F, ok, _, _ = frames_at_many(flat_geo, Z, 2.0)
    assert ok.all()
    assert subspace_distance(F, orc.flat_frame_columns(1.0, 1.0, 2.0)).max() < 1e-11
    assert ComplexTime(-3.0, (1.5, -3.0)).waypoints == (0.0, 1.5, -3.0)
    for bad in ((2j,), (1j, (2, 1j))):
        with pytest.raises(ValueError, match="outside the time disk"):
            ComplexTime(*bad)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

def test_chart_exit_detected(flat_geo_free):
    res = flow_many(flat_geo_free, np.array([[0.0, 0.0, 80.0, 0.0]]), 1.0)
    assert not res.ok[0] and res.reasons == ["CHART_EXIT"]


def test_blow_up_detected():
    geo = tiny_validity_geometry()
    res = flow_many(geo, np.array([[0.0, 0.0, 2.5, 0.0]]), 1j)
    assert not res.ok[0] and res.reasons == ["BLOWUP"]


def test_step_budget_exhaustion(flat_geo, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 3)
    res = flow_many(flat_geo, np.array([[0.0, 0.0, 1.0, 0.0]]), 1.0)
    assert not res.ok[0] and res.reasons == ["TOL"]


def test_flow_many_records_per_row_failures(flat_geo_free):
    Z = np.array(
        [[0.0, 0.0, 0.5, 0.0],
         [0.0, 0.0, 80.0, 0.0],   # exits the chart box
         [0.1, 0.1, -0.4, 0.2]]
    )
    res = flow_many(flat_geo_free, Z, 1.0)
    assert list(res.ok) == [True, False, True]
    assert res.reasons[1] == "CHART_EXIT"
    assert np.abs(res.x[0] - np.array([0.5, 0.0])).max() < 1e-12


def test_region_is_decided_per_row():
    # from the same start, a complex row on a real path must stay in the
    # complex validity region (|x| < 0.7) and a real row only in the chart
    # box (0.9), in one batch: the real row ends ok at |x1| = 0.88, the
    # complex row fails BLOWUP, and a faster real row fails CHART_EXIT
    geo = tiny_validity_geometry()
    Z = np.array([[0.6 + 0.05j, 0.0, 0.5, 0.0], [0.6, 0.0, 0.5, 0.0], [0.6, 0.0, 0.8, 0.0]])
    res = flow_many(geo, Z, 0.4)
    assert list(res.ok) == [False, True, False]
    assert res.reasons == ["BLOWUP", None, "CHART_EXIT"]
    assert geo.complex_radius < abs(res.x[1, 0]) < geo.chart_box
    for i in range(3):
        one = flow_many(geo, Z[i : i + 1], 0.4)
        assert one.reasons[0] == res.reasons[i]
        assert np.allclose(one.x[0], res.x[i], rtol=0, atol=1e-12, equal_nan=True)


def test_flow_many_matches_single(flat_geo, rng):
    Z = sample_flat(rng, 6)
    res = flow_many(flat_geo, Z, ComplexTime(1j))
    one = flow_many(flat_geo, Z[:1], 1j)
    assert np.abs(res.x[0] - one.x[0]).max() < 1e-10
    assert np.abs(res.jac[0] - one.jac[0]).max() < 1e-9


def test_flow_many_per_row_targets_match_one_row_flows(flat_geo, flat_geo_free, sphere_geo, rng):
    # each row reaches its own time along its own straight path, as it would
    # alone; the shared step only runs over the longest path
    t = np.array([1j, 0.3 + 0.8j, -0.5j, -0.2 - 1j, 0.0])
    for geo, Z in ((flat_geo, sample_flat(rng, 5)), (sphere_geo, sample_sphere(rng, 5))):
        res = flow_many(geo, Z, t)
        assert res.ok.all() and np.array_equal(res.time, t)
        for i, ti in enumerate(t):
            one = flow_many(geo, Z[i : i + 1], ComplexTime(ti))
            assert one.ok[0] and one.time == ti
            for name in ("x", "p", "quad", "jac"):
                assert np.abs(getattr(res, name)[i] - getattr(one, name)[0]).max() < 1e-12
    # real rows at real times are checked against the chart box; a failed row
    # keeps its reason and time
    Z = np.array([[0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 80.0, 0.0], [0.1, 0.1, -0.4, 0.2]])
    t = np.array([0.5, 1.0, -0.7])
    res = flow_many(flat_geo_free, Z, t)
    assert list(res.ok) == [True, False, True] and res.reasons[1] == "CHART_EXIT"
    assert res.time[1] == 1.0
    for i in (0, 2):
        one = flow_many(flat_geo_free, Z[i : i + 1], t[i])
        assert np.abs(res.x[i] - one.x[0]).max() < 1e-12
    with pytest.raises(ValueError, match="time disk"):
        flow_many(flat_geo, Z[:2], np.array([1j, 2j]))


def test_scalar_time_is_a_full_array_of_it(flat_geo, sphere_geo, rng):
    # a common time runs the per-row code with equal rows, bit for bit
    for geo, Z in ((flat_geo, sample_flat(rng, 4)), (sphere_geo, sample_sphere(rng, 4))):
        for t in (1j, -1j, 0.4, -0.3 - 0.8j):
            for tangent in (True, False):
                common = flow_many(geo, Z, t, tangent=tangent)
                rows = flow_many(geo, Z, np.full(len(Z), t), tangent=tangent)
                for name in ("x", "p", "quad", "ok", "det"):
                    assert np.array_equal(getattr(common, name), getattr(rows, name),
                                          equal_nan=True)
                assert common.steps == rows.steps
                assert (common.jac is None and rows.jac is None
                        or np.array_equal(common.jac, rows.jac))


def test_tangent_free_flow_matches_tangent_flow(flat_geo, sphere_geo, rng):
    for geo, Z in ((flat_geo, sample_flat(rng, 6)), (sphere_geo, sample_sphere(rng, 6))):
        for t in (ComplexTime(1j), ComplexTime(0.3 + 0.8j)):
            full = flow_many(geo, Z, t)
            bare = flow_many(geo, Z, t, tangent=False)
            assert full.ok.all() and bare.ok.all()
            for name in ("x", "p", "quad"):
                assert np.abs(getattr(full, name) - getattr(bare, name)).max() < 1e-12
            assert bare.jac is None and np.isnan(bare.det).all()
            assert np.abs(_end(bare)[0].imag).max() >= 1e-9  # a complex time leaves the reals
    # a real time keeps a tangent-free state real
    z = np.array([[0.1, -0.2, 0.4, 0.3]])
    res = flow_many(sphere_geo, z, 0.4, tangent=False)
    assert res.jac is None and not np.abs(_end(res).imag).any()
    assert flow_many(sphere_geo, z, 1j, tangent=False).jac is None


def test_default_flow_carries_the_tangent_map(flat_geo, sphere_geo, rng):
    # the default is the tangent flow, bit for bit
    for geo, row in ((flat_geo, sample_flat(rng, 1)), (sphere_geo, sample_sphere(rng, 1))):
        for t in (0.4, 0.3 + 0.8j, ComplexTime(1j)):
            default, explicit = flow_many(geo, row, t), flow_many(geo, row, t, tangent=True)
            assert default.jac.shape == (1, 4, 4) and np.isfinite(default.det).all()
            for name in ("x", "p", "jac", "quad", "det"):
                assert np.array_equal(getattr(default, name), getattr(explicit, name))
    with pytest.raises(TypeError):
        flow_many(flat_geo, sample_flat(rng, 1), 0.4, None, None, False)


# ---------------------------------------------------------------------------
# integrator core
# ---------------------------------------------------------------------------

def test_dop853_tables_match_reference():
    from scipy.integrate._ivp import dop853_coefficients as ref

    n = dop853.N_STAGES
    assert n == ref.N_STAGES == 12
    assert np.array_equal(dop853.A, ref.A[:n, :n])
    assert np.array_equal(dop853.B, ref.B)
    # the estimators' weight on the first-same-as-last stage is zero
    assert np.array_equal(dop853.E3, ref.E3[:n]) and ref.E3[n] == 0.0
    assert np.array_equal(dop853.E5, ref.E5[:n]) and ref.E5[n] == 0.0


def test_import_does_not_load_scipy_integrate():
    src = os.path.dirname(os.path.dirname(os.path.abspath(magtube.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, magtube; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_flow_evaluates_the_field_twelve_times_per_step(flat_geo, sphere_geo, rng):
    # one field evaluation per DOP853 stage; the first stage of a step is the
    # field at its start, and the field at the end of the path is never formed;
    # every call of a flow gets the flow's one work dict
    times = (ComplexTime(1j), ComplexTime(0.3 + 0.8j, (0.3, 0.3 + 0.8j)), 0.7)
    for geo, Z in ((flat_geo, sample_flat(rng, 5)), (sphere_geo, sample_sphere(rng, 5))):
        calls, works = [], []

        def jet(x, order, work, _jet=geo.jet):
            calls.append(order)
            works.append(work)
            return _jet(x, order, work)

        counted = dataclasses.replace(geo, fused_jet=FusedJet(jet, geo.evaluators))
        for t in times:
            for tangent in (True, False):
                calls.clear()
                works.clear()
                res = flow_many(counted, Z, t, tangent=tangent)
                assert res.ok.all() and len(calls) == 12 * res.steps
                assert isinstance(works[0], dict) and all(w is works[0] for w in works)
                ref = flow_many(geo, Z, t, tangent=tangent)
                for name in ("x", "p", "quad", "det") + (("jac",) if tangent else ()):
                    assert np.array_equal(getattr(res, name), getattr(ref, name),
                                          equal_nan=True)


def test_stage_slots_read_only_formed_stages_and_skip_only_zero_weights():
    # stage i lives in slot _SLOT[i]; a combination reads one run of slots,
    # every slot of which holds an earlier stage of the same step, with the
    # tableau's weights, and every weight it does not read is exactly zero
    n = dop853.N_STAGES
    slots = flow._SLOT
    assert sorted(slots) == list(range(n)) and all(slots[slots[i]] == i for i in range(n))
    assert [run[0] for run in flow._STAGE_RUNS] == [slots[i] for i in range(1, n)]
    combos = [(i, dop853.A[i][None], run[1:]) for i, run in enumerate(flow._STAGE_RUNS, start=1)]
    combos.append((n, np.stack([dop853.B, dop853.E5, dop853.E3]), flow._STEP_RUN))
    reads = 0
    for i, weights, (lo, hi, w) in combos:
        stages = [slots[j] for j in range(lo, hi)]
        assert all(k < i for k in stages)
        assert np.array_equal(np.reshape(w, (len(weights), -1)), weights[:, stages])
        assert not np.delete(weights, stages, axis=1).any()
        reads += hi - lo
    assert reads == 52 + 10


def _nan_filled(make):
    def filled(*args, **kwargs):
        out = make(*args, **kwargs)
        if out.dtype.kind in "fc":
            out.fill(np.nan)
        return out

    return filled


def test_flows_never_read_unset_work_arrays(flat_geo, sphere_geo, monkeypatch, rng):
    # the integrator's work arrays come from np.empty; a flow must not read
    # an entry before it writes it, not even with a zero weight: with every
    # new array filled with NaN the flows are bit for bit the same
    sphere_rows = np.concatenate([sample_sphere(rng, 4), [[0.05, 0.0, 3.0, 0.0]]])
    cases = []
    for geo, Z in ((flat_geo, sample_flat(rng, 5)), (sphere_geo, sphere_rows)):
        for t in (1j, 1j * rng.uniform(0.3, 1.0, len(Z))):
            cases += [(geo, Z, t, tangent) for tangent in (True, False)]
    refs = [flow_many(*case[:3], tangent=case[3]) for case in cases]
    monkeypatch.setattr(np, "empty", _nan_filled(np.empty))
    monkeypatch.setattr(np, "empty_like", _nan_filled(np.empty_like))
    assert np.isnan(np.empty(3)).all()
    for (geo, Z, t, tangent), ref in zip(cases, refs):
        res = flow_many(geo, Z, t, tangent=tangent)
        assert res.steps == ref.steps and res.reasons == ref.reasons
        for name in ("x", "p", "quad", "ok", "det") + (("jac",) if tangent else ()):
            assert np.array_equal(getattr(res, name), getattr(ref, name), equal_nan=True)
    assert [r.reasons[-1] for r in refs[4:]] == ["BLOWUP"] * 4
    assert all(r.ok[:4].all() for r in refs[4:]) and all(r.ok.all() for r in refs[:4])


def test_flow_to_i_step_count_and_accuracy(flat_geo, sphere_geo):
    # eighth-order steps: a handful per unit time at the default tolerances
    z = np.array([[0.3, -0.2, 0.9, 0.5]])
    res = flow_many(flat_geo, z, ComplexTime(1j))
    assert res.ok[0] and res.steps <= 12
    want = orc.flat_flow_oracle(1.0, 1.0, z[0], 1j)
    assert np.abs(np.concatenate([res.x[0], res.p[0]]) - want).max() < 1e-10
    assert np.abs(res.jac[0] - orc.flat_flow_jacobian(1.0, 1.0, 1j)).max() < 1e-10

    z = np.array([[0.05, -0.08, 0.3, 0.2]])
    res = flow_many(sphere_geo, z, ComplexTime(1j))
    assert res.ok[0] and res.steps <= 12
    x0, p0 = orc.sphere_chart_to_embedding(z[:, :2], z[:, 2:], 1.0)
    xo, po = orc.sphere_flow_oracle(x0, p0, 1.0, 1.0, 1j)
    xs, ps = orc.sphere_chart_to_embedding(res.x, res.p, 1.0)
    assert max(np.abs(xs - xo).max(), np.abs(ps - po).max()) < 1e-10
