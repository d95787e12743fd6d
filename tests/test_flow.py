import dataclasses
import gc
import itertools
import os
import subprocess
import sys
import weakref

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
    flow_many_gen,
    gather,
    run,
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


def _disk_times(rng, m):
    """m complex times in the upper half of the time disk, |t| in [0.2, 1.2]."""
    return rng.uniform(0.2, 1.2, m) * np.exp(1j * rng.uniform(0.05, np.pi - 0.05, m))


@pytest.mark.parametrize("tangent", [True, False])
def test_a_row_alone_equals_the_row_in_a_batch_of_1000(flat_geo, sphere_geo, rng, tangent):
    # each row takes its own steps by its own error norm, so the rest of
    # the batch does not move it.  Not bit for bit: two things couple a row
    # to its batch in the last bit.  np.matmul rounds a stage combination
    # differently by the row's column position in the batch, and
    # _error_norms' column sums run pairwise when one row moves alone and
    # in order otherwise.
    for geo, Z in ((flat_geo, sample_flat(rng, 1000)), (sphere_geo, sample_sphere(rng, 1000))):
        for t in (1j, _disk_times(rng, 1000)):
            res = flow_many(geo, Z, t, tangent=tangent)
            assert res.ok.all()
            hard, easy = int(np.argmax(res.row_steps)), int(np.argmin(res.row_steps))
            for i in (0, 1, 500, 999, hard, easy):
                one = flow_many(geo, Z[i : i + 1], t if np.ndim(t) == 0 else t[i],
                                tangent=tangent)
                assert one.row_steps[0] == one.steps == res.row_steps[i]
                for name in ("x", "p", "quad") + (("jac",) if tangent else ()):
                    assert np.abs(getattr(res, name)[i] - getattr(one, name)[0]).max() < 1e-13


def test_each_row_counts_its_own_steps(flat_geo, sphere_geo, rng):
    # targets 0.3, i and 1.2i in one batch: each row takes the steps it
    # takes alone, and the batch iterates as long as its slowest row
    t = np.array([0.3, 1j, 1.2j] * 3)
    for geo, Z in ((flat_geo, sample_flat(rng, 9)), (sphere_geo, sample_sphere(rng, 9))):
        for tangent in (True, False):
            res = flow_many(geo, Z, t, tangent=tangent)
            assert res.row_steps.shape == (9,) and res.row_steps.dtype.kind == "i"
            alone = [flow_many(geo, Z[i : i + 1], t[i], tangent=tangent).row_steps[0]
                     for i in range(9)]
            assert list(res.row_steps) == alone and res.steps == max(alone)
            assert (res.row_steps[0::3] < res.row_steps[2::3]).all()
    # a failed row counts the steps it attempted; a row at time 0 takes none
    Z = np.array([[0.0, 0.0, 0.5, 0.0], [0.0, 0.0, 80.0, 0.0], [0.1, 0.1, -0.4, 0.2]])
    res = flow_many(flat_geo, Z, np.array([1.0, 1.0, 0.0]))
    assert res.reasons[1] == "CHART_EXIT" and 0 < res.row_steps[1] < res.row_steps[0]
    assert res.row_steps[2] == 0 and np.array_equal(res.x[2], Z[2, :2])


def test_stopped_rows_leave_the_batch(flat_geo, sphere_geo, rng):
    # 150 rows to 0.2i, 10 to 0.7i and 40 to 1.2i: a row leaves the batch at
    # the iteration it arrives, however few arrive with it, so batch
    # iteration k forms its 12 stages for the rows that attempt more than k
    # steps, and every row is the row alone
    t = np.array([0.2j] * 150 + [0.7j] * 10 + [1.2j] * 40)
    for geo, Z in ((flat_geo, sample_flat(rng, 200)), (sphere_geo, sample_sphere(rng, 200))):
        widths = []

        def jet(x, order, work, _jet=geo.jet):
            widths.append(x.shape[1])
            return _jet(x, order, work)

        counted = dataclasses.replace(geo, fused_jet=FusedJet(jet, geo.evaluators))
        res = flow_many(counted, Z, t)
        assert res.ok.all() and len(widths) == 12 * res.steps
        assert widths[0] == 200 and 50 in widths
        moving = [int(np.count_nonzero(res.row_steps > k)) for k in range(res.steps)]
        assert widths == list(np.repeat(moving, 12))
        for i in (0, 149, 150, 199):
            one = flow_many(geo, Z[i : i + 1], t[i])
            assert one.row_steps[0] == res.row_steps[i]
            for name in ("x", "p", "quad", "jac"):
                assert np.abs(getattr(res, name)[i] - getattr(one, name)[0]).max() < 1e-13


def test_a_repeated_waypoint_changes_nothing(flat_geo, sphere_geo, rng):
    # a segment of length zero has no rows: the path through 0.5i twice is
    # the path through it once, bit for bit
    twice, once = ComplexTime(1j, (0.5j, 0.5j, 1j)), ComplexTime(1j, (0.5j, 1j))
    for geo, Z in ((flat_geo, sample_flat(rng, 3)), (sphere_geo, sample_sphere(rng, 3))):
        for tangent in (True, False):
            a = flow_many(geo, Z, twice, tangent=tangent)
            b = flow_many(geo, Z, once, tangent=tangent)
            assert a.ok.all() and a.steps == b.steps
            assert np.array_equal(a.row_steps, b.row_steps)
            for name in ("x", "p", "quad", "det") + (("jac",) if tangent else ()):
                assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True)


def test_a_spent_budget_fails_only_the_rows_still_moving(flat_geo, sphere_geo, rng, monkeypatch):
    # with a budget of 2 batch iterations the row to 0.05i arrives in one
    # step and keeps its value; the row to i fails TOL with no value
    t = np.array([0.05j, 1j])
    cases = [(geo, Z, flow_many(geo, Z[:1], t[0]))
             for geo, Z in ((flat_geo, sample_flat(rng, 2)), (sphere_geo, sample_sphere(rng, 2)))]
    monkeypatch.setattr(flow, "MAX_STEPS", 2)
    for geo, Z, alone in cases:
        res = flow_many(geo, Z, t)
        assert list(res.ok) == [True, False] and res.reasons == [None, "TOL"]
        assert res.steps == 2 and list(res.row_steps) == [1, 2]
        for name in ("x", "p", "quad", "jac"):
            assert np.abs(getattr(res, name)[0] - getattr(alone, name)[0]).max() < 1e-14
            assert np.isnan(getattr(res, name)[1]).all()
        assert np.isnan(res.det[1])


def test_rhs_gets_c_contiguous_arrays(flat_geo, sphere_geo, rng, monkeypatch):
    # the rows still moving are gathered into the first entries of the work
    # arrays, so every stage input and slot is C-contiguous, at every width
    # of the batch.  A working set records _rhs at the first iteration in
    # which no row's step reaches the end of its segment and replays it
    # after; before that its stages call _rhs.  Every stage, whichever way it
    # is evaluated, writes into its slot exactly _rhs of its input
    stages = []
    call, rhs = flow._Replay.__call__, flow._rhs

    def replayed(self, Y, out):
        before = self._replayable
        call(self, Y, out)
        if before is None or self._replayable:  # a stage that calls _rhs counts there
            jet = self._geo.jet(Y[: self._geo.dim], self._order)
            exact = np.array_equal(out, rhs(self._geo, Y, np.empty_like(out), jet))
            stages.append(("record" if before is None else "replay", Y.shape[1],
                           Y.flags.c_contiguous and out.flags.c_contiguous, exact))
        return out

    def called(geo, Y, out, jet):
        rhs(geo, Y, out, jet)
        if isinstance(Y, np.ndarray):  # a stage, not a recording
            stages.append(("rhs", Y.shape[1], Y.flags.c_contiguous and out.flags.c_contiguous,
                           True))
        return out

    monkeypatch.setattr(flow._Replay, "__call__", replayed)
    monkeypatch.setattr(flow, "_rhs", called)
    kinds = set()
    for t in (np.array([0.2j] * 26 + [1.2j] * 4), 1j * np.linspace(0.2, 1.2, 30)):
        for geo, Z in ((flat_geo, sample_flat(rng, 30)), (sphere_geo, sample_sphere(rng, 30))):
            for tangent in (True, False):
                stages.clear()
                res = flow_many(geo, Z, t, tangent=tangent)
                assert res.ok.all() and len(stages) == 12 * res.steps
                assert len({width for _, width, _, _ in stages}) > 1  # the batch was gathered
                assert all(contiguous and exact for _, _, contiguous, exact in stages)
                kinds |= {kind for kind, _, _, _ in stages}
    assert kinds == {"record", "replay", "rhs"}


@pytest.mark.parametrize("tangent", [False, True])
def test_a_wrapped_rhs_or_field_enters_every_stage(flat_geo_free, rng, monkeypatch, tangent):
    # what a wrapper of _rhs or _field does is recorded with it, so it enters
    # every replayed stage too: on the plane without a field (g = 1, A = 0)
    # a constant c added to dq/ds gives quad = c t, and one added to dp/ds
    # gives p = p0 + c t and x = x0 + p0 t + c t^2 / 2, which DOP853
    # integrates exactly whatever its steps
    c = 1e-3
    Z = sample_flat(rng, 6)
    t = 1j * np.linspace(0.2, 1.2, len(Z))
    rhs, field = flow._rhs, flow._field

    def rhs_plus_c(geo, Y, out, jet):
        rhs(geo, Y, out, jet)
        out[2 * geo.dim] += c
        return out

    def field_plus_c(g, dg, b, p, out):
        T = field(g, dg, b, p, out)
        out[len(p):] += c
        return T

    with monkeypatch.context() as mp:
        mp.setattr(flow, "_rhs", rhs_plus_c)
        res = flow_many(flat_geo_free, Z, t, tangent=tangent)
    assert res.ok.all() and len(set(res.row_steps)) > 1
    assert np.abs(res.quad - c * t).max() < 1e-14
    with monkeypatch.context() as mp:
        mp.setattr(flow, "_field", field_plus_c)
        res = flow_many(flat_geo_free, Z, t, tangent=tangent)
    T = t[:, None]
    assert np.abs(res.p - (Z[:, 2:] + c * T)).max() < 1e-14
    assert np.abs(res.x - (Z[:, :2] + Z[:, 2:] * T + 0.5 * c * T ** 2)).max() < 1e-14


def test_a_recording_that_reads_a_value_is_not_replayed(flat_geo, sphere_geo, rng,
                                                      monkeypatch):
    # a wrapper of _rhs that branches on a value cannot be replayed: its
    # working set calls _rhs at every later stage, with the same bits
    rhs, calls = flow._rhs, []

    def branching(geo, Y, out, jet):
        rhs(geo, Y, out, jet)
        calls.append(isinstance(Y, np.ndarray))  # False at a recording
        if not np.isfinite(out[0]).all():
            raise FloatingPointError
        return out

    t = 1j * np.linspace(0.2, 1.2, 8)
    for geo, Z in ((flat_geo, sample_flat(rng, 8)), (sphere_geo, sample_sphere(rng, 8))):
        ref = flow_many(geo, Z, t)
        with monkeypatch.context() as mp:
            mp.setattr(flow, "_rhs", branching)
            calls.clear()
            res = flow_many(geo, Z, t)
        assert len(calls) == 12 * res.steps and 0 < calls.count(False) < len(calls)
        for name in ("x", "p", "quad", "jac", "det"):
            assert np.array_equal(getattr(res, name), getattr(ref, name))


def test_a_recording_is_freed_when_its_flow_ends(flat_geo, sphere_geo, rng, monkeypatch):
    # reference counting frees every recording: none waits for the cyclic
    # collector with the jet's arrays of its working set
    alive = []

    class Tracked(flow._Recording):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(flow, "_Recording", Tracked)
    gc.disable()
    try:
        for geo, Z in ((flat_geo, sample_flat(rng, 8)), (sphere_geo, sample_sphere(rng, 8))):
            flow_many(geo, Z, 1j * np.linspace(0.2, 1.2, 8))
        assert alive and not [ref for ref in alive if ref() is not None]
    finally:
        gc.enable()


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
    # field at its start, formed at every iteration, also after one that
    # rejected every row (the sphere row to t = 1 does so at one of its 11),
    # and the field at the end of the path is never formed; every call of a
    # flow gets the flow's one work dict
    times = (ComplexTime(1j), ComplexTime(0.3 + 0.8j, (0.3, 0.3 + 0.8j)), 0.7)
    for geo, Z, times in ((flat_geo, sample_flat(rng, 5), times),
                          (sphere_geo, sample_sphere(rng, 5), times),
                          (sphere_geo, np.array([[0.05, 0.0, 2.0, 0.0]]), (1.0,))):
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
                if t == 1.0 and tangent:
                    assert res.steps == 11 and len(calls) == 132
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


def _merged_cases(flat_geo, sphere_geo, rng):
    """(geo, Z, t, tangent) of requests on both charts: a straight and a
    bent polyline, per-row times, with and without the tangent map."""
    cases = []
    for geo, Z in ((flat_geo, sample_flat(rng, 5)), (sphere_geo, sample_sphere(rng, 5))):
        for tangent in (True, False):
            cases += [(geo, Z[:2], 1j, tangent),
                      (geo, Z[2:4], ComplexTime(1j, (0.6 + 0.2j, 0.4 + 0.7j, 1j)), tangent),
                      (geo, Z, np.array([0.4, -0.5j, 0.3 + 0.8j, 1j, 0.0]), tangent)]
    return cases


def test_merged_requests_get_their_own_flows(flat_geo, sphere_geo, rng, monkeypatch):
    # twelve requests in one round: one integration per chart and tangent
    # flag, the polylines padded to one length; each request gets the values,
    # row_steps and time of its own flow_many call
    cases = _merged_cases(flat_geo, sphere_geo, rng)
    alone = [flow_many(geo, Z, t, tangent=tangent) for geo, Z, t, tangent in cases]
    calls, integrate = [], flow._integrate_path

    def counting(*args, **kwargs):
        calls.append(np.shape(args[2]))
        return integrate(*args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_path", counting)
    merged = run(gather(flow_many_gen(geo, Z, t, tangent=tangent)
                        for geo, Z, t, tangent in cases))
    assert calls == [(9, 4)] * 4 and all(res.seconds >= 0.0 for res in merged)
    for res, ref in zip(merged, alone):
        assert res.ok.all() and np.array_equal(res.row_steps, ref.row_steps)
        assert np.array_equal(res.time, ref.time) and (res.jac is None) == (ref.jac is None)
        for name in ("x", "p", "quad") + (("jac", "det") if ref.jac is not None else ()):
            a, b = getattr(res, name), getattr(ref, name)
            assert np.abs(a - b).max() <= 3e-15 * max(1.0, np.abs(b).max()), name


def test_a_gathered_request_is_one_round(flat_geo, rng):
    # gather asks for the flows of its generators in one request, and a
    # generator may go on to a second round
    Z = sample_flat(rng, 3)

    def two_rounds():
        out = yield from flow_many_gen(flat_geo, Z, 0.5j)
        return (yield from flow_many_gen(flat_geo, np.concatenate([out.x, out.p], axis=1), 0.5j))

    gen = gather([two_rounds(), flow_many_gen(flat_geo, Z, 1j)])
    first = next(gen)
    assert [len(req.Z0) for req in first] == [3, 3]
    ((twice, once),) = run(gather([gather([two_rounds(), flow_many_gen(flat_geo, Z, 1j)])]))
    assert np.abs(twice.x - once.x).max() < 1e-12 and np.abs(twice.p - once.p).max() < 1e-12


def test_a_failed_row_leaves_the_other_requests_ok(sphere_geo):
    # the row at |u| = 0.7 fails BLOWUP on its way to t = i, in the
    # integration it shares with the other requests' rows
    good = np.array([[0.1, -0.05, 0.3, 0.2], [0.0, 0.1, -0.2, 0.1]])
    bad = np.array([[0.7, 0.0, 0.0, 0.0]])
    a, b, c = run(gather([flow_many_gen(sphere_geo, good, 1j),
                          flow_many_gen(sphere_geo, bad, 1j),
                          flow_many_gen(sphere_geo, good[::-1], 0.3 + 0.8j)]))
    assert a.ok.all() and c.ok.all() and a.reasons == [None, None]
    assert not b.ok[0] and b.reasons == ["BLOWUP"] and np.isnan(b.x).all()


def test_requests_of_no_rows(flat_geo, sphere_geo, rng):
    # a request may hold no rows (a contour over rows that all failed): it
    # gets an empty result, alone or beside another request
    empty = np.zeros((0, 4))
    alone = flow_many(flat_geo, empty, 1j)
    none, some = run(gather([flow_many_gen(sphere_geo, empty, np.zeros(0)),
                             flow_many_gen(sphere_geo, sample_sphere(rng, 2), 1j)]))
    assert alone.x.shape == none.x.shape == (0, 2) and alone.steps == 0
    assert some.ok.all()


def test_an_exception_in_a_generator_propagates(flat_geo, rng):
    Z = sample_flat(rng, 2)

    def broken():
        yield from flow_many_gen(flat_geo, Z, 1j)
        raise ValueError("not a flow failure")

    with pytest.raises(ValueError, match="not a flow failure"):
        run(gather([flow_many_gen(flat_geo, Z, 1j), broken(), flow_many_gen(flat_geo, Z, 0.5)]))


def test_an_integration_shares_its_seconds_by_row_steps(flat_geo, sphere_geo, rng, monkeypatch):
    # a fake clock on which each integration takes 1.0 s: the requests it
    # answered get it in proportion to their rows' steps, a request of no
    # rows gets 0, and an integration that makes no step (every row fails
    # at its start) shares its second by rows
    monkeypatch.setattr(flow, "perf_counter", itertools.count(0.0).__next__)
    Z = sample_flat(rng, 5)
    merged = run(gather([flow_many_gen(flat_geo, Z[:2], 1j),
                         flow_many_gen(flat_geo, np.zeros((0, 4)), 1j),
                         flow_many_gen(flat_geo, Z[2:], np.array([0.4, 0.3 + 0.8j, 1.2j]))]))
    total = sum(res.row_steps.sum() for res in merged)
    assert [res.seconds for res in merged] == [res.row_steps.sum() / total for res in merged]
    assert merged[1].seconds == 0.0 and merged[0].seconds != merged[2].seconds
    assert sum(res.seconds for res in merged) == pytest.approx(1.0, rel=0, abs=1e-15)
    bad = np.array([[0.7, 0.0, 0.0, 0.0]] * 3)  # outside the sphere's complex region
    stuck = run(gather([flow_many_gen(sphere_geo, bad[:1], 1j),
                        flow_many_gen(sphere_geo, np.zeros((0, 4)), 1j),
                        flow_many_gen(sphere_geo, bad[1:], 1j)]))
    assert [res.row_steps.sum() for res in stuck] == [0, 0, 0]
    assert [res.seconds for res in stuck] == [1 / 3, 0.0, 2 / 3]
    assert run(flow_many_gen(sphere_geo, np.zeros((0, 4)), 1j)).seconds == 0.0
