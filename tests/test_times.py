"""One calling convention for times: every operation takes a number, a
ComplexTime or an (m,) array of per-row times, which only ``flow_many``
interprets, reverses a time as ``-t``, and holds every form to one disk
rule."""

import numpy as np
import pytest

from conftest import sample_flat, sample_sphere
from magtube.flow import ComplexTime, flow_many
from magtube.intertwine import check_frame_intertwine, check_shifted_frame_intertwine
from magtube.kahler import holomorphic_extension, potential_f_many
from magtube.structure import frame_at, frames_at_many


def _every_operation(geo, Z, t):
    """The arrays that the operations taking a time give at the rows Z."""
    res = flow_many(geo, Z, t)
    F, ok, _, inv = frames_at_many(geo, Z, t)
    f, f_ok, _ = potential_f_many(geo, Z, t)
    ext, ext_ok, _ = holomorphic_extension(geo, lambda x: x[:, 0] ** 2, Z, t)
    return [res.x, res.p, res.quad, res.jac, res.ok, F, ok, inv, f, f_ok, ext, ext_ok,
            check_frame_intertwine(geo, Z, t), check_shifted_frame_intertwine(geo, Z, t)]


@pytest.mark.parametrize("t", [1j, 0.3 + 0.8j])
def test_one_time_every_form(flat_geo, sphere_geo, rng, t):
    # a number, a ComplexTime and a full array of the number are one time,
    # bit for bit, in every operation that takes a time
    for geo, Z in ((flat_geo, sample_flat(rng, 3)), (sphere_geo, sample_sphere(rng, 3))):
        ref = _every_operation(geo, Z, t)
        assert ref[4].all()
        for form in (ComplexTime(t), np.full(len(Z), t)):
            for a, b in zip(ref, _every_operation(geo, Z, form)):
                assert np.array_equal(a, b)


def test_per_row_frames_match_one_row_frames(flat_geo, sphere_geo, rng):
    t = np.array([1j, 0.3 + 0.8j, -0.5 + 0.6j])
    for geo, Z in ((flat_geo, sample_flat(rng, 3)), (sphere_geo, sample_sphere(rng, 3))):
        F, ok, _, inv = frames_at_many(geo, Z, t)
        assert ok.all()
        for i in range(3):
            Fi, inv_i = frame_at(geo, Z[i], t[i])
            assert np.abs(F[i] - Fi).max() < 1e-12
            assert abs(inv[i] - inv_i) < 1e-12
        # the intertwiners take the same per-row times
        assert np.isfinite(check_frame_intertwine(geo, Z, t)).all()
        assert np.isfinite(check_shifted_frame_intertwine(geo, Z, t)).all()


def test_one_disk_rule(flat_geo, rng):
    # a path with a non-real waypoint is held to the disk, whatever form
    # the time takes; a real path is not
    Z = sample_flat(rng, 2)
    messages = set()
    for make in (lambda: ComplexTime(2j), lambda: ComplexTime(1j, (2, 1j)),
                 lambda: flow_many(flat_geo, Z, np.array([2j, 1j])),
                 lambda: frames_at_many(flat_geo, Z, np.array([2j, 1j]))):
        with pytest.raises(ValueError) as err:
            make()
        messages.add(str(err.value))
    assert len(messages) == 1
    res = flow_many(flat_geo, Z, np.array([2.0, -3.0]))
    assert res.ok.all() and np.array_equal(res.time, [2.0, -3.0])
    # reversal is negation: the mirror path from 0 to -target
    assert (-ComplexTime(1j, (0.5 + 0.2j, 1j))).waypoints == (0.0, -0.5 - 0.2j, -1j)
