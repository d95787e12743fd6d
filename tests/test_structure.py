import dataclasses

import numpy as np
import pytest

from conftest import patch_chart, sample_flat, sample_sphere, tiny_validity_geometry
from magtube import oracles as orc
from magtube.flow import ComplexTime, FlowError, flow_many, run
from magtube.geometry import CONTOUR_NODES, CONTOUR_RADIUS, twisted_symplectic_matrix
from magtube import structure, suites
from magtube.kahler import phase_gradient_gen, potential_f_many
from magtube.intertwine import check_frame_intertwine, check_shifted_frame_intertwine
from magtube.structure import (
    assemble_J,
    frame_at,
    frames_at_many,
    integrability_residual_many,
    normalized_zero_section_frame_change,
    orthonormalize,
    positivity_matrix,
    subspace_distance,
    transversality_check,
)


# ---------------------------------------------------------------------------
# frame transport
# ---------------------------------------------------------------------------

def test_frame_at_time_zero_is_vertical(flat_geo):
    F, _ = frame_at(flat_geo, np.array([0.3, 0.1, 0.5, -0.2]), 0.0)
    vertical = np.vstack([np.zeros((2, 2)), np.eye(2)])
    assert subspace_distance(F, vertical) < 1e-12


def test_frame_matches_flat_closed_form(flat_geo, rng):
    Fo = orc.flat_frame_columns(1.0, 1.0, 1j)
    for row in sample_flat(rng, 5):
        F, inverse_residual = frame_at(flat_geo, row, 1j)
        assert subspace_distance(F, Fo) < 1e-9
        assert inverse_residual < 1e-8


def test_frame_on_zero_section_matches_block_exponential(sphere_geo):
    x0 = np.array([0.15, -0.1])
    for t in (1j, 0.3 + 0.8j):
        F, _ = frame_at(sphere_geo, np.r_[x0, 0, 0], t)
        ref = orc.zero_section_frame(sphere_geo.beta(x0), t, sphere_geo.inv_metric(x0))
        assert subspace_distance(F, ref) < 1e-9


def test_frames_at_many_agrees_with_single(flat_geo, sphere_geo, rng):
    Z = sample_flat(rng, 4)
    F, ok, reasons, inv = frames_at_many(flat_geo, Z, 1j)
    assert ok.all()
    F0, _ = frame_at(flat_geo, Z[0], 1j)
    assert subspace_distance(F[0], F0) < 1e-9
    # a single-point frame is the one-row batch, bit for bit
    row = np.array([[0.1, -0.05, 0.3, 0.2]])
    for t in (1j, 0.3 + 0.8j):
        F0, inverse_residual = frame_at(sphere_geo, row[0], t)
        F, ok, _, inv = frames_at_many(sphere_geo, row, t)
        assert ok[0] and np.array_equal(F0, F[0])
        assert inverse_residual == inv[0]
    with pytest.raises(FlowError) as err:
        frame_at(tiny_validity_geometry(), np.array([0.0, 0.0, 2.5, 0.0]), 1j)
    assert err.value.reason == "BLOWUP"


def test_failed_row_frame_is_nan():
    # the middle row blows up on the way back; it must not report the frame
    # of the point where the integrator stopped it
    geo = tiny_validity_geometry()
    Z = np.array([[0.1, 0.0, 0.2, 0.0], [0.0, 0.0, 2.5, 0.0], [0.0, 0.1, 0.0, -0.2]])
    F, ok, reasons, inv = frames_at_many(geo, Z, 1j)
    assert list(ok) == [True, False, True] and reasons[1] == "BLOWUP"
    assert np.isnan(F[1].real).all() and np.isnan(F[1].imag).all() and np.isnan(inv[1])
    assert np.isfinite(F[[0, 2]]).all() and np.isfinite(inv[[0, 2]]).all()


def test_frame_checks_and_J_take_a_failed_frame(sphere_geo):
    # the last row leaves the sphere's complex region before t = i: every
    # frame check gives it NaN with no raise and no warning, and gives the
    # ok rows, bit for bit, what they give alone
    Z = np.array([[0.1, -0.05, 0.3, 0.2], [0.0, 0.1, -0.2, 0.1], [0.7, 0.0, 0.0, 0.0]])
    F, ok, _, _ = frames_at_many(sphere_geo, Z, 1j)
    assert list(ok) == [True, True, False]
    X = run(structure._transport(sphere_geo, Z, 1j))[0]
    for fn, args in ((orthonormalize, (X,)), (transversality_check, (F,)),
                     (subspace_distance, (F, F[[1, 0, 2]]))):
        whole, alone = fn(*args), fn(*(a[:2] for a in args))
        assert np.isnan(whole[2]).all(), fn.__name__
        assert np.isrealobj(whole) or np.isnan(whole[2].imag).all(), fn.__name__
        assert whole[:2].tobytes() == alone.tobytes(), fn.__name__
    acs, alone = assemble_J(sphere_geo, Z[:, :2], F), assemble_J(sphere_geo, Z[:2, :2], F[:2])
    assert list(acs.ok) == [True, True, False] and acs.reasons[2].startswith("frame not")
    for name in ("J", "positivity_spectrum", "transversality", "imag_residual"):
        whole = getattr(acs, name)
        assert np.isnan(whole[2]).all() and whole[:2].tobytes() == getattr(alone, name).tobytes()
    for defects in (check_frame_intertwine(sphere_geo, Z, 1j),
                    check_shifted_frame_intertwine(sphere_geo, Z, 0.3 + 0.8j)):
        assert np.isnan(defects[2]) and (defects[:2] < 1e-6).all()


def test_real_time_frames_are_checked_against_the_chart_box(sphere_geo):
    # a real row on a real path may leave the complex validity region
    # (|x| < 0.6 on the unit sphere) while it stays in the chart box: the
    # frame is computed wherever the real flow is
    Z = np.array([[-0.5, 0.0, 0.8, 0.0], [-0.5, 0.0, 1.5, 0.0], [0.1, 0.0, 0.3, 0.2]])
    back = flow_many(sphere_geo, Z, -0.8)
    assert back.ok.all() and (np.abs(back.x[:2]) >= sphere_geo.complex_radius).any(axis=1).all()
    F, ok, reasons, inv = frames_at_many(sphere_geo, Z, 0.8)
    assert ok.all() and reasons == [None] * 3
    assert np.isfinite(F).all() and inv.max() < 1e-10


def test_tangent_free_paths_skip_second_derivatives(sphere_geo, rng):
    calls = {"inv_metric_deriv2": 0, "beta_deriv": 0}

    def counted(name):
        fn = getattr(sphere_geo, name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)
        return wrapper

    geo = dataclasses.replace(sphere_geo, **{name: counted(name) for name in calls})
    Z = sample_sphere(rng, 5)
    t = ComplexTime(0.3 + 0.8j)

    potential_f_many(geo, Z, t)
    assert calls == {"inv_metric_deriv2": 0, "beta_deriv": 0}

    # frames: the one backward flow carries the tangent map
    flow_many(geo, Z, -t)
    backward = dict(calls)
    assert backward["inv_metric_deriv2"] > 0 and backward["beta_deriv"] > 0
    calls.update(inv_metric_deriv2=0, beta_deriv=0)
    frames_at_many(geo, Z, t)
    assert calls == backward


def test_frames_at_many_makes_one_flow(sphere_geo, rng, monkeypatch):
    import magtube.structure as structure

    calls = []
    flow_many_gen = structure.flow_many_gen

    def counted(*args, **kwargs):
        calls.append(kwargs.get("tangent", True))
        return flow_many_gen(*args, **kwargs)

    monkeypatch.setattr(structure, "flow_many_gen", counted)
    F, ok, _, _ = frames_at_many(sphere_geo, sample_sphere(rng, 4), 0.3 + 0.8j)
    assert ok.all() and calls == [True]


def _round_trip_frames(geo, Z, t):
    """Vertical frame at w = Phi_{-t}(z) pushed forward by DPhi_t(w)."""
    back = flow_many(geo, Z, -t, tangent=False)
    fwd = flow_many(geo, np.concatenate([back.x, back.p], axis=1), t)
    assert back.ok.all() and fwd.ok.all()
    return orthonormalize(fwd.jac[:, :, geo.dim:])


def test_frames_match_round_trip(flat_geo, sphere_geo, rng):
    cases = [(flat_geo, sample_flat(rng, 6)), (sphere_geo, sample_sphere(rng, 6, pmax=1.0))]
    for geo, Z in cases:
        for t in (1j, 0.3 + 0.8j):
            F, ok, _, inv = frames_at_many(geo, Z, t)
            assert ok.all() and inv.max() < 1e-11
            for Fi, Ri in zip(F, _round_trip_frames(geo, Z, t)):
                assert subspace_distance(Fi, Ri) < 1e-12


def test_inverse_residual_sees_a_wrong_second_derivative(sphere_geo, rng):
    # the symplectic defect of the transport catches a 1e-4 error in d(beta)
    Z = sample_sphere(rng, 6, pmax=1.0)
    assert frames_at_many(sphere_geo, Z, 1j)[3].max() < 1e-8
    db = sphere_geo.beta_deriv
    bad = dataclasses.replace(sphere_geo, beta_deriv=lambda x: (1 + 1e-4) * db(x))
    assert frames_at_many(bad, Z, 1j)[3].max() > 1e-8


def test_conjugate_frame_spans_conjugate_time(flat_geo, sphere_geo):
    # F(conj t) = conj F(t) and J(conj t) = -J(t) bit for bit, on both charts
    z = np.array([0.1, -0.05, 0.3, 0.2])
    for geo in (flat_geo, sphere_geo):
        Fp, _ = frame_at(geo, z, 0.2 + 0.9j)
        Fm, _ = frame_at(geo, z, 0.2 - 0.9j)
        assert np.array_equal(Fm, Fp.conj())
        assert np.array_equal(assemble_J(geo, z[:2], Fm).J, -assemble_J(geo, z[:2], Fp).J)


# ---------------------------------------------------------------------------
# transversality
# ---------------------------------------------------------------------------

def test_transversality_zero_at_real_time(flat_geo):
    F, _ = frame_at(flat_geo, np.array([0.2, 0.1, 0.6, -0.3]), 0.5)
    assert transversality_check(F) < 1e-8


def test_transversality_positive_in_tube(sphere_geo, rng):
    for row in sample_sphere(rng, 5):
        F, _ = frame_at(sphere_geo, row, 1j)
        assert transversality_check(F) > 1e-3


def test_conjugate_pair_determinant(flat_geo_heavy):
    # raw transported columns: det[F, conj F] = -4 sinh^2(Btilde)/B^2
    Fraw = flow_many(flat_geo_heavy, np.zeros((1, 4)), 1j).jac[0][:, 2:]
    det = np.linalg.det(np.concatenate([Fraw, Fraw.conj()], axis=1))
    assert abs(det - (-4 * np.sinh(2.0) ** 2)) < 1e-8


# ---------------------------------------------------------------------------
# the almost complex structure
# ---------------------------------------------------------------------------

def test_assemble_J_properties(flat_geo, sphere_geo, rng):
    cases = [(flat_geo, sample_flat), (sphere_geo, sample_sphere)]
    for geo, sampler in cases:
        for row in sampler(rng, 3):
            x = row[:2]
            acs = assemble_J(geo, x, frame_at(geo, row, 1j)[0])
            assert np.abs(acs.J @ acs.J + np.eye(4)).max() < 1e-7
            assert acs.imag_residual < 1e-7
            om = twisted_symplectic_matrix(geo, x).real
            assert np.abs(acs.J.T @ om @ acs.J - om).max() < 1e-7
            assert acs.positivity_spectrum.min() > 0
            # compatibility metric omega(X, JX) is positive definite
            sym = om @ acs.J
            assert np.linalg.eigvalsh(0.5 * (sym + sym.T)).min() > 0


def test_assemble_J_rejects_degenerate_frame(flat_geo, sphere_geo, rng):
    z = np.array([0.2, 0.1, 0.6, -0.3])
    F, _ = frame_at(flat_geo, z, 0.5)  # real time
    acs = assemble_J(flat_geo, z[:2], F)
    assert not acs.ok and acs.reasons.shape == ()
    assert str(acs.reasons).startswith("frame not transversal to its conjugate (smin=")
    assert np.isnan(acs.J).all() and np.isnan(acs.positivity_spectrum).all()
    assert np.isnan(acs.imag_residual) and acs.transversality < 1e-6
    # one degenerate frame in a batch fails its row only; the other rows get
    # the bits of a batch without it
    for geo, Z in ((flat_geo, sample_flat(rng, 4)), (sphere_geo, sample_sphere(rng, 4))):
        good = frames_at_many(geo, Z, 0.3 + 0.8j)[0]
        bad = frames_at_many(geo, Z[1:2], 0.5)[0]
        both = assemble_J(geo, np.concatenate([Z[:2, :2], Z[1:, :2]]),
                          np.concatenate([good[:2], bad, good[2:]]))
        alone = assemble_J(geo, Z[:, :2], good)
        assert list(both.ok) == [True, True, False, True, True] and alone.ok.all()
        assert list(both.reasons[[0, 1, 3, 4]]) == [None] * 4 and both.reasons[2]
        for name in ("J", "positivity_spectrum", "transversality", "imag_residual"):
            assert np.array_equal(np.delete(getattr(both, name), 2, axis=0),
                                  getattr(alone, name))
        assert np.isnan(both.J[2]).all() and np.isnan(both.positivity_spectrum[2]).all()


def test_assemble_J_of_a_batch_is_assemble_J_of_each_point(flat_geo, sphere_geo, rng):
    for geo, Z in ((flat_geo, sample_flat(rng, 5)), (sphere_geo, sample_sphere(rng, 5))):
        F = frames_at_many(geo, Z, 0.3 + 0.8j)[0]
        batch = assemble_J(geo, Z[:, :2], F)
        assert batch.J.shape == (5, 4, 4) and batch.positivity_spectrum.shape == (5, 2)
        assert batch.transversality.shape == batch.imag_residual.shape == (5,)
        for i in range(5):
            one = assemble_J(geo, Z[i, :2], F[i])
            for name in ("J", "positivity_spectrum", "transversality", "imag_residual"):
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name))


def test_conjugate_time_gives_opposite_J(sphere_geo):
    z = np.array([0.1, -0.05, 0.3, 0.2])
    a, b = (assemble_J(sphere_geo, z[:2], frame_at(sphere_geo, z, t)[0])
            for t in (0.3 + 0.8j, 0.3 - 0.8j))
    assert np.abs(a.J + b.J).max() < 1e-8


def test_positivity_zero_section_free_case():
    # beta = 0, mass_freq = 0.5: the Hermitian form on the transported
    # vertical columns is 2 tau g = (2 tau / mass_freq) I
    from magtube.geometry import make_flat_magnetic

    geo = make_flat_magnetic(2, np.zeros((2, 2)), 0.5)
    tau = 0.8
    F = flow_many(geo, np.array([[0.1, 0.2, 0.0, 0.0]]), 1j * tau).jac[0][:, 2:]
    M = positivity_matrix(geo, np.array([0.1, 0.2]), F)
    assert np.abs(M - (2 * tau / 0.5) * np.eye(2)).max() < 1e-9


def test_positivity_zero_section_general_field(flat_geo_heavy, sphere_geo):
    # normalized coordinates: i F* Om F = 2 tau (e^{2 i tau beta}-1)/(2 i tau beta)
    for geo in (flat_geo_heavy, sphere_geo):
        x0 = np.array([0.12, -0.2]) * (1.0 if geo is flat_geo_heavy else 0.5)
        T, btil = normalized_zero_section_frame_change(geo, x0)
        L = T[:2, :2]
        for t in (1j, 0.3 + 0.8j):
            jac = flow_many(geo, np.concatenate([x0, [0.0, 0.0]])[None, :], t).jac[0]
            Fn = T @ jac[:, 2:] @ L.T
            om_t = np.block([[-btil, np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
            M = 1j * Fn.conj().T @ om_t @ Fn
            ref = orc.zero_section_positivity_matrix(btil, t)
            assert np.abs(M - ref).max() < 1e-8
            assert np.linalg.eigvalsh(0.5 * (M + M.conj().T)).min() > 0


def test_totally_real_zero_section(flat_geo, sphere_geo):
    # no (1,0) vector is tangent to the zero-section: the vertical block of
    # the frame is uniformly nonsingular, and J kicks horizontal vectors out
    for geo in (flat_geo, sphere_geo):
        x0 = np.array([0.1, -0.08])
        F, _ = frame_at(geo, np.r_[x0, 0, 0], 1j)
        assert np.linalg.svd(F[2:], compute_uv=False)[-1] > 1e-6
        acs = assemble_J(geo, x0, F)
        Eh = np.vstack([np.eye(2), np.zeros((2, 2))])
        assert np.linalg.svd(np.hstack([Eh, acs.J @ Eh]), compute_uv=False)[-1] > 1e-6


def test_gauge_invariance(sphere_geo, rng):
    z = np.array([0.1, -0.05, 0.3, 0.2])
    F, _ = frame_at(sphere_geo, z, 1j)
    acs = assemble_J(sphere_geo, z[:2], F)
    for _ in range(5):
        G = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        acs2 = assemble_J(sphere_geo, z[:2], orthonormalize(F @ G))
        assert np.abs(acs2.J - acs.J).max() < 1e-9
        assert np.abs(acs2.positivity_spectrum - acs.positivity_spectrum).max() < 1e-9
        assert abs(acs2.transversality - acs.transversality) < 1e-9


# ---------------------------------------------------------------------------
# involutivity of the distribution
# ---------------------------------------------------------------------------

def test_integrability_flat(flat_geo):
    res = integrability_residual_many(flat_geo, np.array([[0.2, 0.1, 0.6, -0.3]]), 1j)[3]
    assert res[0] < 1e-6  # frames are constant in the chart for a constant field


def test_integrability_real_time(sphere_geo):
    # pushforward of the vertical distribution by a real diffeomorphism
    res = integrability_residual_many(sphere_geo, np.array([[0.1, -0.05, 0.25, 0.15]]), 0.4)[3]
    assert res[0] < 1e-6


def test_integrability_sphere_complex_time(sphere_geo):
    for t in (1j, 0.3 + 0.8j):
        res = integrability_residual_many(sphere_geo, np.array([[0.1, -0.05, 0.3, 0.2]]), t)[3]
        assert res[0] < 1e-4


def test_integrability_failure_is_per_row():
    # the second row's stencil leaves the tube; the others are still computed
    geo = tiny_validity_geometry()
    Z = np.array([[0.1, 0.0, 0.2, 0.0], [0.0, 0.0, 2.5, 0.0], [0.0, 0.1, 0.0, -0.2]])
    F, ok, reasons, res = integrability_residual_many(geo, Z, 1j)
    assert np.isnan(res[1])
    assert np.isfinite(res[[0, 2]]).all() and res[[0, 2]].max() < 1e-4
    # the centre row itself fails, and only that row
    assert list(ok) == [True, False, True] and reasons[1] == "BLOWUP"
    assert np.isnan(F[1]).all() and np.isfinite(F[[0, 2]]).all()


def test_integrability_per_row_times_match_one_time_calls(flat_geo, sphere_geo, rng):
    # each row's time rides to its contour rows: one per-row call over two
    # times gives each time's own call, frames and defects
    times = (1j, 0.3 + 0.8j)
    for geo, Z in ((flat_geo, sample_flat(rng, 6)), (sphere_geo, sample_sphere(rng, 6))):
        F, ok, reasons, res = integrability_residual_many(geo, Z, np.repeat(times, 3))
        assert ok.all() and reasons == [None] * 6
        for rows, t in zip((slice(0, 3), slice(3, 6)), times):
            Ft, okt, _, rest = integrability_residual_many(geo, Z[rows], t)
            assert okt.all()
            assert np.abs(F[rows] - Ft).max() < 1e-12 and np.abs(res[rows] - rest).max() < 1e-12


def test_integrability_centre_frames_are_the_frames(flat_geo, sphere_geo, rng):
    for geo, Z in ((flat_geo, sample_flat(rng, 3)), (sphere_geo, sample_sphere(rng, 3))):
        for t in (1j, 0.3 + 0.8j):
            F, ok, reasons, _ = integrability_residual_many(geo, Z, t)
            Fd, okd, reasons_d, _ = frames_at_many(geo, Z, t)
            assert ok.all() and okd.all() and reasons == reasons_d
            assert np.abs(F - Fd).max() < 1e-12


_RING = CONTOUR_RADIUS * np.exp(2j * np.pi * np.arange(CONTOUR_NODES) / CONTOUR_NODES)


def _directional_rings(Z, X):
    """The contour rows of each row z of Z along its own columns X_a, in
    (row, direction, node) order, built one row at a time with
    ``phase_gradient``'s arithmetic: z + RING_j * (X_a * (1 / |X_a|))."""
    rows = []
    for z, x in zip(Z, X):
        for v in x.T:
            unit = v * (1 / np.linalg.norm(v[None], axis=-1)[0])
            rows.extend(z + unit * node for node in _RING)
    return np.array(rows)


def _loop_bracket_defect(X, X_ring):
    """Per-row loop over column pairs: the reference for the batched bracket.
    X holds the raw transported columns at the m centre rows and X_ring
    those at their directional rings (``_directional_rings``).

    The node sum is ``phase_gradient``'s, a product with the weights: the
    defect is of the size of the derivative's rounding (the nodes' values,
    about 1/CONTOUR_RADIUS times the derivative, cancel), so a sum over the
    nodes in another order moves it by about 1e-14."""
    weights = 1 / (CONTOUR_NODES * _RING)
    X_ring = X_ring.reshape(len(X), X.shape[2], CONTOUR_NODES, *X.shape[1:])
    out = []
    for x, ring in zip(X, X_ring):
        size = np.linalg.norm(x, axis=0)
        # dX[a] = (X_a . grad) X, the contour derivative along X_a / |X_a|
        # scaled back by |X_a|
        dX = [(np.moveaxis(ring[a], 0, -1) @ weights) * size[a] for a in range(x.shape[1])]
        F = orthonormalize(x)
        proj_out = np.eye(x.shape[0]) - F @ F.conj().T
        worst = 0.0
        for a in range(x.shape[1]):
            for b in range(a + 1, x.shape[1]):
                bracket = dX[a][:, b] - dX[b][:, a]
                worst = max(worst, float(np.linalg.norm(proj_out @ bracket)) / (size[a] * size[b]))
        out.append(worst)
    return np.array(out)


def test_batched_bracket_matches_loop(sphere_geo, rng):
    Z = sample_sphere(rng, 4)
    for t in (1j, 0.3 + 0.8j):
        res = integrability_residual_many(sphere_geo, Z, t)[3]
        X, ok, _, _ = run(structure._transport(sphere_geo, Z, t))
        X_ring, ok_ring, _, _ = run(structure._transport(sphere_geo, _directional_rings(Z, X), t))
        assert ok.all() and ok_ring.all()
        ref = _loop_bracket_defect(X, X_ring)
        assert ref.max() > 1e-16 and np.abs(res - ref).max() < 1e-14


def test_phase_gradient_lays_out_centres_then_rings(rng):
    # integrability hands back its centre transport for the first m rows of
    # the ring batch, so it rests on this layout: one call, the m centre
    # rows first, then 4 k rows per row in (row, direction, node) order
    m, k, d = 3, 2, 5
    Z = rng.normal(size=(m, d))
    V = rng.normal(size=(m, k, d)) + 1j * rng.normal(size=(m, k, d))
    calls = []

    def record(rows):
        calls.append(rows.copy())
        return rows, True, None

    run(phase_gradient_gen(record, Z, V))
    assert len(calls) == 1
    rows = calls[0]
    assert rows.shape == (m + m * k * CONTOUR_NODES, d)
    assert np.array_equal(rows[:m], Z)
    unit = V / np.linalg.norm(V, axis=-1, keepdims=True)
    ring = Z[:, None, None, :] + _RING[:, None] * unit[:, :, None, :]
    assert np.abs(rows[m:] - ring.reshape(-1, d)).max() < 1e-15


def _closed_form_transport(second_column):
    """A stand-in for the transport: X_1 = e_1, X_2 = e_2 + second_column(z),
    a flow generator that asks for no flow."""
    def transport(geo, Z, t):
        yield from ()
        X = np.zeros((len(Z), 4, 2), dtype=complex)
        X[:, 0, 0] = 1.0
        X[:, 1, 1] = 1.0
        X[:, :, 1] += second_column(Z)
        return X, np.ones(len(Z), dtype=bool), [None] * len(Z), np.zeros(len(Z))
    return transport


def test_integrability_sees_a_non_involutive_distribution(flat_geo, rng, monkeypatch):
    Z = sample_flat(rng, 5)
    e = np.eye(4)
    # [X_1, X_2] = e_3, outside span{e_1, e_2 + z_0 e_3}: normalised
    # residual 1 / (1 + z_0^2)
    monkeypatch.setattr(structure, "_transport",
                        _closed_form_transport(lambda Z: Z[:, :1] * e[2]))
    res = integrability_residual_many(flat_geo, Z, 1j)[3]
    assert np.abs(res - 1 / (1 + Z[:, 0] ** 2)).max() < 1e-9
    # [X_1, X_2] = e_1 for X_2 = e_2 + z_0 e_1: involutive
    monkeypatch.setattr(structure, "_transport",
                        _closed_form_transport(lambda Z: Z[:, :1] * e[0]))
    assert integrability_residual_many(flat_geo, Z, 1j)[3].max() < 1e-12


@pytest.mark.parametrize("name", ["inv_metric_deriv2", "beta_deriv"])
def test_integrability_sees_a_wrong_second_derivative(name, monkeypatch):
    # the brackets see the sphere's tangent map: a 1 + 1e-6 scale of either
    # second-derivative evaluator fails the integrability_sphere check
    def check():
        return next(c for c in suites.suite_frames(1234)[0] if c.name == "integrability_sphere")

    assert check().passed

    def bad_sphere(geo):
        fn = getattr(geo, name)
        return dataclasses.replace(geo, **{name: lambda x: (1 + 1e-6) * fn(x)})

    patch_chart(monkeypatch, "sphere", bad_sphere)
    assert not check().passed


# ---------------------------------------------------------------------------
# linear-algebra helpers
# ---------------------------------------------------------------------------

def test_subspace_distance_extremes():
    a = np.vstack([np.eye(2), np.zeros((2, 2))]).astype(complex)
    b = np.vstack([np.zeros((2, 2)), np.eye(2)]).astype(complex)
    assert subspace_distance(a, a) < 1e-14
    assert subspace_distance(a, b) == pytest.approx(1.0)


def test_frame_checks_batch_over_rows(sphere_geo, rng):
    # one value per row, as the one-row calls give it; transversality bit
    # for bit, since the frame CSV's column is computed over the batch
    Z = sample_sphere(rng, 6)
    F = frames_at_many(sphere_geo, Z, 1j)[0]
    G = frames_at_many(sphere_geo, Z, 0.3 + 0.8j)[0]
    trans = transversality_check(F)
    dist = subspace_distance(F, G)
    M = positivity_matrix(sphere_geo, Z[:, :2], F)
    assert trans.shape == dist.shape == (6,) and M.shape == (6, 2, 2)
    assert dist.min() > 1e-3
    for i in range(6):
        assert trans[i] == transversality_check(F[i])
        assert abs(dist[i] - subspace_distance(F[i], G[i])) < 1e-14
        assert np.abs(M[i] - positivity_matrix(sphere_geo, Z[i, :2], F[i])).max() < 1e-14


def test_orthonormalize_phase_convention(rng):
    F = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
    Q = orthonormalize(F)
    assert np.abs(Q.conj().T @ Q - np.eye(2)).max() < 1e-12
    # canonical phase: idempotent, and invariant under positive rescalings
    assert np.abs(orthonormalize(Q) - Q).max() < 1e-12
    Q2 = orthonormalize(F @ np.diag([2.0, 0.3]))
    assert np.abs(Q - Q2).max() < 1e-12
    # complex rescalings only rotate column phases, never mix the span
    Q3 = orthonormalize(F @ np.diag([2.0 + 1.0j, -0.3j]))
    assert subspace_distance(Q3, Q) < 1e-12
    assert np.abs(np.abs(Q3) - np.abs(Q)).max() < 1e-12
