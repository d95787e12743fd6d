"""The geometry jet: fused closed forms against the composed evaluators, the
rule that replacing an evaluator drops a fused jet (the -beta chart keeps a
wrapped one), the rows-last layout of the jet and the right-hand side, and
the gates that see a wrong fused or variational second derivative."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import patch_chart, sample_flat, sample_sphere
from magtube import cli, flow, suites
from magtube.config import parse_config_text
from magtube.flow import ComplexTime, _pack, _rhs, field_components, flow_many, run
from magtube.geometry import (
    ChartedGeometry,
    FusedJet,
    _kernel_chart,
    _work_array,
    make_flat_magnetic,
    make_sphere_magnetic,
    validate_geometry,
)
from magtube.kahler import phase_gradient
from magtube.structure import integrability_residual_many

EVALUATORS = ("inv_metric", "inv_metric_deriv", "beta", "potential",
              "inv_metric_deriv2", "beta_deriv")


def _linear_metric_chart():
    """A chart declared by its kernels: g^{jk} = (1 + a.x) delta^{jk} and the
    constant field b, so dg = delta a is constant and d2g and dbeta vanish
    identically (``None``)."""
    a, b = (0.3, -0.2), 0.7

    def shared(x):
        return 1.0 + (a[0] * x[0] + a[1] * x[1])

    def g(x, s, work):
        out = _work_array(work, "g", (2, 2) + s.shape, s.dtype)
        out[0, 0] = out[1, 1] = s
        return out

    def dg(x, s, work):
        out = _work_array(work, "dg", (2, 2, 2) + s.shape, s.dtype)
        for j in range(2):
            out[j, j, 0], out[j, j, 1] = a
        return out

    def beta(x, s, work):
        out = _work_array(work, "beta", (2, 2) + s.shape, s.dtype)
        out[0, 1], out[1, 0] = b, -b
        return out

    def potential(x, s, work):
        out = _work_array(work, "A", (2,) + s.shape, s.dtype)
        np.multiply(-0.5 * b, x[1], out=out[0])
        np.multiply(0.5 * b, x[0], out=out[1])
        return out

    return _kernel_chart(2, shared, (g, dg, beta, potential, None, None), chart_box=1.0,
                         complex_radius=1.0, name="linear metric")


def _fused_geometries():
    return [
        make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 0.7),
        make_flat_magnetic(3, [[0.0, 1.0, -0.4], [-1.0, 0.0, 0.3], [0.4, -0.3, 0.0]], 1.3),
        make_sphere_magnetic(1.3, 0.8),
        _linear_metric_chart(),
    ]


def _composed(geo):
    return dataclasses.replace(geo, fused_jet=None)


def _rhs_at(geo, Y, work=None):
    """_rhs of the packed state Y with the jet that a flow's stage reads:
    of order 2 with the tangent map, 1 without."""
    order = 2 if len(Y) > 2 * geo.dim + 1 else 1
    return _rhs(geo, Y, np.empty_like(Y), geo.jet(Y[: geo.dim], order, work))


def _complex_points(rng, m, n, scale):
    return scale * (rng.uniform(-1, 1, (m, n)) + 0.5j * rng.uniform(-1, 1, (m, n)))


def _rows_last(a):
    """An evaluator's (m, ...) array in the jet's layout, (..., m)."""
    return np.moveaxis(a, 0, -1)


# The built-in jets share their formulas with the evaluators, so the fused
# and composed paths agree bit for bit: a run whose evaluators are wrapped
# (and so composes) reproduces an unwrapped run exactly.

def _negated_geometries():
    """The -beta charts of ``_fused_geometries``, whose fused jets are the
    +beta ones wrapped to negate beta, A and dbeta."""
    return [geo.with_negated_field() for geo in _fused_geometries()]


@pytest.mark.parametrize("geo", _fused_geometries() + _negated_geometries(),
                         ids=lambda g: g.name)
def test_fused_jet_matches_composed_jet(geo, rng):
    assert geo.fused_jet is not None
    for x in (_complex_points(rng, 7, geo.dim, 0.3).T, _complex_points(rng, 1, geo.dim, 0.3)[0]):
        for order, length in ((1, 4), (2, 6)):
            fused = geo.jet(x, order)
            composed = _composed(geo).jet(x, order)
            assert len(fused) == len(composed) == length
            for f, c in zip(fused, composed):
                if f is None:
                    assert np.abs(c).max() == 0.0
                else:
                    assert f.shape == c.shape and f.dtype == c.dtype
                    assert np.array_equal(f, c)


# A flow passes the jet one work dict: a fused jet writes into the arrays it
# keeps there, allocated zeroed on the first call.  Each call gives the bits
# of fresh arrays, and the entries a kernel never writes stay zero.

def _jet_layouts(rng, n):
    """Pairs of rows-last points of one layout each: 7 rows, 1 row, and an
    (n,) point without a batch axis."""
    def points(m):
        return _complex_points(rng, m, n, 0.3).T

    return [(points(7), points(7)), (points(1), points(1)), (points(1)[:, 0], points(1)[:, 0])]


@pytest.mark.parametrize("geo", _fused_geometries() + _negated_geometries(),
                         ids=lambda g: g.name)
def test_jet_work_arrays_give_the_bits_of_fresh_ones(geo, rng):
    for order in (1, 2):
        work = {}
        for pair in _jet_layouts(rng, geo.dim):
            kept = None
            for x in pair:
                got = geo.jet(x, order, work)
                fresh = geo.jet(x, order)
                assert len(got) == len(fresh) == 2 + 2 * order
                for a, b in zip(got, fresh):
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.shape == b.shape and a.dtype == b.dtype
                        assert np.array_equal(a, b) and not a[b == 0].any()
                if kept is not None:  # the second call writes into the first call's arrays
                    assert all(np.shares_memory(a, b) for a, b in zip(got, kept) if a is not None)
                kept = got


@pytest.mark.parametrize("geo", _fused_geometries() + [make_sphere_magnetic(1.0, 1.0)],
                         ids=lambda g: g.name)
def test_a_point_gets_the_bits_of_its_batch_row(geo, rng):
    # numpy's product of complex scalars can differ in the last bit from the
    # loop a batch runs, so a point is evaluated as the one-row batch
    X = _complex_points(rng, 200, geo.dim, 0.3)
    for evaluator in geo.evaluators:
        rows = evaluator(X)
        assert all(np.array_equal(evaluator(x), row) for x, row in zip(X, rows))
    jet = geo.jet(X.T, 2)
    for i, x in enumerate(X):
        for a, b in zip(geo.jet(x, 2), jet):
            assert (a is None and b is None) or np.array_equal(a, b[..., i])


@pytest.mark.parametrize("tangent", [False, True])
@pytest.mark.parametrize("geo", _fused_geometries(), ids=lambda g: g.name)
def test_rhs_with_work_arrays_matches_rhs_without(geo, tangent, rng):
    n2 = 2 * geo.dim
    work = {}
    for _ in range(2):
        Y = _pack(_complex_points(rng, 6, n2, 0.3), geo.dim, tangent)
        if tangent:
            Y[n2 + 1 :] += rng.normal(size=(n2 * n2, 6))
        assert np.array_equal(_rhs_at(geo, Y, work), _rhs_at(geo, Y))


def test_a_kernel_chart_declares_its_vanishing_derivatives(rng):
    # None kernels are zero evaluators and None jet entries; the chart
    # validates, its fused jet included, and flows
    geo = _linear_metric_chart()
    X = rng.uniform(-0.5, 0.5, (12, 2))
    report = validate_geometry(geo, X)
    assert report.passed and "jet" in report.residuals
    assert geo.jet(X.T, 2)[4:] == (None, None) and geo.jet(X[0], 2)[4:] == (None, None)
    for evaluator, shape in ((geo.inv_metric_deriv2, (12, 2, 2, 2, 2)),
                             (geo.beta_deriv, (12, 2, 2, 2))):
        assert evaluator(X).shape == shape and not evaluator(X).any()
        assert evaluator(X[0]).shape == shape[1:] and not evaluator(X[0]).any()
    Z = np.concatenate([X[:4], rng.uniform(-0.3, 0.3, (4, 2))], axis=1)
    assert np.array_equal(flow_many(geo, Z, 1j).jac, flow_many(_composed(geo), Z, 1j).jac)


def test_flat_jet_marks_the_vanishing_derivatives():
    geo = make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 1.0)
    g, dg, b, A, d2g, db = geo.jet(np.zeros((2, 3), dtype=complex), 2)
    assert dg is None and d2g is None and db is None
    assert g.shape == b.shape == (2, 2, 3) and A.shape == (2, 3)
    assert all(a is not None for a in make_sphere_magnetic(1.0, 1.0).jet(np.zeros(2), 2))


@pytest.mark.parametrize("tangent", [False, True])
def test_rhs_fused_matches_composed(tangent, rng):
    for geo, Z in ((_fused_geometries()[0], sample_flat(rng, 6)),
                   (_fused_geometries()[2], sample_sphere(rng, 6))):
        Y = _pack(Z + 0.1j * rng.uniform(-1, 1, Z.shape), geo.dim, tangent)
        if tangent:
            Y[2 * geo.dim + 1 :] += rng.normal(size=(4 * geo.dim**2, 6))
        assert np.array_equal(_rhs_at(geo, Y), _rhs_at(_composed(geo), Y))


@pytest.mark.parametrize("tangent", [False, True])
def test_a_composed_jet_flows_as_the_fused_jet(tangent, rng):
    # a composed jet hands back fresh arrays at every call, a fused jet the
    # same ones; a working set on the composed jet calls _rhs after its
    # recording, so a flow on it is the fused flow bit for bit.  The per-row
    # times make the rows leave at several iterations, the first after two,
    # so the working set narrows several times
    flat = make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 1.0)
    sphere = make_sphere_magnetic(1.0, 1.0)
    t = 1j * np.linspace(0.2, 1.2, 8)
    for geo, Z in ((flat, sample_flat(rng, 8)), (sphere, sample_sphere(rng, 8)),
                   (sphere.with_negated_field(), sample_sphere(rng, 8))):
        fused = flow_many(geo, Z, t, tangent=tangent)
        composed = flow_many(_composed(geo), Z, t, tangent=tangent)
        assert fused.ok.all() and composed.ok.all()
        assert len(set(fused.row_steps)) >= 4 and fused.row_steps.min() >= 2
        assert composed.steps == fused.steps
        assert np.array_equal(composed.row_steps, fused.row_steps)
        for name in ("x", "p", "quad", "det") + (("jac",) if tangent else ()):
            assert np.array_equal(getattr(composed, name), getattr(fused, name), equal_nan=True)


def _count_stages(monkeypatch):
    """Note each call of a working set's replayed right-hand side as (was it
    recorded before, is it replayable after, did it call _rhs on arrays)."""
    stages, rhs_calls = [], []
    call, rhs = flow._Replay.__call__, flow._rhs

    def replayed(self, Y, out):
        before, k = self._replayable, len(rhs_calls)
        call(self, Y, out)
        stages.append((before, self._replayable, len(rhs_calls) > k))
        return out

    def counted(geo, Y, out, jet):
        if isinstance(Y, np.ndarray):  # a stage, not a recording
            rhs_calls.append(1)
        return rhs(geo, Y, out, jet)

    monkeypatch.setattr(flow._Replay, "__call__", replayed)
    monkeypatch.setattr(flow, "_rhs", counted)
    return stages


@pytest.mark.parametrize("tangent", [False, True])
def test_a_jet_that_hands_back_new_arrays_ends_the_replay(tangent, rng, monkeypatch):
    # a composed jet hands back fresh arrays at every call: each working set
    # records, and from its next stage on calls _rhs, with the fused bits.
    # Half the rows leave at 0.6i, so a narrowed set records again
    sphere = make_sphere_magnetic(1.0, 1.0)
    Z, t = sample_sphere(rng, 8), np.repeat([0.6j, 1.2j], 4)
    fused = flow_many(sphere, Z, t, tangent=tangent)
    stages = _count_stages(monkeypatch)
    composed = flow_many(_composed(sphere), Z, t, tangent=tangent)
    recorded = [after for before, after, _ in stages if before is None]
    later = [(before, called) for before, _, called in stages if before is not None]
    assert len(recorded) >= 2 and all(recorded) and later
    assert all(called for _, called in later)
    assert sum(before for before, _ in later) == len(recorded)  # one replay tried per set
    for name in ("x", "p", "quad", "det") + (("jac",) if tangent else ()):
        assert np.array_equal(getattr(composed, name), getattr(fused, name), equal_nan=True)


@pytest.mark.parametrize("tangent", [False, True])
def test_the_benchmark_charts_stay_on_the_replay(tangent, rng, monkeypatch):
    # the built-in charts' fused jets hand back the same arrays at every
    # call, so every working set that records is replayable and replays
    # every later stage without calling _rhs, the narrowed set too
    stages = _count_stages(monkeypatch)
    flat = make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 1.0)
    sphere = make_sphere_magnetic(1.0, 1.0)
    t = np.repeat([0.6j, 1.2j], 4)
    for geo, Z in ((flat, sample_flat(rng, 8)), (sphere, sample_sphere(rng, 8)),
                   (sphere.with_negated_field(), sample_sphere(rng, 8))):
        stages.clear()
        assert flow_many(geo, Z, t, tangent=tangent).ok.all()
        recorded = [after for before, after, _ in stages if before is None]
        later = [(before, after, called) for before, after, called in stages
                 if before is not None]
        assert len(recorded) >= 2 and all(recorded) and later
        assert all(before and after and not called for before, after, called in later)


@pytest.mark.parametrize("tangent", [False, True])
def test_each_stage_reads_the_geometry_through_one_jet_call(tangent, rng):
    # the integrator reads the jet once per stage, of order 2 with the
    # tangent map and 1 without, and passes its arrays to _rhs; a recorded
    # and a replayed stage read it once too.  With per-row times the rows
    # leave at several iterations, so the working set narrows, and its
    # stages call _rhs, record it and replay it
    sphere = make_sphere_magnetic(1.0, 1.0)
    calls = []

    def forbidden(x):
        raise AssertionError("evaluator called outside the jet")

    def jet(x, order, work):
        calls.append(order)
        return sphere.jet(x, order, work)

    evals = tuple(forbidden for _ in EVALUATORS)
    geo = ChartedGeometry(2, *evals[:4], chart_box=3.0, complex_radius=0.6,
                          inv_metric_deriv2=evals[4], beta_deriv=evals[5],
                          fused_jet=FusedJet(jet, evals))
    Z = sample_sphere(rng, 8)
    t = 1j * np.linspace(0.2, 1.2, 8)
    res = flow_many(geo, Z, t, tangent=tangent)
    ref = flow_many(sphere, Z, t, tangent=tangent)
    assert res.ok.all() and len(set(res.row_steps)) >= 4
    assert calls == [2 if tangent else 1] * (12 * res.steps)
    for name in ("x", "p", "quad", "det") + (("jac",) if tangent else ()):
        assert np.array_equal(getattr(res, name), getattr(ref, name), equal_nan=True)
    calls.clear()
    xdot, pdot = field_components(geo, Z[:, :2], Z[:, 2:])
    assert calls == [1]
    ref = field_components(sphere, Z[:, :2], Z[:, 2:])
    assert np.array_equal(xdot, ref[0]) and np.array_equal(pdot, ref[1])


@pytest.mark.parametrize("name", EVALUATORS)
def test_replacing_an_evaluator_drops_the_fused_jet(name, rng):
    for geo in (_fused_geometries()[0], _fused_geometries()[2]):
        fn = getattr(geo, name)
        replaced = dataclasses.replace(geo, **{name: lambda x, _fn=fn: 2.0 * _fn(x)})
        assert replaced.fused_jet is None
        x = _complex_points(rng, 3, geo.dim, 0.2)
        index = EVALUATORS.index(name)
        assert np.allclose(replaced.jet(x.T, 2)[index], _rows_last(2.0 * fn(x)))
    sphere = _fused_geometries()[2]
    assert dataclasses.replace(sphere, name="same evaluators").fused_jet is sphere.fused_jet
    assert sphere.with_negated_field().fused_jet is not None  # wrapped, see below


def test_built_geometries_carry_the_fused_jet():
    built = [
        cli.build_geometry(parse_config_text("kind = flat\nB = 0 1; -1 0\n")),
        cli.build_geometry(parse_config_text("kind = flat\ndim = 3\n")),
        cli.build_geometry(parse_config_text("kind = sphere\nradius = 2\nfield = 0.5\n")),
        suites._flat(1.0, 0.5),
        *(chart.build() for chart in suites._CHARTS.values()),
    ]
    assert all(geo.fused_jet is not None for geo in built)


def test_negated_field_keeps_the_fused_jet(rng):
    # the -beta chart of each built-in chart keeps a fused jet, built for its
    # negated evaluators, so validate_geometry compares it with them: exactly
    # equal.  A -beta flow reads the composed jet's bits.
    samples = np.array([[0.1, -0.2], [0.3, 0.05], [-0.25, 0.15]])
    for chart in suites._CHARTS.values():
        minus = chart.build().with_negated_field()
        assert minus.fused_jet is not None
        assert minus.fused_jet.evaluators == minus.evaluators
        assert validate_geometry(minus, samples).residuals["jet"] == 0.0
        Z = np.concatenate([samples, rng.uniform(-0.3, 0.3, (3, 2))], axis=1)
        fused, composed = flow_many(minus, Z, 1j), flow_many(_composed(minus), Z, 1j)
        for name in ("x", "p", "quad", "jac"):
            assert np.array_equal(getattr(fused, name), getattr(composed, name))


def _scaled_fused_d2g(geo, factor):
    """geo with correct evaluators but a fused jet whose d2g is scaled."""
    fused = geo.fused_jet

    def jet(x, order, work, _fn=fused.fn):
        out = _fn(x, order, work)
        return out if order < 2 else out[:4] + (factor * out[4], out[5])
    return dataclasses.replace(geo, fused_jet=FusedJet(jet, fused.evaluators))


def _check(suite, name):
    return next(c for c in suite(1234)[0] if c.name == name)


def test_wrong_fused_second_derivative_fails_both_gates(monkeypatch):
    assert _check(suites.suite_flow, "tangent_map_contour").passed
    patch_chart(monkeypatch, "sphere", lambda geo: _scaled_fused_d2g(geo, 1 + 1e-6))
    assert suites._CHARTS["sphere"].build().fused_jet is not None
    assert not _check(suites.suite_geometry, "sphere_validation").passed
    assert not _check(suites.suite_flow, "tangent_map_contour").passed


@pytest.mark.parametrize("name", ["inv_metric_deriv2", "beta_deriv"])
def test_tangent_map_contour_sees_a_wrong_second_derivative(name, monkeypatch):
    def bad_sphere(geo):
        fn = getattr(geo, name)
        return dataclasses.replace(geo, **{name: lambda x: (1 + 1e-6) * fn(x)})

    patch_chart(monkeypatch, "sphere", bad_sphere)
    assert not _check(suites.suite_flow, "tangent_map_contour").passed


# A chart without second-derivative evaluators gets them by the contour rule,
# accurate enough for the sphere's derivative tolerances (1e-10).

def _sphere_without_second_derivatives():
    return dataclasses.replace(suites._CHARTS["sphere"].build(), inv_metric_deriv2=None,
                               beta_deriv=None)


def test_composed_second_derivatives_match_closed_forms(rng):
    sphere, geo = suites._CHARTS["sphere"].build(), _sphere_without_second_derivatives()
    assert geo.fused_jet is None
    x = _complex_points(rng, 20, 2, 0.3)
    for composed, exact in zip(geo.jet(x.T, 2)[4:], (sphere.inv_metric_deriv2(x),
                                                     sphere.beta_deriv(x))):
        assert composed.dtype == complex
        assert np.abs(composed - _rows_last(exact)).max() < 1e-10
    real = geo.jet(x.real.T, 2)
    assert all(a.dtype == float for a in real)


def test_composed_sphere_meets_the_derivative_tolerances():
    geo = _sphere_without_second_derivatives()
    rng, chart = np.random.default_rng(5), suites._CHARTS["sphere"]
    Z = suites._sample(rng, geo, 20, chart.tube)
    for t in (ComplexTime(1j), ComplexTime(0.3 + 0.8j)):
        assert integrability_residual_many(geo, Z, t)[3].max() < 1e-10
    # the flow suite's block on this chart: six rows of its own
    case = SimpleNamespace(rng=rng, chart=chart, geo=geo)
    assert run(suites._tangent_map_contour(case))["tangent_map_contour"].max() < 1e-10


# The variational term of the tangent RHS, formed by blocks, against DX @ J
# with DX the contour gradient of the field.  The generic chart has dim 3, a
# non-conformal metric and a non-constant field, so an index swap in T, T^T,
# d2g or dbeta, invisible on the conformal sphere, shows there.

def _generic_chart():
    """g^{-1} = (1 + eps s^2) I + eps x x^T with s = a.x, and the cubic
    A = (x.v)^3 w + (1/2) x B; no second-derivative evaluators.  The sums
    over the chart index are written out elementwise, so a point's values do
    not depend on the rest of its batch (a matmul's need not)."""
    eps, a = 0.4, np.array([0.3, -0.5, 0.7])
    v, w = np.array([0.6, 0.2, -0.4]), np.array([-0.3, 0.8, 0.5])
    B = np.array([[0.0, 1.0, -0.4], [-1.0, 0.0, 0.3], [0.4, -0.3, 0.0]])
    eye = np.eye(3)

    def dot(x, c):  # sum_k x_k c[k] over the last axis of x
        return x[..., 0, None] * c[0] + x[..., 1, None] * c[1] + x[..., 2, None] * c[2]

    def inv_metric(x):
        s = dot(x, a)[..., 0]
        return (1.0 + eps * s**2)[..., None, None] * eye + eps * x[..., :, None] * x[..., None, :]

    def inv_metric_deriv(x):
        xe = x[..., None, :, None] * eye[:, None, :]  # delta_jl x_k
        s = dot(x, a)[..., None, None]
        return 2.0 * eps * s * eye[:, :, None] * a + eps * (xe + np.swapaxes(xe, -2, -3))

    def beta(x):
        c = 3.0 * dot(x, v) ** 2
        return c[..., None] * (np.outer(v, w) - np.outer(w, v)) + B

    def potential(x):
        return dot(x, v) ** 3 * w + 0.5 * dot(x, B)

    return ChartedGeometry(3, inv_metric, inv_metric_deriv, beta, potential,
                           chart_box=1.0, complex_radius=1.0, name="generic(dim=3)")


def test_generic_chart_is_a_valid_geometry(rng):
    report = validate_geometry(_generic_chart(), rng.uniform(-0.4, 0.4, (20, 3)))
    assert report.passed and report.residuals["exterior_derivative"] < 1e-11


def _field_jacobian(geo, Z):
    """DX at the rows Z, by the package's one derivative rule."""
    n = geo.dim

    def field(rows):
        return np.concatenate(field_components(geo, rows[:, :n], rows[:, n:]), axis=1), True, None

    return np.swapaxes(phase_gradient(field, Z, np.eye(2 * n))[3], 1, 2)


@pytest.mark.parametrize("geo", [make_sphere_magnetic(1.3, 0.8),
                                 _sphere_without_second_derivatives(), _generic_chart()],
                         ids=["sphere", "composed-sphere", "generic"])
def test_variational_term_is_the_field_jacobian_times_the_tangent_map(geo, rng):
    n2 = 2 * geo.dim
    Z = _complex_points(rng, 6, n2, 0.3)
    J = rng.normal(size=(6, n2, n2)) + 1j * rng.normal(size=(6, n2, n2))
    Y = _pack(Z, geo.dim, True)
    Y[n2 + 1 :] = _rows_last(J).reshape(-1, 6)
    got = np.moveaxis(_rhs_at(geo, Y)[n2 + 1 :].reshape(n2, n2, 6), -1, 0)
    assert np.abs(got - _field_jacobian(geo, Z) @ J).max() < 1e-10


# The flow core runs the rows on the last axis.  Every term of its
# contractions is elementwise over the rows, so a row's right-hand side
# depends only on that row; a reduction over the wrong axis mixes rows and
# shows here.

@pytest.mark.parametrize("tangent", [False, True])
@pytest.mark.parametrize("geo", [_fused_geometries()[1], make_sphere_magnetic(1.3, 0.8),
                                 _generic_chart()], ids=["flat", "sphere", "generic"])
def test_rhs_of_a_batch_is_the_rhs_of_each_row(geo, tangent, rng):
    n2 = 2 * geo.dim
    Y = _pack(_complex_points(rng, 17, n2, 0.3), geo.dim, tangent)
    if tangent:
        Y[n2 + 1 :] += rng.normal(size=(n2 * n2, 17)) + 1j * rng.normal(size=(n2 * n2, 17))
    batch = _rhs_at(geo, Y)
    assert batch.shape == Y.shape
    for r in range(17):
        row = Y[:, r : r + 1]
        assert np.array_equal(batch[:, r : r + 1], _rhs_at(geo, row))


def _grid(x_half, p_half):
    """A 400-row (x1, x2, p1, p2) grid of 4 x 4 x 5 x 5 points."""
    axes = [np.linspace(-h, h, c) for h, c in ((x_half, 4), (x_half, 4), (p_half, 5), (p_half, 5))]
    return np.stack([a.reshape(-1) for a in np.meshgrid(*axes, indexing="ij")], axis=1)


@pytest.mark.parametrize("geo, Z", [
    (make_flat_magnetic(2, [[0.0, 1.0], [-1.0, 0.0]], 1.0), _grid(0.95, 1.9)),
    (make_sphere_magnetic(1.0, 1.0), _grid(0.095, 1.3)),
], ids=["flat", "sphere"])
def test_wrapped_evaluators_flow_a_grid_as_the_fused_jet_does(geo, Z):
    # every evaluator wrapped, as an instrumented run wraps them: the fused
    # jet is dropped and the jet composes the evaluators
    wrapped = dataclasses.replace(geo, **{name: (lambda x, _fn=getattr(geo, name): _fn(x))
                                          for name in EVALUATORS})
    assert wrapped.fused_jet is None and geo.fused_jet is not None
    fused, composed = flow_many(geo, Z, 1j), flow_many(wrapped, Z, 1j)
    assert fused.ok.all() and composed.steps == fused.steps
    for name in ("x", "p", "quad", "jac", "det"):
        assert np.array_equal(getattr(composed, name), getattr(fused, name))
