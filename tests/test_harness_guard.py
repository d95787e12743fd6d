"""The benchmark harness traces magtube by name: keep those names alive.

``magbench/spans.py`` rebinds the entry points it lists and raises when one
is missing, so a renamed function or a changed signature would only show up
in a traced benchmark run.  These tests load that file read-only and check
its names against the package.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

from magtube import flow, geometry, suites

SPANS = Path(__file__).resolve().parents[1] / "magbench" / "spans.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_magbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def test_traced_entry_points_exist(monkeypatch):
    spans = _load_spans(monkeypatch)
    missing = [f"{layer}.{name}" for layer, names in spans.LAYER_ENTRY_POINTS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"magtube.{layer}"), name, None))]
    missing += [name for name in spans.GEOMETRY_FACTORIES
                if not callable(getattr(geometry, name, None))]
    assert not missing
    # the flow span reads the rows from Z0 (second positional argument) and
    # the steps and ok flags from the returned (Y, ok, reasons, det, steps)
    assert list(inspect.signature(flow._integrate_path).parameters)[:2] == ["geo", "Z0"]
    assert tuple(suites.suite_functions()) == spans.SUITES
    # spans rebinds each suite callable by identity among the module
    # attributes, so one kept only in a registry dict could not be traced
    bound = vars(suites).values()
    assert all(any(fn is value for value in bound) for fn in suites.suite_functions().values())


def test_instrumented_flow_is_traced(monkeypatch):
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        geo = geometry.make_sphere_magnetic(1.0, 1.0)
        Z = np.array([[0.1, -0.05, 0.3, 0.2], [0.0, 0.1, -0.2, 0.1]])
        res = flow.flow_many(geo, Z, 1j)
    assert res.ok.all()
    m = spans.layer_metrics(tracer)
    assert m["flow.calls"] == 1 and m["flow.rows"] == 2
    assert m["flow.steps"] == res.steps and m["flow.rows_failed"] == 0


def test_integrate_path_returns_what_the_flow_span_reads():
    # (Y, ok, reasons, det, steps): steps at index 4 as flow_many reports it,
    # |det| of the end tangent map at index 3, NaN without the tangent map
    geo = geometry.make_sphere_magnetic(1.0, 1.0)
    Z = np.array([[0.1, -0.05, 0.3, 0.2], [0.0, 0.1, -0.2, 0.1]], dtype=complex)
    for tangent in (True, False):
        out = flow._integrate_path(geo, Z, (0.0, 1j), tangent=tangent)
        res = flow.flow_many(geo, Z, 1j, tangent=tangent)
        assert len(out) == 5 and out[4] == res.steps and list(out[1]) == list(res.ok)
        if tangent:
            assert np.array_equal(out[3], np.abs(np.linalg.det(res.jac)))
        else:
            assert np.isnan(out[3]).all()


def test_a_traced_suite_sees_every_planned_flow(monkeypatch):
    # the flow plan calls _integrate_path through the module global, so the
    # tracer's rebinding sees each merged flow of a suite as one flow span
    calls, integrate = [], flow._integrate_path
    with monkeypatch.context() as mp:
        mp.setattr(flow, "_integrate_path", lambda *a, **k: calls.append(1) or integrate(*a, **k))
        suites.run_suite("flow", 1234)
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        report = suites.run_suite("flow", 1234)
    assert report["passed"] and calls
    assert spans.layer_metrics(tracer)["flow.calls"] == len(calls)
