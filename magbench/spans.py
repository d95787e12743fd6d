"""In-memory spans and counters at magtube's layer boundaries.

A span records name, start, end and parent index; spans stay in memory until
the run ends.  Geometry evaluators are called far too often for one span per
call, so they are leaf counters instead: their time is added to the open
span's ``leaf_s`` so that self times still add up.

``instrument`` rebinds the entry points named below, in every loaded
``magtube`` module that holds them, for the duration of a ``with`` block.
A missing entry point raises, so a renamed function cannot turn into a
silent zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# entry points wrapped by layer; the home module is magtube.<layer>
LAYER_ENTRY_POINTS = {
    "config": ("load_config", "_config_from_pairs", "build_geometry", "grid_points"),
    "structure": (
        "frame_at", "frames_at_many", "assemble_J", "positivity_matrix",
        "transversality_check", "integrability_residual_many", "subspace_distance",
        "orthonormalize", "normalized_zero_section_frame_change",
    ),
    "kahler": (
        "potential_f", "potential_f_many", "kde_residual_many", "dbar_residual_many",
        "resolve_kappa1_coefficient", "kappa2_flat", "section_weight",
    ),
    "intertwine": (
        "check_flow_reversal", "check_frame_intertwine", "check_shifted_frame_intertwine",
    ),
    "oracles": (
        "flat_flow_oracle", "flat_flow_jacobian", "flat_frame_columns",
        "flat_complex_coordinates", "flat_f_sigma", "sphere_moment_map",
        "sphere_flow_oracle", "sphere_embedding_map", "sphere_chart_to_embedding",
        "sphere_embedding_to_chart", "zero_section_linearization", "zero_section_frame",
        "zero_section_positivity_matrix",
    ),
}
GEOMETRY_FACTORIES = ("make_flat_magnetic", "make_sphere_magnetic")
EVALUATORS = (
    "inv_metric", "inv_metric_deriv", "inv_metric_deriv2", "beta", "beta_deriv", "potential",
)
CHARTS = ("flat", "sphere")
SUITES = ("geometry", "flow", "frames", "kahler", "intertwine", "flat-oracle", "sphere-oracle")


def _per_layer_units() -> dict:
    """Every per-layer metric with its unit, in report order."""
    u = {"flow.calls": "count", "flow.rows": "count", "flow.s": "s", "flow.self_s": "s",
         "flow.steps": "count", "flow.row_steps": "count", "flow.rows_failed": "count",
         "flow.us_per_row_step": "us"}
    for bucket in ("m1", "m2_99", "m100"):
        u[f"flow.calls.{bucket}"] = "count"
        u[f"flow.s.{bucket}"] = "s"
    u.update({"structure.calls": "count", "structure.self_s": "s", "structure.flow_s": "s",
              "structure.frames": "count", "structure.integrability_s": "s",
              "kahler.calls": "count", "kahler.self_s": "s", "kahler.flow_s": "s",
              "kahler.stencil_rows": "count",
              "intertwine.calls": "count", "intertwine.self_s": "s", "intertwine.flow_s": "s",
              "oracles.calls": "count", "oracles.s": "s"})
    for suite in SUITES:
        u[f"suites.{suite}_s"] = "s"
    u["suites.self_s"] = "s"
    for chart in CHARTS:
        for ev in EVALUATORS:
            u[f"geometry.eval_calls.{chart}.{ev}"] = "count"
            u[f"geometry.eval_s.{chart}.{ev}"] = "s"
    u.update({"geometry.eval_s": "s", "config.s": "s", "cli.self_s": "s", "cli.rows": "count",
              "cli.flow_rows_per_s.flat": "1/s", "cli.flow_rows_per_s.sphere": "1/s",
              "cli.frame_rows_per_s": "1/s", "cli.potential_rows_per_s": "1/s",
              "cli.acs_rows_per_s": "1/s",
              "trace.overhead_s": "s", "trace.untraced_s": "s", "trace.spans": "count"})
    return u


PER_LAYER = _per_layer_units()


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    leaf_s: float = 0.0
    attrs: dict = dataclasses.field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.counts = defaultdict(int)
        self.seconds = defaultdict(float)

    @contextmanager
    def span(self, name, **attrs):
        parent = self._stack[-1] if self._stack else None
        sp = Span(name, self.clock(), parent=parent, attrs=attrs)
        self.spans.append(sp)
        self._stack.append(len(self.spans) - 1)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def leaf(self, key: str, seconds: float):
        """Count one call of ``key`` taking ``seconds`` inside the open span."""
        self.counts[key] += 1
        self.seconds[key] += seconds
        if self._stack:
            self.spans[self._stack[-1]].leaf_s += seconds


def self_times(spans) -> dict:
    """Self time per layer: span duration minus child spans and leaf calls."""
    child = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.duration
    out = defaultdict(float)
    for i, sp in enumerate(spans):
        out[sp.layer] += sp.duration - child[i] - sp.leaf_s
    return out


def outer_spans(spans, layer):
    """Spans of ``layer`` not nested in another span of the same layer."""
    return [sp for sp in spans if sp.layer == layer
            and (sp.parent is None or spans[sp.parent].layer != layer)]


def _chart(geo) -> str:
    for chart in CHARTS:
        if geo.name.startswith(chart):
            return chart
    return "custom"


class _Rebinder:
    """Replaces an object in every loaded magtube module and restores it."""

    def __init__(self):
        self.undo = []

    def rebind(self, original, replacement):
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if not (modname == "magtube" or modname.startswith("magtube.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self.undo.append((mod, attr, original))
                    hits += 1
        if not hits:
            raise RuntimeError(f"no magtube module binds {original!r}")

    def restore(self):
        for mod, attr, original in reversed(self.undo):
            setattr(mod, attr, original)
        self.undo.clear()


def _entry(module, name):
    fn = getattr(module, name, None)
    if not callable(fn):
        raise RuntimeError(f"traced entry point {module.__name__}.{name} no longer exists")
    return fn


@contextmanager
def instrument(tracer: Tracer):
    """Wrap magtube's layer entry points with spans and counters."""
    flow = importlib.import_module("magtube.flow")
    suites = importlib.import_module("magtube.suites")
    geometry = importlib.import_module("magtube.geometry")
    clock = tracer.clock
    binder = _Rebinder()

    def spanned(layer, fn):
        def wrapper(*args, **kwargs):
            with tracer.span(f"{layer}.{fn.__name__}") as sp:
                _annotate(sp, fn.__name__, args)
                return fn(*args, **kwargs)
        return wrapper

    def integrate_path(*args, **kwargs):
        Z0 = args[1] if len(args) > 1 else kwargs["Z0"]
        with tracer.span("flow", rows=len(Z0)) as sp:
            out = original_integrate(*args, **kwargs)
            sp.attrs["steps"] = int(out[4])
            sp.attrs["failed"] = int(len(out[1]) - out[1].sum())
            return out

    def eval_wrapper(fn, key):
        def wrapper(x):
            t0 = clock()
            out = fn(x)
            tracer.leaf(key, clock() - t0)
            return out
        return wrapper

    def factory(make):
        def wrapper(*args, **kwargs):
            geo = make(*args, **kwargs)
            chart = _chart(geo)
            wrapped = {name: eval_wrapper(getattr(geo, name), f"{chart}.{name}")
                       for name in EVALUATORS if getattr(geo, name) is not None}
            return dataclasses.replace(geo, **wrapped)
        return wrapper

    try:
        original_integrate = _entry(flow, "_integrate_path")
        binder.rebind(original_integrate, integrate_path)
        for name in GEOMETRY_FACTORIES:
            fn = _entry(geometry, name)
            binder.rebind(fn, factory(fn))
        for layer, names in LAYER_ENTRY_POINTS.items():
            module = importlib.import_module(f"magtube.{layer}")
            for name in names:
                fn = _entry(module, name)
                binder.rebind(fn, spanned(layer, fn))
        registry = _entry(suites, "suite_functions")()
        if tuple(registry) != SUITES:
            raise RuntimeError(f"suite registry changed: {list(registry)}")
        for sname, fn in registry.items():
            def suite_wrapper(seed, _fn=fn, _name=sname):
                with tracer.span(f"suites.{_name}"):
                    return _fn(seed)
            binder.rebind(fn, suite_wrapper)
        yield tracer
    finally:
        binder.restore()


def _annotate(sp: Span, name: str, args):
    """Work counts the layer metrics need, read from the arguments."""
    if name == "frames_at_many":
        sp.attrs["frames"] = len(args[1])
    elif name == "frame_at":
        sp.attrs["frames"] = 1
    elif name == "potential_f_many":
        sp.attrs["rows"] = len(args[1])


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from one traced unit (units are in PER_LAYER)."""
    spans = tracer.spans
    own = self_times(spans)
    m = {}

    flows = [sp for sp in spans if sp.layer == "flow"]
    rows = sum(sp.attrs["rows"] for sp in flows)
    row_steps = sum(sp.attrs["rows"] * sp.attrs["steps"] for sp in flows)
    flow_s = sum(sp.duration for sp in flows)
    m["flow.calls"] = len(flows)
    m["flow.rows"] = rows
    m["flow.s"] = flow_s
    m["flow.self_s"] = own["flow"]
    m["flow.steps"] = sum(sp.attrs["steps"] for sp in flows)
    m["flow.row_steps"] = row_steps
    m["flow.rows_failed"] = sum(sp.attrs["failed"] for sp in flows)
    m["flow.us_per_row_step"] = 1e6 * flow_s / row_steps if row_steps else 0.0
    buckets = {"m1": (1, 1), "m2_99": (2, 99), "m100": (100, None)}
    for key, (lo, hi) in buckets.items():
        sel = [sp for sp in flows
               if lo <= sp.attrs["rows"] and (hi is None or sp.attrs["rows"] <= hi)]
        m[f"flow.calls.{key}"] = len(sel)
        m[f"flow.s.{key}"] = sum(sp.duration for sp in sel)

    def flow_under(layer):
        return sum(sp.duration for sp in flows
                   if sp.parent is not None and spans[sp.parent].layer == layer)

    m["structure.calls"] = len(outer_spans(spans, "structure"))
    m["structure.self_s"] = own["structure"]
    m["structure.flow_s"] = flow_under("structure")
    m["structure.frames"] = sum(sp.attrs.get("frames", 0) for sp in spans)
    m["structure.integrability_s"] = sum(
        sp.duration for sp in spans if sp.name == "structure.integrability_residual_many")
    m["kahler.calls"] = len(outer_spans(spans, "kahler"))
    m["kahler.self_s"] = own["kahler"]
    m["kahler.flow_s"] = flow_under("kahler")
    m["kahler.stencil_rows"] = sum(
        sp.attrs["rows"] for sp in spans if sp.name == "kahler.potential_f_many"
        and sp.parent is not None and spans[sp.parent].name in
        ("kahler.kde_residual_many", "kahler.dbar_residual_many"))
    m["intertwine.calls"] = len(outer_spans(spans, "intertwine"))
    m["intertwine.self_s"] = own["intertwine"]
    m["intertwine.flow_s"] = flow_under("intertwine")
    oracle_spans = outer_spans(spans, "oracles")
    m["oracles.calls"] = len(oracle_spans)
    m["oracles.s"] = sum(sp.duration for sp in oracle_spans)
    for suite in SUITES:
        m[f"suites.{suite}_s"] = sum(sp.duration for sp in spans if sp.name == f"suites.{suite}")
    m["suites.self_s"] = own["suites"]
    for chart in CHARTS:
        for ev in EVALUATORS:
            m[f"geometry.eval_calls.{chart}.{ev}"] = tracer.counts[f"{chart}.{ev}"]
            m[f"geometry.eval_s.{chart}.{ev}"] = tracer.seconds[f"{chart}.{ev}"]
    m["geometry.eval_s"] = sum(tracer.seconds.values())
    m["config.s"] = sum(sp.duration for sp in outer_spans(spans, "config"))
    m["cli.self_s"] = own["cli"]
    m["trace.spans"] = len(spans)
    return m
