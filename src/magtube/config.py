"""Plain-text run configuration: one ``key = value`` per line, ``#`` comments.

Geometry keys:   kind = flat|sphere, dim, B (row-major matrix with rows
separated by ';'), mass_freq, radius, field.  Run keys: grid (comma list of
axis specs name:min:max:count over x1.. p1..), time (complex literal),
path (comma list of complex literals), suite, seed, jobs, out.

Complex literals use 'i' or 'j': "0.3+0.8i", "-i", "1.2", "2i".  Environment
variables with the MAGTUBE_ prefix override file keys (e.g. MAGTUBE_SEED=7).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dataclass_field, fields
from typing import Optional

import numpy as np

from .flow import ComplexTime
from .geometry import ChartedGeometry, make_flat_magnetic, make_sphere_magnetic

__all__ = [
    "ConfigError",
    "RunConfig",
    "GridAxis",
    "parse_complex",
    "parse_config_text",
    "load_config",
    "build_geometry",
    "grid_points",
    "check_run_keys",
    "SUITE_NAMES",
]

ENV_PREFIX = "MAGTUBE_"

# the registry in ``magtube.suites`` in its order, then "all"; kept here so
# that checking a config does not import the suites
SUITE_NAMES = [
    "geometry", "flow", "frames", "kahler", "intertwine", "flat-oracle", "sphere-oracle",
    "all",
]


class ConfigError(ValueError):
    """Malformed configuration (CLI exit code 2)."""


_COMPLEX_RE = re.compile(r"^[0-9+\-.eEij ]+$")


def parse_complex(text: str) -> complex:
    """Parse a complex literal written with i or j, e.g. '0.3+0.8i', '-i'."""
    s = str(text).strip().replace(" ", "")
    if not s or not _COMPLEX_RE.match(s):
        raise ConfigError(f"not a complex literal: {text!r}")
    s = s.replace("i", "j")
    # bare 'j' / '+j' / '-j' and trailing '+j'-style forms need a coefficient
    s = re.sub(r"(?<![0-9.])j", "1j", s)
    try:
        return complex(s)
    except ValueError as exc:
        raise ConfigError(f"not a complex literal: {text!r}") from exc


@dataclass
class GridAxis:
    name: str
    lo: float
    hi: float
    count: int

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([0.5 * (self.lo + self.hi)])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class RunConfig:
    """Everything a CLI run needs; unknown keys are rejected."""

    kind: str = "flat"
    dim: int = 2
    B: Optional[np.ndarray] = None
    mass_freq: float = 1.0
    radius: float = 1.0
    field: float = 0.0
    grid: list = dataclass_field(default_factory=list)
    time: complex = 1j
    path: tuple = ()
    suite: str = "all"
    seed: int = 1234
    jobs: int = 1
    out: Optional[str] = None


_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def parse_config_text(text: str) -> RunConfig:
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return _config_from_pairs(pairs)


def _apply_env_overrides(pairs: dict) -> dict:
    for key in _KNOWN_KEYS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            pairs[key] = env
    return pairs


def _config_from_pairs(pairs: dict) -> RunConfig:
    pairs = _apply_env_overrides(dict(pairs))
    cfg = RunConfig()
    try:
        if "kind" in pairs:
            cfg.kind = pairs["kind"].lower()
        if "dim" in pairs:
            cfg.dim = int(pairs["dim"])
            if cfg.dim < 1:
                raise ConfigError(f"dim must be at least 1, got {cfg.dim}")
        if "B" in pairs:
            rows = [
                [float(v) for v in row.split()]
                for row in pairs["B"].split(";")
                if row.strip()
            ]
            cfg.B = np.array(rows, dtype=float)
        if "mass_freq" in pairs:
            cfg.mass_freq = float(pairs["mass_freq"])
        if "radius" in pairs:
            cfg.radius = float(pairs["radius"])
        if "field" in pairs:
            cfg.field = float(pairs["field"])
        if "grid" in pairs:
            cfg.grid = []
            for spec in pairs["grid"].split(","):
                spec = spec.strip()
                if not spec:
                    continue
                parts = spec.split(":")
                if len(parts) != 4:
                    raise ConfigError(f"grid axis {spec!r} is not name:min:max:count")
                axis = GridAxis(parts[0], float(parts[1]), float(parts[2]), int(parts[3]))
                if axis.count < 1:
                    raise ConfigError(f"grid axis {axis.name} needs count >= 1, got {axis.count}")
                cfg.grid.append(axis)
        if "time" in pairs:
            cfg.time = parse_complex(pairs["time"])
        if "path" in pairs:
            cfg.path = tuple(
                parse_complex(w) for w in pairs["path"].split(",") if w.strip()
            )
        if "suite" in pairs:
            cfg.suite = pairs["suite"].strip()
        if "seed" in pairs:
            cfg.seed = int(pairs["seed"])
        if "jobs" in pairs:
            cfg.jobs = int(pairs["jobs"])
        if "out" in pairs:
            cfg.out = pairs["out"]
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    return check_run_keys(cfg)


def check_run_keys(cfg: RunConfig) -> RunConfig:
    """Reject a suite no command runs, a negative seed and a worker count
    below one; the CLI calls this again after its flags override the
    config."""
    if cfg.suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {cfg.jobs}")
    return cfg


def load_config(path: Optional[str]) -> RunConfig:
    if path is None:
        return _config_from_pairs({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def build_geometry(cfg: RunConfig) -> ChartedGeometry:
    if cfg.kind == "flat":
        B = cfg.B if cfg.B is not None else np.zeros((cfg.dim, cfg.dim))
        try:
            return make_flat_magnetic(cfg.dim, B, cfg.mass_freq)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.kind == "sphere":
        try:
            return make_sphere_magnetic(cfg.radius, cfg.field)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if cfg.kind == "custom":
        raise ConfigError("custom geometries are registered programmatically, not via config")
    raise ConfigError(f"unknown geometry kind {cfg.kind!r}")


def grid_points(cfg: RunConfig, geo: ChartedGeometry) -> np.ndarray:
    """Row-major cartesian product of the grid axes as (m, 2n) phase rows.

    Axes are named x1..xn, p1..pn; omitted axes are held at zero.  Base
    coordinates must lie inside the chart box, and the time and its path
    must make a valid ``ComplexTime`` (checked here so the CLI can fail fast
    with a config error).
    """
    n = geo.dim
    names = [f"x{i+1}" for i in range(n)] + [f"p{i+1}" for i in range(n)]
    axes = {ax.name: ax for ax in cfg.grid}
    unknown = set(axes) - set(names)
    if unknown:
        raise ConfigError(f"grid axes {sorted(unknown)} do not match {names}")
    values = [axes[name].values() if name in axes else np.array([0.0]) for name in names]
    for i in range(n):
        vals = values[i]
        if np.any(np.abs(vals) >= geo.chart_box):
            raise ConfigError(
                f"grid axis x{i+1} leaves the chart box (+-{geo.chart_box})"
            )
    try:
        ComplexTime(cfg.time, cfg.path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    mesh = np.meshgrid(*values, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)
