"""Plain-text run configuration: one ``key = value`` per line, ``#`` comments.

Geometry keys:   kind = flat|sphere, dim, B (row-major matrix with rows
separated by ';'), mass_freq, radius, field.  Run keys: grid (comma list of
axis specs name:min:max:count over x1.. p1..), time (complex literal),
path (comma list of complex literals), suite, seed, jobs, out.

Complex literals use 'i' or 'j': "0.3+0.8i", "-i", "1.2", "2i".  Environment
variables with the MAGTUBE_ prefix override file keys (e.g. MAGTUBE_SEED=7).

Each key is one entry of ``_PARSERS``, keyed by its ``RunConfig`` field;
every range rule is in ``check_run_keys``; each kind is one row of
``_KINDS``, with the geometry keys it reads: a geometry key that the kind
does not read is rejected.  A command that does not read some keys names
them in ``_UNREAD``, and a file or MAGTUBE_* variable that sets one of them
is rejected for that command.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field as dataclass_field
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


def _matrix(text: str) -> np.ndarray:
    """A row-major matrix, rows separated by ';'."""
    return np.array([[float(v) for v in row.split()] for row in text.split(";") if row.strip()],
                    dtype=float)


def _grid(text: str) -> list:
    """Grid axes from a comma list of name:min:max:count specs."""
    axes = []
    for spec in text.split(","):
        spec = spec.strip()
        if not spec:
            continue
        parts = spec.split(":")
        if len(parts) != 4:
            raise ConfigError(f"grid axis {spec!r} is not name:min:max:count")
        axes.append(GridAxis(parts[0], float(parts[1]), float(parts[2]), int(parts[3])))
    return axes


# one parser per RunConfig field: its keys are the known keys
_PARSERS = {
    "kind": str.lower,
    "dim": int,
    "B": _matrix,
    "mass_freq": float,
    "radius": float,
    "field": float,
    "grid": _grid,
    "time": parse_complex,
    "path": lambda text: tuple(parse_complex(w) for w in text.split(",") if w.strip()),
    "suite": str.strip,
    "seed": int,
    "jobs": int,
    "out": str,
}


def parse_config_text(text: str, command: Optional[str] = None) -> RunConfig:
    """The config of a file's text for ``command`` (see ``_config_from_pairs``)."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        pairs[key] = value
    return _config_from_pairs(pairs, command)


# the keys a command does not read: verify runs its own charts, samples and
# times, so a geometry, grid or time key given to it would have no effect
_UNREAD = {
    "verify": ("kind", "dim", "B", "mass_freq", "radius", "field", "grid", "time", "path"),
}


def _config_from_pairs(pairs: dict, command: Optional[str] = None) -> RunConfig:
    """The config of the key = value pairs, MAGTUBE_* variables overriding
    them, each value parsed by its key's parser and the result checked; a
    key that ``command`` does not read (``_UNREAD``) is rejected."""
    pairs = dict(pairs)
    for key in _PARSERS:
        env = os.environ.get(ENV_PREFIX + key.upper())
        if env is not None:
            pairs[key] = env.strip()
    try:
        cfg = RunConfig(**{key: parse(pairs[key]) for key, parse in _PARSERS.items()
                           if key in pairs})
    except (ValueError, TypeError) as exc:  # a ConfigError is a ValueError
        raise ConfigError(str(exc)) from exc
    check_run_keys(cfg)
    unread = [key for key in _UNREAD.get(command, ()) if key in pairs]
    if unread:
        raise ConfigError(f"{command} does not read {unread}: it runs its own charts, "
                          "samples and times")
    unread = [key for key in pairs if key in _GEOMETRY_KEYS and key not in _KINDS[cfg.kind][0]]
    if unread:
        raise ConfigError(f"kind {cfg.kind} does not read {unread}")
    return cfg


def check_run_keys(cfg: RunConfig) -> RunConfig:
    """Every range rule of the config: an unknown kind, a dimension below
    one, a grid axis named twice or with a count below one, a suite no
    command runs, a negative seed and a worker count below one are
    rejected; the CLI calls this again after its flags override the
    config."""
    if cfg.kind not in _KINDS:
        raise ConfigError(f"unknown geometry kind {cfg.kind!r}; choose from {list(_KINDS)} "
                          "(custom geometries are built in Python, not via config)")
    if cfg.dim < 1:
        raise ConfigError(f"dim must be at least 1, got {cfg.dim}")
    names = [axis.name for axis in cfg.grid]
    for axis in cfg.grid:
        if axis.count < 1:
            raise ConfigError(f"grid axis {axis.name} needs count >= 1, got {axis.count}")
        if names.count(axis.name) > 1:
            raise ConfigError(f"grid names axis {axis.name} more than once")
    if cfg.suite not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {cfg.jobs}")
    return cfg


def load_config(path: Optional[str], command: Optional[str] = None) -> RunConfig:
    """The config of the file at ``path`` (none: the defaults) and the
    MAGTUBE_* variables, for ``command`` (see ``_config_from_pairs``)."""
    if path is None:
        return _config_from_pairs({}, command)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read(), command)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


# each config kind: the geometry keys it reads and the chart it builds; a
# custom chart is built in Python
_KINDS = {
    "flat": (("dim", "B", "mass_freq"), lambda cfg: make_flat_magnetic(
        cfg.dim, np.zeros((cfg.dim, cfg.dim)) if cfg.B is None else cfg.B, cfg.mass_freq)),
    "sphere": (("dim", "radius", "field"),
               lambda cfg: make_sphere_magnetic(cfg.radius, cfg.field)),
}
_GEOMETRY_KEYS = {key for keys, _ in _KINDS.values() for key in keys}


def build_geometry(cfg: RunConfig) -> ChartedGeometry:
    try:
        geo = _KINDS[cfg.kind][1](cfg)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if geo.dim != cfg.dim:
        raise ConfigError(f"kind {cfg.kind} is {geo.dim}-dimensional, got dim = {cfg.dim}")
    return geo


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
