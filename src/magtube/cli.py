"""Command-line front end: grid sweeps, verification suites, CSV/JSON output.

Subcommands
-----------
flow       flow the configured grid to the configured time; one CSV row per
           grid point (Re/Im of x, p, q, then the row-major tangent map,
           then status/reason)
frame      transported-frame entries and transversality per grid point
acs        almost-complex-structure data per grid point (base coords,
           transversality, min positivity eigenvalue, integrability
           residual, J row-major)
potential  f_{-i}, kappa2, identity residuals and the section-weight modulus
extend     holomorphic extension of a monomial in the base coordinates
verify     run a verification suite, emit a JSON report, exit 0 iff it passes
sweep      per-|p|-shell continuation success fraction and structure margins

The first five are the grid commands, rows of ``GRID_COMMANDS``: each names
its row builder, its columns and its time rule, and ``cmd_grid`` runs them
all one way (config, geometry, grid and time once, then rows, then CSV).
``--jobs N`` splits a grid command's rows into min(N, rows) chunks, run by a
pool of at most one worker per CPU; verify and sweep run in one process.
flow and frame take any time; acs, extend and sweep need Im t != 0;
potential computes at t = i only, with no path.

Exit codes: 0 all good / checks pass, 1 check failure, 2 configuration error.
Config keys can be overridden through MAGTUBE_* environment variables; verify
rejects the geometry, grid and time keys, which it does not read.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import replace
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    SUITE_NAMES,
    ConfigError,
    RunConfig,
    build_geometry,
    check_run_keys,
    grid_points,
    load_config,
)
from .flow import ComplexTime, flow_many
from .kahler import (
    dbar_residual_many,
    holomorphic_extension,
    kde_residual_many,
)
from .structure import (
    assemble_J,
    frames_at_many,
    integrability_residual_many,
    transversality_check,
)

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv_rows(columns, ok, reasons):
    """CSV lines from whole arrays.

    ``columns`` are arrays with the row axis first, written side by side
    in row-major order, a complex one as (Re, Im) pairs; every value is
    formatted as ``_fmt`` does, and each line ends with its status and
    reason (empty for an ok row).  A line is one ``%`` format of the row's
    Python floats (one ``tolist`` call per row), which is faster than
    formatting value by value and gives the same text.
    """
    m = len(ok)
    blocks = [np.asarray(c).reshape(m, -1) for c in columns]
    blocks = [np.ascontiguousarray(b).view(float) if np.iscomplexobj(b) else b for b in blocks]
    values = np.concatenate(blocks, axis=1).astype(float, copy=False)
    fmt = ",".join(["%.17g"] * values.shape[1])
    return [fmt % tuple(row.tolist()) + (",ok," if good else ",failed," + (why or ""))
            for row, good, why in zip(values, ok, reasons)]


def _write_csv(path, header, lines):
    text = "\n".join([",".join(header)] + lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args) -> RunConfig:
    """The command's config with the flags that are given (an empty one is
    not)."""
    cfg = load_config(args.config, args.command)
    for key in ("out", "seed", "jobs", "suite"):
        if getattr(args, key, None) not in (None, ""):
            setattr(cfg, key, getattr(args, key))
    return check_run_keys(cfg)


def _chunks(m: int, jobs: int):
    """Contiguous row slices [lo, hi), min(jobs, m) of them and none empty
    (the grid has m >= 1 rows and jobs >= 1)."""
    bounds = np.linspace(0, m, min(jobs, m) + 1).astype(int).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _cpus() -> int:
    """The CPUs this process may run on, else the machine's count."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


# ---------------------------------------------------------------------------
# time rules: (cfg, command) -> ComplexTime, checked on cfg.time and cfg.path
# before any flow (``grid_points`` has already checked the path itself)
# ---------------------------------------------------------------------------

def _any_time(cfg: RunConfig, command: str) -> ComplexTime:
    return ComplexTime(cfg.time, cfg.path)


def _complex_time(cfg: RunConfig, command: str) -> ComplexTime:
    if cfg.time.imag == 0.0:
        raise ConfigError(f"{command} requires a complex time (Im t != 0), got {cfg.time}")
    return ComplexTime(cfg.time, cfg.path)


def _time_i(cfg: RunConfig, command: str) -> ComplexTime:
    if cfg.time != 1j or cfg.path:
        raise ConfigError(f"{command} computes f_{{-i}} at t = i only: set time = i and no path")
    return ComplexTime(1j)


# ---------------------------------------------------------------------------
# row builders: (geo, Z, t[, monomial]) -> CSV lines, and their columns
# ---------------------------------------------------------------------------

def _base(n: int):
    return [f"x{j+1}" for j in range(n)] + [f"p{j+1}" for j in range(n)]


def _re_im(names):
    return [f"{name}_{part}" for name in names for part in ("re", "im")]


def _rows_flow(geo, Z, t):
    res = flow_many(geo, Z, t)
    return _csv_rows([res.x, res.p, res.quad, res.jac], res.ok, res.reasons)


def _rows_frame(geo, Z, t):
    F, ok, reasons, inv_res = frames_at_many(geo, Z, t)
    return _csv_rows([np.real(Z), F, transversality_check(F), inv_res], ok, reasons)


def _merge(ok, reasons, rows, stage_ok, stage_reasons):
    """Fail the rows (indices into ``ok``) that a later stage fails first, with its reason."""
    for i, good, why in zip(rows, stage_ok, stage_reasons):
        if ok[i] and not good:
            ok[i], reasons[i] = False, why


def _rows_acs(geo, Z, t):
    # a frame-failed row has a NaN frame, which assemble_J fails; a row whose
    # frame is not transversal to its conjugate fails and keeps its transversality
    n = geo.dim
    F, ok, reasons, integ = integrability_residual_many(geo, Z, t)
    acs = assemble_J(geo, Z[:, :n].real, F)
    _merge(ok, reasons, range(len(Z)), acs.ok, acs.reasons)
    return _csv_rows([np.real(Z), acs.transversality, acs.positivity_spectrum.min(axis=-1),
                      np.where(ok, integ, np.nan), acs.J], ok, reasons)


def _rows_potential(geo, Z, t):
    # dbar runs on the frame-ok rows, kde on the dbar-ok rows; a row keeps the
    # reason of the first stage it fails and nan columns
    F, ok, reasons, _ = frames_at_many(geo, Z, t)
    fm = np.full(len(Z), complex(np.nan, np.nan))
    dbar, kde = np.full(len(Z), np.nan), np.full(len(Z), np.nan)
    rows = np.flatnonzero(ok)
    fm[rows], okm, why, dbar[rows] = dbar_residual_many(geo, Z[rows], F[rows].conj())
    _merge(ok, reasons, rows, okm, why)
    rows = np.flatnonzero(ok)
    _, okm, why, kde[rows] = kde_residual_many(geo, Z[rows], 0.3)
    _merge(ok, reasons, rows, okm, why)
    f_re, f_im, kappa2 = (np.where(ok, v, np.nan) for v in (fm.real, fm.imag, (2j * fm).real))
    return _csv_rows([np.real(Z), f_re, f_im, kappa2, kde, dbar, np.exp(-kappa2 / 2.0)], ok,
                     reasons)


def _rows_extend(geo, Z, t, monomial):
    values, ok, reasons = holomorphic_extension(geo, monomial, Z, t)
    return _csv_rows([np.real(Z), values], ok, reasons)


_FACTOR = re.compile(r"x([0-9]+)(?:\^([0-9]+))?")


def _parse_monomial(expr: str, n: int):
    """Products of powers of base coordinates, 'x1', 'x1^2', 'x1*x2': each
    factor is x<k> or x<k>^<power> with 1 <= k <= n and an integer power of
    at least 1."""
    factors = []
    for part in expr.replace(" ", "").split("*"):
        match = _FACTOR.fullmatch(part)
        k, power = (int(match[1]), int(match[2] or 1)) if match else (0, 0)
        if not (1 <= k <= n and power >= 1):
            raise ConfigError(f"--f factor {part!r} is not x<k> or x<k>^<power> "
                              f"with 1 <= k <= {n} and power >= 1")
        factors.append((k - 1, power))

    def f(xc):
        out = np.ones(xc.shape[:-1], dtype=complex)
        for idx, k in factors:
            out = out * xc[..., idx] ** k
        return out

    return f


class GridCommand(NamedTuple):
    """A grid command: one CSV row per grid point, ``columns(n)`` then status
    and reason."""

    help: str
    rows: Callable  # (geo, Z, t[, monomial]) -> CSV lines
    columns: Callable  # n -> column names
    time: Callable  # time rule
    monomial: bool = False  # takes --f, parsed into the builder's last argument


GRID_COMMANDS = {
    "flow": GridCommand(
        "flow the configured grid", _rows_flow,
        lambda n: _re_im(_base(n) + ["q"] + [f"jac{a}{b}" for a in range(2 * n)
                                              for b in range(2 * n)]),
        _any_time),
    "frame": GridCommand(
        "transported frames on the grid", _rows_frame,
        lambda n: _base(n) + _re_im(f"F{a}{b}" for a in range(2 * n) for b in range(n))
        + ["transversality", "inverse_residual"],
        _any_time),
    "acs": GridCommand(
        "almost complex structure data on the grid", _rows_acs,
        lambda n: _base(n) + ["transversality", "min_positivity_eig", "integrability_residual"]
        + [f"J{a}{b}" for a in range(2 * n) for b in range(2 * n)],
        _complex_time),
    "potential": GridCommand(
        "Kaehler potential data on the grid", _rows_potential,
        lambda n: _base(n) + ["f_minus_i_re", "f_minus_i_im", "kappa2", "kde_residual",
                              "dbar_residual", "weight_modulus"],
        _time_i),
    "extend": GridCommand(
        "holomorphic extension of a base monomial", _rows_extend,
        lambda n: _base(n) + ["extension_re", "extension_im"],
        _complex_time, monomial=True),
}


def _grid_inputs(cfg: RunConfig, command: str, function):
    """The geometry, the grid rows and the builder's arguments after them:
    the time its rule gives and, for a monomial command, the parsed --f."""
    spec = GRID_COMMANDS[command]
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    extra = (spec.time(cfg, command),)
    if spec.monomial:
        extra += (_parse_monomial(function, geo.dim),)
    return geo, Z, extra


def _grid_chunk(cfg: RunConfig, command: str, lo: int, hi: int, function):
    """Worker entry: build the inputs from the parsed config and the rows of
    the grid slice [lo, hi) (deterministic for a fixed config)."""
    geo, Z, extra = _grid_inputs(cfg, command, function)
    return GRID_COMMANDS[command].rows(geo, Z[lo:hi], *extra)


def cmd_grid(args) -> int:
    """Run a grid command: one config, geometry, grid and time per run; with
    more than one chunk each worker builds them from the parsed config."""
    cfg = _load(args)
    spec = GRID_COMMANDS[args.command]
    function = getattr(args, "function", None)
    geo, Z, extra = _grid_inputs(cfg, args.command, function)
    spans = _chunks(len(Z), cfg.jobs)
    if len(spans) == 1:
        rows = spec.rows(geo, Z, *extra)
    else:
        # imported here: the pool module pulls in multiprocessing, which
        # serial runs never need
        from concurrent.futures import ProcessPoolExecutor

        # the chunks, and so the CSV, follow --jobs; the workers are capped
        # at the CPUs, as a pool may start all of them at its first submit
        with ProcessPoolExecutor(max_workers=min(len(spans), _cpus())) as pool:
            futs = [pool.submit(_grid_chunk, cfg, args.command, lo, hi, function)
                    for lo, hi in spans]
            rows = [row for fut in futs for row in fut.result()]
    _write_csv(cfg.out, spec.columns(geo.dim) + ["status", "reason"], rows)
    return 0


def cmd_verify(args) -> int:
    cfg = _load(args)
    # the suites and their oracles load only for this command
    from .suites import run_suite

    report = run_suite(cfg.suite, cfg.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if cfg.out and cfg.out != "-":
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if report["passed"] else 1


def cmd_sweep(args) -> int:
    """Empirical tube exploration: continuation success and structure margins
    per |p| shell, from the distinct base points of the grid."""
    cfg = _load(args)
    geo = build_geometry(cfg)
    rng = np.random.default_rng(cfg.seed)
    n = geo.dim
    p_axes = [ax for ax in cfg.grid if ax.name.startswith("p")]
    if p_axes:
        # the first p axis's grid values, from a low end of at least 1e-3
        radii = replace(p_axes[0], lo=max(1e-3, p_axes[0].lo)).values()
    else:
        radii = np.linspace(0.1, 1.0, 8)
    bases = np.unique(grid_points(cfg, geo)[:, :n], axis=0)
    t = _complex_time(cfg, "sweep")
    ndir = 16
    header = ["p_shell", "n_points", "success_fraction", "min_transversality",
              "min_positivity_eig"]
    shells = []
    for rho in radii:
        dirs = rng.normal(size=(ndir, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        shells.append(np.concatenate([np.repeat(bases, ndir, axis=0),
                                      np.tile(rho * dirs, (len(bases), 1))], axis=1))
    # one frame flow over every shell; the margins are those of assemble_J,
    # minimised over the rows that have them: a shell with none reports nan
    Z = np.concatenate(shells)
    F, ok, _, _ = frames_at_many(geo, Z, t)
    acs = assemble_J(geo, Z[:, :n], F)
    per_shell = (len(radii), len(bases) * ndir)
    columns = [ok.reshape(per_shell).mean(axis=1)] + [
        np.fmin.reduce(v.reshape(per_shell), axis=1)
        for v in (acs.transversality, acs.positivity_spectrum.min(axis=-1))]
    lines = [",".join([_fmt(float(rho)), str(per_shell[1])] + [_fmt(v) for v in values])
             for rho, *values in zip(radii, *columns)]
    _write_csv(cfg.out, header, lines)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magtube",
        description="magnetic adapted complex structures on cotangent tubes",
    )
    ap.add_argument("--debug", action="store_true",
                    help="re-raise errors with the full traceback")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="path to key=value config file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=None, help="random seed override")
        p.add_argument("--jobs", type=int, default=None,
                       help="row chunks (at least 1); the grid commands split their rows "
                            "into this many, run by at most one worker per CPU; verify "
                            "and sweep run in one process")

    for name, spec in GRID_COMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        common(p)
        if spec.monomial:
            p.add_argument("--f", dest="function", default="x1",
                           help="monomial in base coordinates: factors x<k> or x<k>^<power> "
                                "joined by *, e.g. x1, x1^2, x1*x2")
        p.set_defaults(func=cmd_grid)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default=None, choices=SUITE_NAMES,
                   help="suite name (default from config, else 'all')")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="per-|p| shell tube exploration")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process, built by the first ``main`` call (not
    at import, which would slow every start-up)."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        if args.debug:
            raise
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # check/runtime failure
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
