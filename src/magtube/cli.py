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

Exit codes: 0 all good / checks pass, 1 check failure, 2 configuration error.
Config keys can be overridden through MAGTUBE_* environment variables.
"""

from __future__ import annotations

import argparse
import json
import sys

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
from .geometry import PhasePoint
from .kahler import (
    dbar_residual_many,
    kde_residual_many,
)
from .structure import (
    LagrangianFrame,
    assemble_J,
    frames_at_many,
    integrability_residual_many,
    positivity_matrix,
    transversality_check,
)

__all__ = ["main", "build_parser"]


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _csv_rows(columns, ok, reasons):
    """CSV rows from whole arrays.

    ``columns`` are arrays with the row axis first, written side by side
    in row-major order, a complex one as (Re, Im) pairs; every value is
    formatted as ``_fmt`` does, and each row ends with its status and
    reason (empty for an ok row).  The values are formatted from Python
    floats, one ``tolist`` call per row, which is faster than formatting
    numpy scalars and gives the same text.
    """
    m = len(ok)
    blocks = [np.asarray(c).reshape(m, -1) for c in columns]
    blocks = [np.ascontiguousarray(b).view(float) if np.iscomplexobj(b) else b for b in blocks]
    values = np.concatenate(blocks, axis=1).astype(float, copy=False)
    return [[f"{v:.17g}" for v in row.tolist()] + (["ok", ""] if good else ["failed", why or ""])
            for row, good, why in zip(values, ok, reasons)]


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    text = "\n".join(lines) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load(args) -> RunConfig:
    cfg = load_config(args.config)
    if getattr(args, "out", None):
        cfg.out = args.out
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "jobs", None) is not None:
        cfg.jobs = args.jobs
    if getattr(args, "suite", None):
        cfg.suite = args.suite
    return check_run_keys(cfg)


def _time_of(cfg: RunConfig):
    if cfg.time.imag == 0.0 and not cfg.path:
        return cfg.time.real
    return ComplexTime(cfg.time, cfg.path)


def _complex_time_of(cfg: RunConfig, command: str) -> ComplexTime:
    t = _time_of(cfg)
    if isinstance(t, float):
        raise ConfigError(f"{command} requires a complex time (Im t != 0)")
    return t


def _chunks(m: int, jobs: int):
    jobs = max(1, min(jobs, m)) if m else 1
    bounds = np.linspace(0, m, jobs + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]) if b > a]


def _flow_chunk(raw_cfg: dict, lo: int, hi: int, task: str):
    """Worker entry: rebuild the geometry from the raw config and process a
    contiguous slice of the grid (deterministic for a fixed config)."""
    from .config import _config_from_pairs

    cfg = _config_from_pairs(dict(raw_cfg))
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)[lo:hi]
    t = _time_of(cfg)
    if task == "flow":
        return _rows_flow(geo, Z, t)
    if task == "frame":
        return _rows_frame(geo, Z, t)
    if task == "potential":
        return _rows_potential(geo, Z)
    raise ValueError(task)


def _map_rows(cfg: RunConfig, m: int, task: str):
    spans = _chunks(m, cfg.jobs)
    if cfg.jobs <= 1 or len(spans) <= 1:
        out = []
        for lo, hi in spans:
            out.extend(_flow_chunk(cfg.raw, lo, hi, task))
        return out
    # imported here: the pool module pulls in multiprocessing, which serial
    # runs never need
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(spans)) as pool:
        futs = [pool.submit(_flow_chunk, cfg.raw, lo, hi, task) for lo, hi in spans]
        out = []
        for f in futs:
            out.extend(f.result())
    return out


# ---------------------------------------------------------------------------
# row builders
# ---------------------------------------------------------------------------

def _flow_header(n: int):
    cols = []
    for j in range(n):
        cols += [f"x{j+1}_re", f"x{j+1}_im"]
    for j in range(n):
        cols += [f"p{j+1}_re", f"p{j+1}_im"]
    cols += ["q_re", "q_im"]
    for a in range(2 * n):
        for b in range(2 * n):
            cols += [f"jac{a}{b}_re", f"jac{a}{b}_im"]
    cols += ["status", "reason"]
    return cols


def _rows_flow(geo, Z, t):
    res = flow_many(geo, Z, t)
    return _csv_rows([res.x, res.p, res.quad, res.jac], res.ok, res.reasons)


def _frame_header(n: int):
    cols = [f"x{j+1}" for j in range(n)] + [f"p{j+1}" for j in range(n)]
    for a in range(2 * n):
        for b in range(n):
            cols += [f"F{a}{b}_re", f"F{a}{b}_im"]
    cols += ["transversality", "inverse_residual", "status", "reason"]
    return cols


def _rows_frame(geo, Z, t):
    F, ok, reasons, inv_res = frames_at_many(geo, Z, t)
    smin = np.full(len(Z), np.nan)
    smin[ok] = transversality_check(F[ok])
    inv_res[~ok] = np.nan
    return _csv_rows([np.real(Z), F, smin, inv_res], ok, reasons)


def _rows_potential(geo, Z):
    F, okf, reasons_f, _ = frames_at_many(geo, Z, 1j)
    fm, okm, reasons, dbar = dbar_residual_many(geo, Z, F.conj())
    ok = okm & okf
    kde = np.full(Z.shape[0], np.nan)
    if ok.any():
        kde[ok] = kde_residual_many(geo, Z[ok], 0.3)
    f_re, f_im, kappa2 = (np.where(ok, v, np.nan) for v in (fm.real, fm.imag, (2j * fm).real))
    return _csv_rows([np.real(Z), f_re, f_im, kappa2, kde, dbar, np.exp(-kappa2 / 2.0)], ok,
                     [r or rf for r, rf in zip(reasons, reasons_f)])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_flow(args) -> int:
    cfg = _load(args)
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    rows = _map_rows(cfg, Z.shape[0], "flow")
    _write_csv(cfg.out, _flow_header(geo.dim), rows)
    return 0


def cmd_frame(args) -> int:
    cfg = _load(args)
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    rows = _map_rows(cfg, Z.shape[0], "frame")
    _write_csv(cfg.out, _frame_header(geo.dim), rows)
    return 0


def cmd_acs(args) -> int:
    cfg = _load(args)
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    t = _complex_time_of(cfg, "acs")
    n = geo.dim
    F, ok, reasons, integ = integrability_residual_many(geo, Z, t)
    header = [f"x{j+1}" for j in range(n)] + [f"p{j+1}" for j in range(n)]
    header += ["transversality", "min_positivity_eig", "integrability_residual"]
    header += [f"J{a}{b}" for a in range(2 * n) for b in range(2 * n)]
    header += ["status", "reason"]
    vals = np.full((Z.shape[0], 3 + 4 * n * n), np.nan)
    for i in np.flatnonzero(ok):
        z = PhasePoint(Z[i, :n].real, Z[i, n:].real)
        acs = assemble_J(LagrangianFrame(base=z, time=complex(cfg.time), F=F[i]), geo)
        vals[i, :3] = acs.transversality, acs.positivity_spectrum.min(), integ[i]
        vals[i, 3:] = acs.J.reshape(-1)
    _write_csv(cfg.out, header, _csv_rows([np.real(Z), vals], ok, reasons))
    return 0


def cmd_potential(args) -> int:
    cfg = _load(args)
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    n = geo.dim
    header = [f"x{j+1}" for j in range(n)] + [f"p{j+1}" for j in range(n)]
    header += ["f_minus_i_re", "f_minus_i_im", "kappa2", "kde_residual",
               "dbar_residual", "weight_modulus", "status", "reason"]
    rows = _map_rows(cfg, Z.shape[0], "potential")
    _write_csv(cfg.out, header, rows)
    return 0


def _parse_monomial(expr: str, n: int):
    """Products of powers of base coordinates: 'x1', 'x1^2', 'x1*x2'."""
    expr = expr.replace(" ", "")
    factors = []
    for part in expr.split("*"):
        if "^" in part:
            name, power = part.split("^", 1)
            k = int(power)
        else:
            name, k = part, 1
        if not name.startswith("x"):
            raise ConfigError(f"extend only supports base-coordinate monomials, got {part!r}")
        idx = int(name[1:]) - 1
        if not 0 <= idx < n:
            raise ConfigError(f"coordinate {name} out of range for dim {n}")
        factors.append((idx, k))

    def f(xc):
        out = np.ones(xc.shape[:-1], dtype=complex)
        for idx, k in factors:
            out = out * xc[..., idx] ** k
        return out

    return f


def cmd_extend(args) -> int:
    cfg = _load(args)
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    f = _parse_monomial(args.function, geo.dim)
    t = _complex_time_of(cfg, "extend")
    res = flow_many(geo, Z, t, tangent=False)
    vals = f(res.x)
    n = geo.dim
    header = [f"x{j+1}" for j in range(n)] + [f"p{j+1}" for j in range(n)]
    header += ["extension_re", "extension_im", "status", "reason"]
    ext = np.where(res.ok[:, None], np.stack([vals.real, vals.imag], axis=1), np.nan)
    _write_csv(cfg.out, header, _csv_rows([np.real(Z), ext], res.ok, res.reasons))
    return 0


def cmd_verify(args) -> int:
    cfg = _load(args)
    # the suites and their scipy oracles load only for this command
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
        radii = np.linspace(max(1e-3, p_axes[0].lo), p_axes[0].hi, p_axes[0].count)
    else:
        radii = np.linspace(0.1, 1.0, 8)
    bases = np.unique(grid_points(cfg, geo)[:, :n], axis=0)
    t = _complex_time_of(cfg, "sweep")
    ndir = 16
    header = ["p_shell", "n_points", "success_fraction", "min_transversality",
              "min_positivity_eig"]
    rows = []
    for rho in radii:
        dirs = rng.normal(size=(ndir, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        Z = np.concatenate([np.repeat(bases, ndir, axis=0),
                            np.tile(rho * dirs, (len(bases), 1))], axis=1)
        F, ok, reasons, _ = frames_at_many(geo, Z, t)
        frac = float(ok.mean())
        min_trans = np.min(transversality_check(F[ok]), initial=np.inf)
        M = positivity_matrix(geo, Z[ok, :n], F[ok])
        min_pos = np.min(np.linalg.eigvalsh(M), initial=np.inf)
        rows.append([_fmt(float(rho)), str(len(Z)), _fmt(frac),
                     _fmt(min_trans if np.isfinite(min_trans) else float("nan")),
                     _fmt(min_pos if np.isfinite(min_pos) else float("nan"))])
    _write_csv(cfg.out, header, rows)
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
                       help="worker processes (at least 1); only flow, frame and "
                            "potential use more than one")

    p = sub.add_parser("flow", help="flow the configured grid")
    common(p)
    p.set_defaults(func=cmd_flow)

    p = sub.add_parser("frame", help="transported frames on the grid")
    common(p)
    p.set_defaults(func=cmd_frame)

    p = sub.add_parser("acs", help="almost complex structure data on the grid")
    common(p)
    p.set_defaults(func=cmd_acs)

    p = sub.add_parser("potential", help="Kaehler potential data on the grid")
    common(p)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("extend", help="holomorphic extension of a base monomial")
    common(p)
    p.add_argument("--f", dest="function", default="x1",
                   help="monomial in base coordinates, e.g. x1, x1^2, x1*x2")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="run a verification suite")
    common(p)
    p.add_argument("--suite", default=None, choices=SUITE_NAMES,
                   help="suite name (default from config, else 'all')")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="per-|p| shell tube exploration")
    common(p)
    p.set_defaults(func=cmd_sweep)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
