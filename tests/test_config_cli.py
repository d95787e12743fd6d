import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import tiny_validity_geometry
from magtube import cli, config, flow, suites
from magtube import oracles as orc
from magtube.cli import main
from magtube.config import (
    ConfigError,
    build_geometry,
    grid_points,
    load_config,
    parse_complex,
    parse_config_text,
)
from magtube.geometry import make_sphere_magnetic
from magtube.structure import assemble_J, frames_at_many


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [
        ("0.3+0.8i", 0.3 + 0.8j),
        ("-i", -1j),
        ("i", 1j),
        ("1.2", 1.2 + 0j),
        ("2j", 2j),
        ("-0.5+0.6i", -0.5 + 0.6j),
        (" 1 + 1i ", 1 + 1j),
    ],
)
def test_parse_complex(text, value):
    assert parse_complex(text) == value


@pytest.mark.parametrize("bad", ["", "abc", "1+2k", "i+i+i+"])
def test_parse_complex_rejects(bad):
    with pytest.raises(ConfigError):
        parse_complex(bad)


FLAT_CFG = """
# flat configuration
kind = flat
dim = 2
B = 0 1; -1 0
mass_freq = 1.0
grid = x1:-0.3:0.3:2, p1:-0.5:0.5:2
time = i
seed = 7
"""


def test_parse_config_text():
    cfg = parse_config_text(FLAT_CFG)
    assert cfg.kind == "flat"
    assert np.allclose(cfg.B, [[0, 1], [-1, 0]])
    assert cfg.time == 1j
    assert cfg.seed == 7
    assert [ax.name for ax in cfg.grid] == ["x1", "p1"]
    assert cfg.grid[0].count == 2


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("kind = flat\nwhatever = 3\n")


def test_parse_config_rejects_bad_grid():
    with pytest.raises(ConfigError):
        parse_config_text("grid = x1:0:1\n")


def test_env_override(monkeypatch):
    monkeypatch.setenv("MAGTUBE_SEED", "99")
    cfg = parse_config_text(FLAT_CFG)
    assert cfg.seed == 99


def test_suite_names_match_registry():
    assert config.SUITE_NAMES == list(suites.suite_functions()) + ["all"]


def test_bad_suite_is_config_error_on_every_command(tmp_path, monkeypatch):
    with pytest.raises(ConfigError):
        parse_config_text("suite = bogus\n")
    cfg = _write(tmp_path, "c.cfg", FLAT_CFG + "suite = bogus\n")
    assert main(["flow", "--config", cfg]) == 2
    assert main(["verify", "--config", cfg]) == 2
    monkeypatch.setenv("MAGTUBE_SUITE", "bogus")
    assert main(["frame", "--config", _write(tmp_path, "d.cfg", FLAT_CFG)]) == 2


@pytest.mark.parametrize("key, value", [pytest.param("jobs", "0", id="0"),
                                        pytest.param("jobs", "-3", id="-3"),
                                        pytest.param("seed", "-1", id="seed-1")])
def test_jobs_below_one_is_config_error(tmp_path, monkeypatch, key, value):
    # and a negative seed: from a file, MAGTUBE_* or a flag, on every command
    with pytest.raises(ConfigError):
        parse_config_text(f"{key} = {value}\n")
    bad = _write(tmp_path, "bad.cfg", FLAT_CFG + f"{key} = {value}\n")
    assert main(["flow", "--config", bad]) == 2
    good = _write(tmp_path, "good.cfg", FLAT_CFG)
    for command in ("flow", "acs", "verify", "sweep"):
        assert main([command, "--config", good, f"--{key}", value]) == 2
    monkeypatch.setenv(f"MAGTUBE_{key.upper()}", value)
    assert main(["potential", "--config", good]) == 2


@pytest.mark.parametrize("command", ["flow", "frame", "potential", "acs", "extend", "sweep"])
def test_grid_count_below_one_and_dim_zero_are_config_errors(tmp_path, capsys, command):
    # an empty or negative axis is rejected before any array is built, as is
    # a chart of dimension zero
    for bad, msg in (("grid = x1:-0.3:0.3:2, p1:0.2:0.6:0\n", "count >= 1, got 0"),
                     ("grid = x1:-0.3:0.3:-1, p1:0.2:0.6:2\n", "count >= 1, got -1"),
                     ("dim = 0\ngrid = x1:-0.3:0.3:2\n", "dim must be at least 1")):
        with pytest.raises(ConfigError, match=msg):
            parse_config_text(bad)
        cfg = _write(tmp_path, "c.cfg", "kind = flat\ntime = i\n" + bad)
        out = tmp_path / "out.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert msg in capsys.readouterr().err and not out.exists()


def test_parser_table_declares_every_config_field():
    # one parser per RunConfig field, in field order: the known keys
    assert list(config._PARSERS) == [f.name for f in dataclasses.fields(config.RunConfig)]


def test_build_geometry_kinds(tmp_path):
    flat = build_geometry(parse_config_text("kind = flat\nB = 0 1; -1 0\n"))
    assert flat.dim == 2
    sph = build_geometry(parse_config_text("kind = sphere\nradius = 2\nfield = 0.5\n"))
    assert sph.chart_box == 6.0
    for kind in ("custom", "nope"):
        with pytest.raises(ConfigError, match="unknown geometry kind"):
            build_geometry(parse_config_text(f"kind = {kind}\n"))
        cfg = _write(tmp_path, "c.cfg", f"kind = {kind}\ngrid = p1:0.2:0.6:2\n")
        assert main(["flow", "--config", cfg]) == 2
    # a bad chart parameter is a configuration error too
    bad_radius = _write(tmp_path, "r.cfg", "kind = sphere\nradius = -1\n")
    assert main(["flow", "--config", bad_radius]) == 2


@pytest.mark.parametrize("text", [
    pytest.param("kind = sphere\nmass_freq = 7\n", id="sphere-mass_freq"),
    pytest.param("kind = sphere\nB = 0 1; -1 0\n", id="sphere-B"),
    pytest.param("kind = sphere\ndim = 3\n", id="sphere-dim-3"),
    pytest.param("kind = flat\nradius = 2\n", id="flat-radius"),
    pytest.param("field = 1\n", id="default-flat-field")])
def test_a_key_the_kind_does_not_read_is_a_config_error(tmp_path, capsys, text):
    cfg = _write(tmp_path, "c.cfg", text + "grid = p1:0.2:0.6:2\ntime = i\n")
    assert main(["flow", "--config", cfg]) == 2
    assert "configuration error: kind" in capsys.readouterr().err


def test_a_config_written_like_the_benchmarks_runs(tmp_path, monkeypatch):
    # its geometry keys: dim on both kinds, B and mass_freq on the plane,
    # radius and field on the sphere
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "magbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_magbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for task in workloads.grid_tasks("grid-tube", 3)[:2]:
        cfg = _write(tmp_path, f"{task.chart}.cfg", task.config_text(3))
        assert main(["flow", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


def test_a_grid_axis_named_twice_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "kind = flat\ngrid = p1:0.2:0.6:2, p1:1:2:2\ntime = i\n")
    for command in ("flow", "frame", "acs", "potential", "extend", "sweep", "verify"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "grid names axis p1 more than once" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_environment_values_are_stripped(tmp_path, monkeypatch):
    # as file values are: a padded MAGTUBE_KIND names the kind
    monkeypatch.setenv("MAGTUBE_KIND", " sphere ")
    monkeypatch.setenv("MAGTUBE_TIME", " i\n")
    assert parse_config_text("radius = 2\n").kind == "sphere"
    cfg = _write(tmp_path, "c.cfg", "grid = p1:0.2:0.6:2\n")
    assert main(["flow", "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0


def test_grid_points_order_and_validation():
    cfg = parse_config_text("kind = flat\ngrid = x1:-1:1:2, p2:0:1:3\n")
    geo = build_geometry(cfg)
    Z = grid_points(cfg, geo)
    assert Z.shape == (6, 4)
    # row-major: x1 slowest, p2 fastest; omitted axes pinned at zero
    assert np.allclose(Z[:, 0], [-1, -1, -1, 1, 1, 1])
    assert np.allclose(Z[:, 3], [0, 0.5, 1, 0, 0.5, 1])
    assert np.allclose(Z[:, 1], 0) and np.allclose(Z[:, 2], 0)

    bad = parse_config_text("kind = sphere\ngrid = x1:-5:5:3\n")
    with pytest.raises(ConfigError):
        grid_points(bad, build_geometry(bad))
    far = parse_config_text("kind = flat\ngrid = x1:0:0.1:2\ntime = 2i\n")
    with pytest.raises(ConfigError):
        grid_points(far, build_geometry(far))


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


# ---------------------------------------------------------------------------
# CLI commands
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_cmd_flow_identity_rows(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.3:0.3:2, p1:-0.5:0.5:2\ntime = 0\n",
    )
    out = str(tmp_path / "flow.csv")
    assert main(["flow", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    assert len(data) == 4
    i_x1 = header.index("x1_re")
    i_q = header.index("q_re")
    i_j = header.index("jac00_re")
    i_status = header.index("status")
    for row in data:
        assert row[i_status] == "ok"
        assert float(row[i_q]) == 0.0
        assert float(row[i_j]) == 1.0
    assert {float(r[i_x1]) for r in data} == {-0.3, 0.3}


def test_cmd_flow_matches_complex_coordinates(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.2:0.2:2, p2:-0.4:0.4:2\ntime = i\n",
    )
    out = str(tmp_path / "flow.csv")
    assert main(["flow", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    iz = [header.index(k) for k in ("x1_re", "x1_im", "x2_re", "x2_im")]
    from magtube.config import parse_config_text

    c = parse_config_text(open(cfg).read())
    Z = grid_points(c, build_geometry(c))
    zc = orc.flat_complex_coordinates(1.0, 1.0, Z)
    for row, ref in zip(data, zc):
        got = complex(float(row[iz[0]]), float(row[iz[1]]))
        assert abs(got - ref[0]) < 1e-8
        got2 = complex(float(row[iz[2]]), float(row[iz[3]]))
        assert abs(got2 - ref[1]) < 1e-8


def test_cmd_flow_flags_chart_exit(tmp_path):
    # momenta large enough that the real trajectory leaves the sphere chart
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = sphere\nradius = 1\nfield = 1\ngrid = p1:3.0:9.0:3\ntime = 0.9\n",
    )
    out = str(tmp_path / "flow.csv")
    assert main(["flow", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    reasons = [r[header.index("reason")] for r in data]
    assert "CHART_EXIT" in reasons


def test_cmd_extend(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.2:0.2:2, p1:-0.4:0.4:2\ntime = i\n",
    )
    c = parse_config_text(open(cfg).read())
    Z = grid_points(c, build_geometry(c))
    zc = orc.flat_complex_coordinates(1.0, 1.0, Z)
    out = str(tmp_path / "ext.csv")
    for function, want in (("x1^2", zc[:, 0] ** 2), ("x1 * x2^2", zc[:, 0] * zc[:, 1] ** 2)):
        assert main(["extend", "--config", cfg, "--f", function, "--out", out]) == 0
        rows = [line.split(",") for line in open(out).read().strip().splitlines()]
        header, data = rows[0], rows[1:]
        ire, iim = header.index("extension_re"), header.index("extension_im")
        for row, ref in zip(data, want):
            assert abs(complex(float(row[ire]), float(row[iim])) - ref) < 1e-8


def test_cmd_potential_columns(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.2:0.2:2, p1:-0.4:0.4:2\n",
    )
    out = str(tmp_path / "pot.csv")
    assert main(["potential", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    for col in ("f_minus_i_re", "f_minus_i_im", "kappa2", "kde_residual",
                "dbar_residual", "weight_modulus"):
        assert col in header
    ik, iw = header.index("kappa2"), header.index("weight_modulus")
    for row in data:
        kappa2, w = float(row[ik]), float(row[iw])
        assert w == pytest.approx(np.exp(-kappa2 / 2), rel=1e-10)
        assert float(row[header.index("kde_residual")]) < 1e-6


def test_cmd_potential_row_at_the_tube_edge(tmp_path, monkeypatch):
    # the -i flow of the last sphere row stays inside the tube (edge at p1 ~
    # 2.35597), and so do the rings of radius 1e-3 along its directions
    cfg = _write(tmp_path, "c.cfg",
                 "kind = sphere\nradius = 1\nfield = 1\ngrid = p1:2.3:2.35595:3\ntime = i\n")
    out = str(tmp_path / "pot.csv")
    assert main(["potential", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    assert [r[header.index("status")] for r in data] == ["ok"] * 3
    for column in ("kde_residual", "dbar_residual"):
        assert all(float(r[header.index(column)]) < 1e-10 for r in data)  # nan fails
    # under a momentum cap of 100 the last flat row's flows stay below it,
    # but nodes of its dbar ring do not: that row fails BLOWUP with nan
    # columns, the command still succeeds
    monkeypatch.setattr(flow, "P_CAP", 100.0)
    cfg = _write(tmp_path, "f.cfg",
                 "kind = flat\nB = 0 1; -1 0\ngrid = p1:0.5:64.8053:2\ntime = i\n")
    assert main(["potential", "--config", cfg, "--out", out]) == 0
    data = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
    kde = [float(r[header.index("kde_residual")]) for r in data]
    dbar = [float(r[header.index("dbar_residual")]) for r in data]
    assert [r[-2:] for r in data] == [["ok", ""], ["failed", "BLOWUP"]]
    assert kde[0] < 1e-6 and dbar[0] < 1e-10
    assert all(v == "nan" for v in data[1][header.index("f_minus_i_re"):-2])


CHART_CONFIGS = {
    "flat": "kind = flat\nB = 0 1; -1 0\n",
    "sphere": "kind = sphere\nradius = 1\nfield = 1\n",
}


@pytest.mark.parametrize("chart", sorted(CHART_CONFIGS))
@pytest.mark.parametrize("command, budget", [("frame", 1), ("acs", 1), ("potential", 3)])
def test_grid_command_flow_budget(tmp_path, monkeypatch, chart, command, budget):
    # flows per chart: frames from one backward flow; acs from the
    # integrability contour; potential from the frames, the dbar contour
    # (which also gives f_{-i}) and the kde contour over (x, p, sigma)
    original = flow._integrate_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_path", counting)
    cfg = _write(tmp_path, "c.cfg", CHART_CONFIGS[chart]
                 + "grid = x1:-0.1:0.1:2, p1:0.2:0.3:2\ntime = i\n")
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out.csv")]) == 0
    assert len(calls) == budget, calls


def test_potential_contours_skip_frame_failed_rows(tmp_path, monkeypatch):
    # 3 of these 9 sphere rows fail their frame flow (BLOWUP): the dbar
    # contour runs on the other 6 only, 9 rows per point at n = 2, and so
    # does the kde contour, 5 rows per point
    original = flow._integrate_path
    calls = []

    def counting(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    monkeypatch.setattr(flow, "_integrate_path", counting)
    cfg = _write(tmp_path, "c.cfg", CHART_CONFIGS["sphere"]
                 + "grid = x1:-0.2:0.7:3, p2:-0.5:0.5:3\ntime = i\n")
    out = tmp_path / "out.csv"
    assert main(["potential", "--config", cfg, "--out", str(out)]) == 0
    assert calls == [9, 6 * 9, 6 * 5], calls
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[-2:] for row in rows] == [["ok", ""]] * 6 + [["failed", "BLOWUP"]] * 3
    assert all(v == "nan" for row in rows[6:] for v in row[4:-2])


def test_cmd_acs_columns(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.2:0.2:2, p1:0.3:0.6:2\ntime = i\n",
    )
    out = str(tmp_path / "acs.csv")
    assert main(["acs", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    it = header.index("transversality")
    ip = header.index("min_positivity_eig")
    ii = header.index("integrability_residual")
    for row in data:
        assert row[header.index("status")] == "ok"
        assert float(row[it]) > 1e-6
        assert float(row[ip]) > 0
        assert float(row[ii]) < 1e-4
    # J is row-major 4x4: 16 columns present
    assert all(f"J{a}{b}" in header for a in range(4) for b in range(4))


def test_cmd_acs_fails_the_rows_without_a_complex_structure(tmp_path):
    # at t = 2e-6 i the sphere frame at u = 0 is transversal to its
    # conjugate only to 7.1e-7, below the threshold, and at u = 0.5 to 1.1e-6:
    # the first row fails with its transversality, the second gets its J
    cfg = _write(tmp_path, "c.cfg", "kind = sphere\nradius = 1\nfield = 1\n"
                 "grid = x1:0:0.5:2, p1:0.3:0.3:1\ntime = 0.000002i\n")
    out = tmp_path / "acs.csv"
    assert main(["acs", "--config", cfg, "--out", str(out)]) == 0
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    it, iJ = header.index("transversality"), header.index("J00")
    assert rows[0][-2] == "failed" and rows[0][-1].startswith("frame not transversal")
    assert 0 < float(rows[0][it]) < 1e-6
    assert all(v == "nan" for v in rows[0][it + 1:-2])
    assert rows[1][-2:] == ["ok", ""] and float(rows[1][it]) > 1e-6
    geo = make_sphere_magnetic(1.0, 1.0)
    Z = np.array([[0.5, 0.0, 0.3, 0.0]])
    acs = assemble_J(geo, Z[:, :2], frames_at_many(geo, Z, 2e-6j)[0])
    assert [float(v) for v in rows[1][iJ:-2]] == acs.J.ravel().tolist()


@pytest.mark.parametrize("command", ["acs", "potential", "extend"])
def test_grid_where_every_row_fails_writes_failed_rows(tmp_path, command):
    # |p| = 3 on the unit sphere leaves the tube before t = i: the builders
    # that compute their columns on the ok rows only get none
    cfg = _write(tmp_path, "c.cfg", "kind = sphere\nradius = 1\nfield = 1\n"
                 "grid = x1:0.05:0.05:1, p1:2.9:3.0:2\ntime = i\n")
    out = tmp_path / "out.csv"
    argv = [command, "--config", cfg, "--out", str(out)]
    assert main(argv + (["--f", "x1"] if command == "extend" else [])) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 2 and all(row[-2:] == ["failed", "BLOWUP"] for row in rows)
    assert all(v == "nan" for row in rows for v in row[4:-2])


# grids with one failing row: (config, momentum cap, that row, {command: its reason})
FAILING_GRIDS = {
    # |p| = 3 on the unit sphere leaves the complex region before t = +-i
    "blowup": ("kind = sphere\nradius = 1\nfield = 1\ngrid = x1:0.05:0.05:1, p1:0.3:3.0:2\n"
               "time = i\n", None, 1, {"frame": "BLOWUP", "acs": "BLOWUP", "potential": "BLOWUP"}),
    # under a momentum cap of 100 the row flows to +-i, but nodes of the
    # contour rings around it do not
    "ring-node": ("kind = flat\nB = 0 1; -1 0\ngrid = p1:0.5:64.8053:2\ntime = i\n", 100.0, 1,
                  {"flow": "", "frame": "", "acs": "BLOWUP", "potential": "BLOWUP"}),
    # at t = 2e-6 i the sphere frame at u = 0 is not transversal to its
    # conjugate (potential runs at t = i only)
    "not-transversal": ("kind = sphere\nradius = 1\nfield = 1\n"
                        "grid = x1:0:0.5:2, p1:0.3:0.3:1\ntime = 0.000002i\n", None, 0,
                        {"frame": "", "acs": "frame not transversal to its conjugate"}),
}


@pytest.mark.parametrize("case", sorted(FAILING_GRIDS))
def test_an_ok_row_has_finite_columns_and_a_failed_row_a_reason(tmp_path, monkeypatch, case):
    text, cap, row, expected = FAILING_GRIDS[case]
    if cap is not None:
        monkeypatch.setattr(flow, "P_CAP", cap)
    cfg = _write(tmp_path, "c.cfg", text)
    for command in ("flow", "frame", "acs", "potential", "extend"):
        if command == "potential" and "time = i\n" not in text:
            continue
        out = tmp_path / f"{command}.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        for *values, status, reason in rows:
            if status == "ok":
                assert reason == "" and np.isfinite([float(v) for v in values]).all(), command
            else:
                assert status == "failed" and reason, command
        if command in expected:
            assert rows[row][-1].startswith(expected[command]), command
            assert (rows[row][-2] == "ok") == (expected[command] == ""), command


def test_cmd_sweep_flat_success_everywhere(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = p1:0.2:1.5:4\ntime = i\nseed = 11\n",
    )
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    header, data = rows[0], rows[1:]
    assert len(data) == 4
    for row in data:
        assert float(row[header.index("success_fraction")]) == 1.0
        assert float(row[header.index("min_positivity_eig")]) > 0


def test_cmd_sweep_decays_for_tight_geometry(rng):
    # forced failure: a custom chart with a nearby complex singularity loses
    # continuation as |p| grows (exercised through the library API)
    from magtube.flow import flow_many

    geo = tiny_validity_geometry()
    fractions = []
    for rho in (0.1, 1.0, 3.0):
        dirs = rng.normal(size=(8, 2))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        Z = np.concatenate([np.zeros((8, 2)), rho * dirs], axis=1)
        res = flow_many(geo, Z, 1j)
        fractions.append(float(res.ok.mean()))
    assert fractions[0] == 1.0
    assert fractions[-1] < 1.0
    assert all(a >= b for a, b in zip(fractions, fractions[1:]))


def test_cmd_verify_exit_codes(tmp_path):
    out = str(tmp_path / "rep.json")
    assert main(["verify", "--suite", "geometry", "--seed", "5", "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["passed"] is True
    assert rep["suite"] == "geometry"
    assert rep["suites"][0]["checks"]


def test_cmd_verify_unknown_suite_is_config_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus"])
    assert exc.value.code == 2


def test_cmd_verify_suite_from_config(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "suite = sphere-oracle\nseed = 3\n")
    out = str(tmp_path / "rep.json")
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    rep = json.load(open(out))
    assert rep["suite"] == "sphere-oracle"
    assert rep["seed"] == 3


def test_cli_config_error_exit_code(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "kind = flat\ngrid = x1:-100:100:2\n")
    assert main(["flow", "--config", cfg]) == 2
    # sweep has no structure to explore at a real time; it is not replaced by i
    cfg = _write(tmp_path, "r.cfg", "kind = flat\ngrid = p1:0.2:1.5:2\ntime = 0.5\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_bad_path_is_config_error(tmp_path):
    # a waypoint outside the time disk, and a path that misses the target
    for path in ("2, i", "0.5"):
        cfg = _write(tmp_path, "c.cfg",
                     f"kind = flat\ngrid = p1:0.2:1.5:2\ntime = i\npath = {path}\n")
        assert main(["flow", "--config", cfg]) == 2


def test_cmd_sweep_bases_from_x_axes(tmp_path, monkeypatch):
    import magtube.cli as cli

    seen = []
    frames_at_many = cli.frames_at_many

    def recording(geo, Z, t):
        seen.append(Z)
        return frames_at_many(geo, Z, t)

    monkeypatch.setattr(cli, "frames_at_many", recording)
    cfg = _write(tmp_path, "c.cfg",
                 "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.3:0.3:3, p1:0.2:1.5:2\ntime = i\n")
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()]
    assert [row[rows[0].index("n_points")] for row in rows[1:]] == ["48", "48"]
    # one frame flow over both shells, 48 rows each
    assert len(seen) == 1 and len(seen[0]) == 96
    for Z in np.split(seen[0], 2):
        assert np.array_equal(np.unique(Z[:, 0]), [-0.3, 0.0, 0.3])
        assert not Z[:, 1].any()


def test_main_builds_one_parser_and_leaks_no_state(tmp_path, monkeypatch):
    # main parses with one parser built on its first call; a flag given to
    # one call must not reach the next
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    sweep_cfg = _write(tmp_path, "sweep.cfg",
                       "kind = flat\nB = 0 1; -1 0\ngrid = p1:0.2:1.5:2\ntime = i\nseed = 11\n")
    grid_cfg = _write(tmp_path, "grid.cfg",
                      "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.2:0.2:2, p1:-0.4:0.4:2\ntime = i\n")

    def run(*argv):
        out = str(tmp_path / "out.csv")
        assert main(list(argv) + ["--out", out]) == 0
        return open(out).read()

    lone_sweep = run("sweep", "--config", sweep_cfg)
    lone_extend = run("extend", "--config", grid_cfg)
    assert lone_extend == run("extend", "--config", grid_cfg, "--f", "x1")
    assert run("sweep", "--config", sweep_cfg, "--seed", "7") != lone_sweep
    assert run("sweep", "--config", sweep_cfg) == lone_sweep
    assert run("extend", "--config", grid_cfg, "--f", "x1^2") != lone_extend
    assert run("extend", "--config", grid_cfg) == lone_extend
    assert built == [1]
    cli._parser.cache_clear()


def test_cmd_sweep_shell_with_no_success(tmp_path):
    # far outside the sphere's tube every row fails: the margins are nan
    cfg = _write(tmp_path, "c.cfg",
                 "kind = sphere\nradius = 1\nfield = 1\ngrid = p1:6:8:2\ntime = i\n")
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = open(out).read().strip().splitlines()[1:]
    assert [row.split(",")[2:] for row in rows] == [["0", "nan", "nan"]] * 2


def test_tol_is_rejected(tmp_path):
    # no step tolerance is configurable: the key and the flag are both errors
    with pytest.raises(ConfigError):
        parse_config_text("kind = flat\ntol = 1e-8\n")
    cfg = _write(tmp_path, "c.cfg", "suite = geometry\ntol = 1e-8\n")
    assert main(["verify", "--config", cfg]) == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "geometry", "--tol", "1e-8"])
    assert exc.value.code == 2


def test_cmd_sweep_deterministic(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = sphere\nradius = 1\nfield = 1\ngrid = p1:0.1:0.4:3\ntime = i\nseed = 21\n",
    )
    out1, out2 = str(tmp_path / "s1.csv"), str(tmp_path / "s2.csv")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    assert open(out1).read() == open(out2).read()


def _sweep_shells(tmp_path, grid):
    cfg = _write(tmp_path, "c.cfg", f"kind = flat\nB = 0 1; -1 0\ngrid = {grid}\ntime = i\n")
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    return [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]


def test_sweep_shells_are_the_grid_values(tmp_path):
    # a one-point p axis is its midpoint in sweep as in the grid flow uses;
    # an axis of two or more points is linspace from max(1e-3, lo) to hi
    cfg = parse_config_text("kind = flat\ngrid = p1:0.5:1.5:1\n")
    flow_p1 = grid_points(cfg, build_geometry(cfg))[:, 2].tolist()
    assert _sweep_shells(tmp_path, "p1:0.5:1.5:1") == [1.0] == flow_p1
    assert _sweep_shells(tmp_path, "p1:0.2:1.5:4") == np.linspace(0.2, 1.5, 4).tolist()
    assert _sweep_shells(tmp_path, "p1:0:1.5:3") == np.linspace(1e-3, 1.5, 3).tolist()


def test_cmd_flow_parallel_jobs(tmp_path):
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.3:0.3:3, p1:-0.5:0.5:4\ntime = i\n",
    )
    out1, out2 = str(tmp_path / "j1.csv"), str(tmp_path / "j2.csv")
    assert main(["flow", "--config", cfg, "--jobs", "1", "--out", out1]) == 0
    assert main(["flow", "--config", cfg, "--jobs", "2", "--out", out2]) == 0
    r1 = np.array([[float(v) for v in line.split(",")[:-2]]
                   for line in open(out1).read().strip().splitlines()[1:]])
    r2 = np.array([[float(v) for v in line.split(",")[:-2]]
                   for line in open(out2).read().strip().splitlines()[1:]])
    # rows agree to integrator accuracy (chunking changes shared step sizes)
    assert np.abs(r1 - r2).max() < 1e-9


def test_csv_rows_match_per_value_formatting():
    # whole-array lines against per-value formatting of numpy scalars,
    # including -0.0, infinities, a subnormal and a failed row of NaNs
    rng = np.random.default_rng(3)
    real = rng.normal(size=(4, 2)) * 10.0 ** rng.integers(-300, 300, (4, 2))
    real[0] = -0.0, 5e-324
    cplx = rng.normal(size=(4, 2, 2)) + 1j * rng.normal(size=(4, 2, 2))
    cplx[2, 0, 1] = complex(-0.0, np.inf)
    last = np.array([2.0, np.nan, -np.inf, 1 / 3])
    cplx[1] = real[1] = np.nan
    ok, reasons = np.array([True, False, True, True]), [None, "BLOWUP", None, None]
    want = []
    for i in range(4):
        vals = [f"{float(v):.17g}" for v in real[i]]
        for v in cplx[i].reshape(-1):
            vals += [f"{float(v.real):.17g}", f"{float(v.imag):.17g}"]
        vals.append(f"{float(last[i]):.17g}")
        want.append(",".join(vals + (["ok", ""] if ok[i] else ["failed", reasons[i]])))
    got = cli._csv_rows([real, cplx, last], ok, reasons)
    assert got == want
    assert got[0].split(",")[:2] == ["-0", "4.9406564584124654e-324"]
    assert got[1].split(",")[-2:] == ["failed", "BLOWUP"]


GRID_COMMANDS = ["flow", "frame", "acs", "potential", "extend"]


def _record_pools(monkeypatch):
    """Worker counts of the process pools the CLI starts (real pools)."""
    import concurrent.futures

    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return pools


def _inline_pools(monkeypatch):
    """Worker counts of the pools the CLI asks for, and the chunks submitted;
    each chunk runs in this process, so no process starts."""
    import concurrent.futures

    pools, submitted = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            submitted.append(args[2:4])
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return pools, submitted


def test_pool_is_capped_at_the_cpus_and_the_chunks_follow_jobs(tmp_path, monkeypatch):
    # --jobs sets the chunks, and so the CSV; the pool gets at most one
    # worker per CPU the process may use, the machine's count where the
    # platform has no affinity
    cfg = _write(tmp_path, "c.cfg",
                 "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.3:0.3:2, p1:0.2:0.6:4\ntime = i\n")
    chunk_rows = [row for lo, hi in cli._chunks(8, 8)
                  for row in cli._grid_chunk(load_config(cfg), "flow", lo, hi, None)]
    pools, submitted = _inline_pools(monkeypatch)
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    out = tmp_path / "out.csv"
    assert main(["flow", "--config", cfg, "--jobs", "4000", "--out", str(out)]) == 0
    assert pools == [3] and submitted == cli._chunks(8, 8) and len(submitted) == 8
    header = cli.GRID_COMMANDS["flow"].columns(2) + ["status", "reason"]
    assert out.read_text() == "\n".join([",".join(header)] + chunk_rows) + "\n"
    monkeypatch.delattr(cli.os, "sched_getaffinity")
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 5)
    assert main(["flow", "--config", cfg, "--jobs", "4000", "--out", str(out)]) == 0
    assert pools == [3, 5] and out.read_text() == "\n".join([",".join(header)] + chunk_rows) + "\n"


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_cmd_flow_rows_are_the_chunk_rows(tmp_path, monkeypatch, command, jobs):
    # every grid command: one row per grid point, failed rows included, byte
    # for byte the rows of the worker entry on the chunks that --jobs splits
    # the grid into; --jobs 2 starts a 2-worker pool on a machine of any
    # CPU count, --jobs 1 none
    pools = _record_pools(monkeypatch)
    monkeypatch.setattr(cli, "_cpus", lambda: 4)
    cfg = _write(
        tmp_path,
        "c.cfg",
        "kind = sphere\nradius = 1\nfield = 1\ngrid = x1:-0.2:0.7:3, p2:-0.5:0.5:3\ntime = i\n",
    )
    function = "x1^2" if command == "extend" else None
    out = tmp_path / "out.csv"
    argv = [command, "--config", cfg, "--jobs", str(jobs), "--out", str(out)]
    assert main(argv + (["--f", function] if function else [])) == 0
    assert pools == ([2] if jobs == 2 else [])
    parsed = load_config(cfg)
    rows = [row for lo, hi in cli._chunks(9, jobs)
            for row in cli._grid_chunk(parsed, command, lo, hi, function)]
    assert [r.split(",")[-2:] for r in rows].count(["failed", "BLOWUP"]) == 3
    header = cli.GRID_COMMANDS[command].columns(2) + ["status", "reason"]
    assert out.read_text() == "\n".join([",".join(header)] + rows) + "\n"


@pytest.mark.parametrize("command", GRID_COMMANDS)
def test_grid_command_builds_its_inputs_once(tmp_path, monkeypatch, command):
    # at --jobs 1 the config is parsed, and the geometry and grid are built,
    # once per run: the builder gets the runner's own inputs
    counts = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(config, "_config_from_pairs")
    for name in ("build_geometry", "grid_points"):
        counting(cli, name)
    cfg = _write(tmp_path, "c.cfg", CHART_CONFIGS["sphere"]
                 + "grid = x1:-0.1:0.1:2, p1:0.2:0.3:2\ntime = i\n")
    assert main([command, "--config", cfg, "--jobs", "1", "--out", str(tmp_path / "o.csv")]) == 0
    assert counts == {"_config_from_pairs": 1, "build_geometry": 1, "grid_points": 1}


@pytest.mark.parametrize("command", ["acs", "extend", "sweep"])
def test_complex_time_commands_reject_a_real_time_on_a_complex_path(tmp_path, monkeypatch,
                                                                    capsys, command):
    # Im time != 0 whatever the path, checked on the configured time before
    # any flow
    flows = []
    monkeypatch.setattr(flow, "_integrate_path", lambda *args, **kwargs: flows.append(args))
    cfg = _write(tmp_path, "c.cfg", "kind = flat\nB = 0 1; -1 0\ngrid = p1:0.2:0.6:2\n"
                 "time = 1.0\npath = 0.5+0.5i, 1.0\n")
    out = tmp_path / "out.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "requires a complex time" in capsys.readouterr().err
    assert not out.exists() and not flows


@pytest.mark.parametrize("time, path", [("0.3+0.8i", None), ("0.5", None), ("-i", None),
                                        ("i", "0.5+0.2i, i"), ("i", "i")])
def test_potential_needs_time_i_and_no_path(tmp_path, capsys, time, path):
    # potential computes f_{-i} at t = i only: another time, or any path, is
    # a configuration error rather than ignored
    text = f"kind = flat\nB = 0 1; -1 0\ngrid = p1:0.2:0.6:2\ntime = {time}\n"
    cfg = _write(tmp_path, "c.cfg", text + (f"path = {path}\n" if path else ""))
    out = tmp_path / "out.csv"
    assert main(["potential", "--config", cfg, "--out", str(out)]) == 2
    assert "t = i only" in capsys.readouterr().err and not out.exists()


def test_real_time_outside_the_disk_is_a_grid_time(tmp_path):
    # a real time carries no disk constraint on the command line either
    text = "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.3:0.3:2, p1:-0.5:0.5:2\ntime = 2\n"
    cfg = _write(tmp_path, "c.cfg", text)
    out = tmp_path / "flow.csv"
    assert main(["flow", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    got = np.array([[float(v) for v in row[:8:2]] for row in rows])
    c = parse_config_text(text)
    Z = grid_points(c, build_geometry(c))
    assert np.abs(got - orc.flat_flow_oracle(1.0, 1.0, Z, 2.0).real).max() < 1e-11
    assert main(["frame", "--config", cfg, "--out", str(tmp_path / "frame.csv")]) == 0


@pytest.mark.parametrize("function", ["xa", "x1^b", "x", "x1^-1", "y1", "x3", "x0", "x1^0", ""])
def test_extend_rejects_a_malformed_monomial(tmp_path, monkeypatch, capsys, function):
    # only x<k>[^<power>] factors joined by '*', 1 <= k <= dim, power >= 1;
    # rejected before any worker starts
    pools = _record_pools(monkeypatch)
    cfg = _write(tmp_path, "c.cfg", "kind = flat\nB = 0 1; -1 0\ngrid = x1:-0.2:0.2:2, p1:0:0.4:2\n")
    out = tmp_path / "ext.csv"
    assert main(["extend", "--config", cfg, "--jobs", "2", "--f", function, "--out", str(out)]) == 2
    assert "--f factor" in capsys.readouterr().err
    assert not out.exists() and pools == []


@pytest.mark.parametrize("jobs", [1, 2])
def test_cmd_extend_on_the_sphere(tmp_path, jobs):
    # the extension of x1 is the chart coordinate r a1 / (r - a3) of the
    # explicit complex-sphere image a of each ok row; the p1 = 3 rows leave
    # the tube
    cfg = _write(tmp_path, "c.cfg", CHART_CONFIGS["sphere"] + "grid = x1:-0.1:0.1:2, "
                 "x2:-0.05:0.05:2, p1:0.5:3:3, p2:-0.2:0.2:2\ntime = i\n")
    out = tmp_path / "ext.csv"
    assert main(["extend", "--config", cfg, "--jobs", str(jobs), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,p1,p2,extension_re,extension_im,status,reason"
    rows = [line.split(",") for line in lines[1:]]
    Z = np.array([[float(v) for v in row[:4]] for row in rows])
    ext = np.array([complex(float(row[4]), float(row[5])) for row in rows])
    far = Z[:, 2] == 3.0
    assert far.sum() == 8 and all(row[6:] == ["failed", "BLOWUP"] for row, f in zip(rows, far) if f)
    assert np.isnan(ext[far].real).all() and np.isnan(ext[far].imag).all()
    assert all(row[6:] == ["ok", ""] for row, f in zip(rows, far) if not f)
    x, p3 = orc.sphere_chart_to_embedding(Z[~far, :2], Z[~far, 2:], 1.0)
    a = orc.sphere_embedding_map(x, p3, 1.0, 1.0)
    assert np.abs(ext[~far] - a[:, 0] / (1.0 - a[:, 2])).max() < 1e-10


def test_debug_reraises_with_traceback(tmp_path, monkeypatch, capsys):
    bad = _write(tmp_path, "c.cfg", "kind = flat\ngrid = x1:-100:100:2\n")
    with pytest.raises(ConfigError):
        main(["--debug", "flow", "--config", bad])

    def boom(cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr("magtube.cli.build_geometry", boom)
    cfg = _write(tmp_path, "g.cfg", "kind = flat\ngrid = p1:0.2:1.5:2\n")
    capsys.readouterr()
    assert main(["flow", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: boom\n"
    with pytest.raises(RuntimeError, match="boom") as exc:
        main(["--debug", "flow", "--config", cfg])
    assert exc.traceback[-1].name == "boom"
