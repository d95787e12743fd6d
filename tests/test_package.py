import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import magtube

MODULES = sorted(m.name for m in pkgutil.iter_modules(magtube.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    # every exported name exists, so a star-import of the module works
    mod = importlib.import_module(f"magtube.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing
    exec(f"from magtube.{name} import *", {})


def test_no_integrator_options_in_the_api():
    # the integrator's tolerances and the validity region are not options:
    # no exported function takes ``opts`` or ``real_mode``, and the time disk
    # has one radius
    exported = {f"magtube.{attr}": getattr(magtube, attr)
                for attr in dir(magtube) if not attr.startswith("_")}
    for name in MODULES:
        mod = importlib.import_module(f"magtube.{name}")
        exported.update({f"magtube.{name}.{attr}": getattr(mod, attr)
                         for attr in getattr(mod, "__all__", ())})
    for label, fn in exported.items():
        if inspect.isfunction(fn) or dataclasses.is_dataclass(fn):
            params = inspect.signature(fn).parameters
            assert not {"opts", "real_mode", "disk_radius"} & set(params), label
    assert not hasattr(magtube, "FlowOpts")
    assert list(inspect.signature(magtube.flow_many).parameters) == ["geo", "Z0", "t", "tangent"]


BOUNDARY_PROBE = """
import os, sys
import magtube.cli as cli

d = sys.argv[1]
cfg = os.path.join(d, "c.cfg")
with open(cfg, "w") as fh:
    fh.write("kind = flat\\nB = 0 1; -1 0\\ngrid = x1:-0.3:0.3:2, p1:0.2:0.6:2\\n")
assert cli.main(["frame", "--config", cfg, "--jobs", "1", "--out", os.path.join(d, "f.csv")]) == 0
print(sorted(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules))

import magtube
from magtube import oracles, run_suite
assert oracles is magtube.oracles and oracles.__name__ == "magtube.oracles"
assert run_suite is magtube.run_suite
assert cli.main(["verify", "--suite", "geometry", "--out", os.path.join(d, "v.json")]) == 0
assert run_suite is sys.modules["magtube.suites"].run_suite
try:
    magtube.no_such_name
except AttributeError:
    print("ok")
"""


def _run_probe(code, *args):
    src = os.path.dirname(os.path.dirname(os.path.abspath(magtube.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, *map(str, args)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_engine_commands_leave_scipy_and_the_pool_unloaded(tmp_path):
    # a serial grid command imports neither scipy nor the process pool;
    # verify and the lazy package attributes still load the suites on demand
    assert _run_probe(BOUNDARY_PROBE, tmp_path) == ["[]", "ok"]


VERIFY_PROBE = """
import sys
import magtube.cli as cli

assert cli.main(["verify", "--suite", "all", "--seed", "1234", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_verify_runs_without_scipy(tmp_path):
    # the oracles' matrix exponential is their own, so every suite runs and
    # passes with numpy alone
    assert _run_probe(VERIFY_PROBE, tmp_path / "v.json") == ["[]"]


def _third_party_imports(root: Path) -> set:
    """The top-level packages that the modules under ``root`` import by
    absolute imports, less the standard library."""
    names = set()
    for path in root.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names)


def test_runtime_dependencies_are_the_imported_packages():
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower().replace("-", "_")
                for dep in deps}
    imported = _third_party_imports(root / "src" / "magtube")
    assert "numpy" in imported and declared == imported


def _readme_example() -> dict:
    """The namespace of the README's library-surface example, the one python
    block under its heading, run as written."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_readme_library_example_runs():
    # the example runs, and its last row fails in every batch without a
    # raise or a warning
    namespace = _readme_example()
    acs = namespace["acs"]
    for ok in (namespace["res"].ok, namespace["ok"], acs.ok):
        assert list(ok) == [True, True, False]
    assert np.isnan(acs.J[2]).all() and np.isfinite(acs.J[:2]).all()
    for name in ("inv_res", "integ", "kde", "dbar"):
        assert np.isnan(namespace[name][2]) and np.isfinite(namespace[name][:2]).all(), name


def _assert_failed_rows_nan(values, ok, label):
    """An ok row's values are finite; a failed row's are NaN, in both parts
    where they are complex."""
    v = np.asarray(values).reshape(len(ok), -1)
    ok = np.asarray(ok)
    assert np.isfinite(v[ok]).all(), label
    for part in (v.real, v.imag) if np.iscomplexobj(v) else (v,):
        assert np.isnan(part[~ok]).all(), label


def test_readme_rows_keep_the_failed_row_rule():
    # every batched operation gives the README rows' failed row (the last,
    # which leaves the sphere's complex region at t = i) NaN in both parts of
    # every value and its ok rows finite values, with no warning; the flow
    # reversal runs at a real time, where a fast real row that leaves the
    # chart box fails instead
    namespace = _readme_example()
    geo, Z = namespace["geo"], namespace["Z"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for tangent in (True, False):
            res = magtube.flow_many(geo, Z, 1j, tangent=tangent)
            assert list(res.ok) == [True, True, False] and res.reasons[2] == "BLOWUP"
            for name in ("x", "p", "quad") + (("jac", "det") if tangent else ()):
                _assert_failed_rows_nan(getattr(res, name), res.ok, (name, tangent))
        f, ok, _ = magtube.potential_f_many(geo, Z, -1j)
        _assert_failed_rows_nan(f, ok, "potential_f_many")
        F, ok, _, inv_res = magtube.frames_at_many(geo, Z, 1j)
        for label, values in (("frame", F), ("inverse_residual", inv_res)):
            _assert_failed_rows_nan(values, ok, label)
        ext, ok, _ = magtube.holomorphic_extension(geo, lambda x: x[:, 0] ** 2, Z)
        _assert_failed_rows_nan(ext, ok, "holomorphic_extension")
        for label, (vals, ok, _, residual) in (
                ("kde", magtube.kde_residual_many(geo, Z, 0.2)),
                ("dbar", magtube.dbar_residual_many(geo, Z, F.conj())),
                ("integrability", magtube.integrability_residual_many(geo, Z, 1j))):
            assert not ok[2], label
            _assert_failed_rows_nan(vals, ok, label)
            _assert_failed_rows_nan(residual, ok, label)
        for t, check in ((1j, magtube.check_frame_intertwine),
                         (0.3 + 0.8j, magtube.check_shifted_frame_intertwine)):
            ok = magtube.frames_at_many(geo, Z, t)[1]
            assert not ok[2]
            _assert_failed_rows_nan(check(geo, Z, t), ok, check.__name__)
        Zr = np.concatenate([Z, [[0.0, 0.0, 40.0, 0.0]]])
        ok = magtube.flow_many(geo, Zr, -0.3, tangent=False).ok
        assert list(ok) == [True, True, True, False]
        _assert_failed_rows_nan(magtube.check_flow_reversal(geo, Zr, 0.3), ok, "reversal")


def _unused_imports(path: Path) -> list:
    """Names a module imports and never uses.  A use is a name read anywhere
    in the module, an ``__all__`` entry, or, in an ``__init__``, the import
    itself (a re-export); ``from __future__`` imports are directives."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    if path.name == "__init__.py":
        return []
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_no_unused_imports():
    root = Path(__file__).resolve().parents[1]
    paths = sorted((root / "src" / "magtube").glob("*.py")) + sorted((root / "tests").glob("*.py"))
    assert [bad for path in paths for bad in _unused_imports(path)] == []
