import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys

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


def test_engine_commands_leave_scipy_and_the_pool_unloaded(tmp_path):
    # a serial grid command imports neither the oracles' scipy nor the process
    # pool; verify and the lazy package attributes still load them on demand
    src = os.path.dirname(os.path.dirname(os.path.abspath(magtube.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", BOUNDARY_PROBE, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["[]", "ok"]
