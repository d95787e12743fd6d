"""Set-up probe: import magtube, load the config, build the geometry, then
print "ready".  run.py times this from process start.

    python3 magbench/setup_probe.py <src dir> [<config file>]
"""

import sys

sys.path.insert(0, sys.argv[1])

from magtube import cli  # noqa: E402  (imports every layer)

cfg = cli.load_config(sys.argv[2] if len(sys.argv) > 2 and sys.argv[2] else None)
cli.grid_points(cfg, cli.build_geometry(cfg))
print("ready", flush=True)
