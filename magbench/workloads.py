"""Seeded inputs for the workloads: one config file per (command, chart).

Grids are cartesian products over (x1, x2, p1, p2), as the CLI builds them.
The seed draws each axis end inside the ranges the suites sample for the same
chart, so a new seed moves the points but keeps every count.
"""

from __future__ import annotations

import dataclasses

import numpy as np

CHART_PARAMS = {
    "flat": {"B": 1.0, "mass_freq": 1.0},
    "sphere": {"radius": 1.0, "field": 1.0},
}

# per chart: half-widths (x, p) and counts (x1, x2, p1, p2)
# grid-flow uses the flow-oracle sample ranges of the suites (flat x 1, p 2;
# sphere u 0.1, |p| up to 2); grid-tube uses the narrower kahler/integrability
# ranges (flat x 0.6, p 1; sphere u 0.12, p 0.35).
FLOW_RANGE = {"flat": (1.0, 2.0), "sphere": (0.1, 1.4)}
TUBE_RANGE = {"flat": (0.6, 1.0), "sphere": (0.12, 0.35)}
WORKLOADS = {
    "verify": [],
    "grid-flow": [("flow", chart, FLOW_RANGE[chart], (4, 4, 5, 5)) for chart in ("flat", "sphere")],
    "grid-tube": [
        (cmd, chart, TUBE_RANGE[chart], counts)
        for cmd, counts in (("frame", (2, 2, 2, 2)), ("potential", (1, 1, 2, 2)),
                            ("acs", (1, 1, 2, 1)))
        for chart in ("flat", "sphere")
    ],
}
ENDS = (0.85, 1.0)  # each axis end is U(ENDS) times the nominal half-width


@dataclasses.dataclass
class GridTask:
    command: str
    chart: str
    axes: list  # (name, lo, hi, count)

    @property
    def label(self) -> str:
        return f"{self.command}.{self.chart}"

    @property
    def params(self) -> dict:
        return CHART_PARAMS[self.chart]

    def points(self) -> np.ndarray:
        """The (m, 4) input rows, in the CLI's row-major order."""
        values = [np.array([0.5 * (lo + hi)]) if c == 1 else np.linspace(lo, hi, c)
                  for _, lo, hi, c in self.axes]
        mesh = np.meshgrid(*values, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    def config_text(self, seed: int) -> str:
        lines = [f"kind = {self.chart}", "dim = 2"]
        if self.chart == "flat":
            B = self.params["B"]
            lines += [f"B = 0 {B!r}; {-B!r} 0", f"mass_freq = {self.params['mass_freq']!r}"]
        else:
            lines += [f"radius = {self.params['radius']!r}", f"field = {self.params['field']!r}"]
        grid = ", ".join(f"{name}:{lo!r}:{hi!r}:{c}" for name, lo, hi, c in self.axes)
        lines += [f"grid = {grid}", "time = i", f"seed = {seed}", "jobs = 1"]
        return "\n".join(lines) + "\n"


def grid_tasks(workload: str, seed: int) -> list:
    rng = np.random.default_rng([seed, 7])
    tasks = []
    for command, chart, (xw, pw), counts in WORKLOADS[workload]:
        axes = []
        for name, width, count in zip(("x1", "x2", "p1", "p2"), (xw, xw, pw, pw), counts):
            lo, hi = rng.uniform(*ENDS, size=2) * width
            axes.append((name, float(-lo), float(hi), count))
        tasks.append(GridTask(command, chart, axes))
    return tasks
