"""Self-tests of the benchmark code (not part of the repository's test suite).

    python3 -m pytest magbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from magtube import cli, config  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_on_nested_spans():
    # root [0, 10] > a [1, 4] (0.5 s of leaf calls) and b [5, 9] > c [6, 7]
    tracer = spans.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    with tracer.span("cli.x"):
        with tracer.span("flow"):
            tracer.leaf("flat.beta", 0.5)
        with tracer.span("structure.frame_at"):
            with tracer.span("structure.orthonormalize"):
                pass
    own = spans.self_times(tracer.spans)
    assert own["cli"] == pytest.approx(3.0)
    assert own["flow"] == pytest.approx(2.5)
    assert own["structure"] == pytest.approx(4.0)
    assert sum(own.values()) + sum(tracer.seconds.values()) == pytest.approx(10.0)
    assert [sp.name for sp in spans.outer_spans(tracer.spans, "structure")] == [
        "structure.frame_at"]


def _task(command, chart, counts):
    rng = np.random.default_rng(0)
    xw, pw = workloads.TUBE_RANGE[chart]
    axes = [(name, float(-w * rng.uniform(0.85, 1)), float(w * rng.uniform(0.85, 1)), c)
            for name, w, c in zip(("x1", "x2", "p1", "p2"), (xw, xw, pw, pw), counts)]
    return workloads.GridTask(command, chart, axes)


def _run_cli(task, tmp_path):
    cfg = tmp_path / "in.cfg"
    out = tmp_path / "out.csv"
    cfg.write_text(task.config_text(1))
    assert cli.main([task.command, "--config", str(cfg), "--out", str(out), "--jobs", "1"]) == 0
    return out.read_text()


def _perturb(text, row, column, delta):
    lines = text.split("\n")
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    i = header.index(column)
    cells[i] = repr(float(cells[i]) + delta)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("command, chart, column, delta", [
    ("flow", "flat", "x1_re", 1e-6),
    ("flow", "flat", "jac02_im", 1e-6),
    ("flow", "sphere", "p2_im", 1e-6),
    ("frame", "flat", "F20_re", 1e-6),
    ("frame", "sphere", "inverse_residual", 1e-6),
    ("potential", "flat", "f_minus_i_im", 1e-6),
    ("acs", "sphere", "J01", 1e-6),
])
def test_gate_flags_a_perturbed_row(command, chart, column, delta, tmp_path):
    task = _task(command, chart, (1, 1, 2, 1) if command in ("potential", "acs") else (1, 2, 2, 1))
    text = _run_cli(task, tmp_path)
    check = gate.GATES[command]
    assert check(text, task.points(), chart, task.params) == [""] * len(task.points())
    flagged = check(_perturb(text, 1, column, delta), task.points(), chart, task.params)
    assert [bool(r) for r in flagged] == [False, True] + [False] * (len(flagged) - 2)


def test_new_seed_moves_inputs_not_op_counts():
    for workload in ("grid-flow", "grid-tube"):
        a, b = workloads.grid_tasks(workload, 1), workloads.grid_tasks(workload, 2)
        assert [t.label for t in a] == [t.label for t in b]
        for ta, tb in zip(a, b):
            assert ta.points().shape == tb.points().shape
            assert not np.allclose(ta.points(), tb.points())
        assert sum(len(t.points()) for t in a) == sum(len(t.points()) for t in b)


def test_grid_points_match_the_cli(tmp_path):
    for task in workloads.grid_tasks("grid-tube", 3) + workloads.grid_tasks("grid-flow", 3):
        path = tmp_path / f"{task.label}.cfg"
        path.write_text(task.config_text(3))
        cfg = config.load_config(str(path))
        Z = config.grid_points(cfg, config.build_geometry(cfg))
        assert np.array_equal(Z, task.points())


def test_instrument_fails_loudly_and_restores(monkeypatch):
    from magtube import structure

    original = structure.frames_at_many
    with spans.instrument(spans.Tracer()):
        assert structure.frames_at_many is not original
    assert structure.frames_at_many is original
    monkeypatch.delattr(structure, "frames_at_many")
    with pytest.raises(RuntimeError, match="frames_at_many"):
        with spans.instrument(spans.Tracer()):
            pass


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)


def test_layer_self_times_account_for_the_traced_wall(tmp_path):
    runner = run.Runner("grid-tube", 5, str(tmp_path))
    runner.tasks = [t for t in runner.tasks if t.command == "potential"]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        times, codes, outputs = runner.unit(tracer)
    assert set(codes.values()) == {0}
    assert runner.check(codes, outputs) == [""] * runner.ops_per_unit
    m = spans.layer_metrics(tracer)
    accounted = sum(m[k] for k in (
        "cli.self_s", "config.s", "flow.self_s", "geometry.eval_s", "structure.self_s",
        "kahler.self_s", "intertwine.self_s", "oracles.s", "suites.self_s"))
    cli_spans = sum(sp.duration for sp in spans.outer_spans(tracer.spans, "cli"))
    assert accounted == pytest.approx(cli_spans, rel=1e-9)
    assert 0 <= sum(times.values()) - cli_spans < 1e-3
    assert m["kahler.stencil_rows"] > 0 and m["structure.frames"] > 0
