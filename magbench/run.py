#!/usr/bin/env python3
"""magtube benchmark: the verify battery and seeded CLI grids, end to end and
layer by layer.

    python3 magbench/run.py --workload verify|grid-flow|grid-tube \
        --seed N --seconds S --trace 0|1

Run from the repository root.  magtube is imported from ./src; nothing is
installed.  With ``--trace 0`` the run repeats the workload's unit until
``--seconds`` of timed work have passed and reports the end-to-end metrics.
With ``--trace 1`` it runs one unit untraced and one traced, and reports the
per-layer metrics.  Every output is checked by the oracle gate outside the
timed section.  The last line of stdout is the JSON result; a run record
with the machine and library versions goes to magbench/out/runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
ROW_RATES = {
    "cli.flow_rows_per_s.flat": ("flow.flat",),
    "cli.flow_rows_per_s.sphere": ("flow.sphere",),
    "cli.frame_rows_per_s": ("frame.flat", "frame.sphere"),
    "cli.potential_rows_per_s": ("potential.flat", "potential.sphere"),
    "cli.acs_rows_per_s": ("acs.flat", "acs.sphere"),
}


def fail(msg: str):
    print(f"magbench: {msg}", file=sys.stderr)
    raise SystemExit(2)


def import_magtube():
    if not os.path.isfile(os.path.join(SRC, "magtube", "__init__.py")):
        fail(f"no magtube sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import magtube

    if not os.path.abspath(magtube.__file__).startswith(SRC + os.sep):
        fail(f"imported magtube from {magtube.__file__}, not from {SRC}")


class Runner:
    """One workload's unit of work, its timing and its output gate."""

    def __init__(self, workload, seed, workdir):
        from magtube import cli
        import workloads

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tasks = workloads.grid_tasks(workload, seed)
        self.config_paths = {}
        for task in self.tasks:
            path = os.path.join(workdir, f"{task.label}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(task.config_text(seed))
            self.config_paths[task.label] = path
        self.first = None  # outputs and failure reasons of the first unit

    @property
    def ops_per_unit(self) -> int:
        if self.workload == "verify":
            return self.verify_checks
        return sum(len(task.points()) for task in self.tasks)

    def parts(self):
        """(label, argv, output path) for each CLI call of one unit."""
        if self.workload == "verify":
            out = os.path.join(self.workdir, "verify.json")
            return [("verify", ["verify", "--suite", "all", "--seed", str(self.seed),
                                "--out", out], out)]
        parts = []
        for task in self.tasks:
            out = os.path.join(self.workdir, f"{task.label}.csv")
            argv = [task.command, "--config", self.config_paths[task.label],
                    "--out", out, "--jobs", "1"]
            parts.append((task.label, argv, out))
        return parts

    def unit(self, tracer=None):
        """Run one unit; returns (seconds per part, exit codes, outputs)."""
        times, codes, outputs = {}, {}, {}
        for label, argv, out in self.parts():
            t0 = time.perf_counter()
            if tracer is None:
                codes[label] = self.cli.main(argv)
            else:
                with tracer.span(f"cli.{argv[0]}"):
                    codes[label] = self.cli.main(argv)
            times[label] = time.perf_counter() - t0
            try:
                with open(out, encoding="utf-8") as fh:
                    outputs[label] = fh.read()
            except FileNotFoundError:
                outputs[label] = ""
        return times, codes, outputs

    def check(self, codes, outputs):
        """Failure reasons, one per op of the unit (empty string: passed)."""
        import gate

        if self.workload == "verify":
            try:
                report = json.loads(outputs["verify"])
            except json.JSONDecodeError:
                report = {"passed": False, "suites": [{"suite": "all", "checks": [
                    {"name": "no_report", "passed": False}]}]}
            reasons = gate.gate_verify(report)
            self.verify_checks = len(reasons)
            if codes["verify"] != (0 if report["passed"] else 1):
                reasons = [r or "exit_code" for r in reasons]
            comparable = _strip_runtime(report)
        else:
            reasons = []
            for task in self.tasks:
                m = len(task.points())
                text = outputs[task.label]
                if len(text.splitlines()) - 1 != m:
                    rows = ["row_count"] * m
                else:
                    rows = gate.GATES[task.command](text, task.points(), task.chart, task.params)
                if codes[task.label] != 0:
                    rows = [r or "exit_code" for r in rows]
                reasons += [f"{task.label}:{r}" if r else "" for r in rows]
            comparable = outputs
        if self.first is None:
            self.first = (comparable, reasons)
            return reasons
        # a repeat of the same inputs must reproduce the first unit exactly
        first_outputs, first_reasons = self.first
        return [why if same else "not_reproducible"
                for same, why in zip(_same_ops(first_outputs, comparable), first_reasons)]


def _strip_runtime(report):
    return [(s["suite"], c) for s in report["suites"] for c in s["checks"]]


def _same_ops(first, again):
    if isinstance(first, list):
        return [a == b for a, b in zip(first, again)]
    same = []
    for label, text in first.items():
        a, b = text.splitlines()[1:], again[label].splitlines()[1:]
        same += [x == y for x, y in zip(a, b)]
    return same


class SetupProbes:
    """Set-up time of fresh interpreters: from process start until magtube
    is imported, the config loaded and the geometry built.

    Machine load drifts over seconds, so the SETUP_REPEATS probes are spread
    evenly over the run's timed work instead of taken back to back.
    """

    def __init__(self, config_path, seconds):
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"), SRC,
                     config_path or ""]
        self.due = [k * seconds / (SETUP_REPEATS - 1) for k in range(SETUP_REPEATS)]
        self.samples = []

    def take_due(self, elapsed=None):
        """Take every probe due by ``elapsed`` seconds of timed work (all
        remaining ones when None)."""
        while len(self.samples) < len(self.due) and (
                elapsed is None or self.due[len(self.samples)] <= elapsed):
            self.samples.append(self._probe())

    def _probe(self) -> float:
        t0 = time.perf_counter()
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            fail("setup probe failed")
        return elapsed


def fastest(units):
    """Per CLI call, the fastest repeat; summed over the calls of a unit."""
    return sum(min(t[label] for t in units) for label in units[0])


def part_stats(units):
    out = {}
    for label in units[0]:
        xs = sorted(t[label] for t in units)
        out[label] = {"n": len(xs), "min": xs[0], "median": statistics.median(xs),
                      "max": xs[-1]}
    return out


def run_record(args, extra):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas = {}
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "magtube")):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        **extra,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("verify", "grid-flow", "grid-tube"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # one BLAS thread, like the single CLI job; config comes only from files
    for key in BLAS_ENV:
        os.environ.setdefault(key, "1")
    for key in [k for k in os.environ if k.startswith("MAGTUBE_")]:
        del os.environ[key]
    import_magtube()
    import spans

    os.makedirs(os.path.join(OUT, "runs"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        first_cfg = next(iter(runner.config_paths.values()), None)
        failures, units = [], []

        def run_unit(tracer=None):
            times, codes, outputs = runner.unit(tracer)
            failures.extend(runner.check(codes, outputs))
            units.append(times)
            return times

        def timed_so_far():
            return sum(sum(t.values()) for t in units)

        if args.trace == 0:
            probes = SetupProbes(first_cfg, args.seconds)
            probes.take_due(0.0)
            while timed_so_far() < args.seconds:
                run_unit()
                probes.take_due(timed_so_far())
            probes.take_due()
            metrics = {
                "setup_s": statistics.median(probes.samples),
                "wall_s": fastest(units),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units_meta = {"parts": part_stats(units), "setup_samples": probes.samples}
            out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
        else:
            # alternate untraced and traced units; layer numbers come from the
            # fastest traced unit, the overhead from the fastest of each kind
            plain, traced, best = [], [], None
            while timed_so_far() < args.seconds:
                plain.append(run_unit())
                tracer = spans.Tracer()
                with spans.instrument(tracer):
                    traced.append(run_unit(tracer))
                if best is None or sum(traced[-1].values()) < sum(best[1].values()):
                    best = (tracer, traced[-1])
            tracer, best_times = best
            metrics = spans.layer_metrics(tracer)
            metrics["trace.overhead_s"] = fastest(traced) - fastest(plain)
            metrics["trace.untraced_s"] = sum(best_times.values()) - sum(
                sp.duration for sp in spans.outer_spans(tracer.spans, "cli"))
            metrics["cli.rows"] = 0 if args.workload == "verify" else runner.ops_per_unit
            rows = {task.label: len(task.points()) for task in runner.tasks}
            for name, labels in ROW_RATES.items():
                secs = sum(min(t[label] for t in plain) for label in labels if label in rows)
                metrics[name] = sum(rows.get(label, 0) for label in labels) / secs if secs else 0.0
            missing = set(spans.PER_LAYER) ^ set(metrics)
            if missing:
                fail(f"per-layer metrics out of step with spans.PER_LAYER: {sorted(missing)}")
            units_meta = {"parts": part_stats(plain), "traced_parts": part_stats(traced)}
            out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in spans.PER_LAYER.items()}

        failed = sum(1 for r in failures if r)
        result = {
            "correct": failed == 0,
            "attempted": runner.ops_per_unit * len(units),
            "failed": failed,
            "metrics": out_metrics,
        }
        reasons = sorted({r for r in failures if r})
        record = run_record(args, {"ops_total": runner.ops_per_unit, **units_meta,
                                   "failure_reasons": reasons[:50], "result": result})
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
        with open(os.path.join(OUT, "runs", name), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, m in out_metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    if reasons:
        print("failed ops: " + ", ".join(reasons[:10]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
