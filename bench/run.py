"""Benchmark of the laminar CLI on seeded workloads, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload dense-arboricity --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --seconds 40    # every workload, one table

One run of a workload:

1. makes its inputs from ``--seed`` (see ``workloads.py``) and writes them
   under ``bench/out/``;
2. runs passes over the workload's CLI tasks through ``laminar.cli.main``, in
   this process and a single thread, as many as fit in ``--seconds`` (at
   least one), and checks every task's stdout byte for byte against the
   expected output;
3. with ``--trace 0``, measures before each pass ``CHILDREN_PER_PASS`` fresh
   interpreters of two kinds, by their CPU time (user + system): set-up
   children import ``laminar.cli`` and parse the input files, reference
   children import only the standard modules laminar uses;
4. with ``--trace 0`` reports ``wall_s`` (median pass), ``setup_s`` (median
   set-up child) and ``peak_rss_mb``; with ``--trace 1`` alternates untraced
   and traced passes and reports the per-layer metrics of the traced passes
   (median of each) and the tracing overhead.

``wall_s`` and ``setup_s`` are given at a reference machine speed: the
measured median times ``REFERENCE_S`` over the run's median reference child.
The 2-CPU VM the benchmark was written on switches between a fast state and
one 1.35x slower, each lasting up to minutes; in ten-seed sets the raw median
pass time spread by up to 33% (IQR over median), while the reference child,
which runs no laminar code, slows down with the machine.  The raw times are
in the result file.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A task fails when it exits
non-zero, raises, or prints anything but the expected output.  A result file
with the metrics, pass times, failures, Python version, CPU count, git sha
and seed is written under ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

CHILDREN_PER_PASS = 3
SETUP_CODE = """\
import sys
import laminar.cli
from laminar.graph import parse_edge_list
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as handle:
        parse_edge_list(handle.read())
"""
REFERENCE_CODE = "import argparse, dataclasses, fractions, json, random"
# CPU seconds of a reference child on that VM in its fast state.
REFERENCE_S = 0.050

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("arcs_mean"):
        return "arcs"
    if name.endswith("per_node"):
        return "calls/node"
    return "count"


def import_cli():
    """laminar.cli from this checkout's src/, or exit without a result."""
    if not (SRC / "laminar" / "cli.py").is_file():
        sys.exit(f"bench: no laminar sources in {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("laminar.cli")
    if Path(cli.__file__).resolve().parent != SRC / "laminar":
        sys.exit(f"bench: imported laminar from {cli.__file__}, not from {SRC}")
    return cli


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def child_cpu_s(code: str, args: list[str]) -> float:
    """CPU seconds (user + system) of a fresh interpreter running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def run_task(cli, task: workloads.Task, path: str, expected: str) -> tuple[float, str | None]:
    """Run one CLI task; returns its wall time and a problem, or None."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(task.argv(path))
    except (Exception, SystemExit):
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    stdout = out.getvalue()
    if code != 0:
        return elapsed, f"exit code {code}: {err.getvalue().strip()}"
    if stdout != expected:
        return elapsed, "stdout differs from the expected output"
    return elapsed, workloads.independent_check(task, stdout)


class Workload:
    """One workload's tasks and inputs for a seed, ready to run passes."""

    def __init__(self, name: str, seed: int, scale: int = 1, golden: dict | None = None):
        self.tasks = workloads.tasks(name, seed, scale)
        golden = workloads.load_golden() if golden is None else golden
        self.expected = [workloads.expected_stdout(t, golden, scale) for t in self.tasks]
        OUT.mkdir(parents=True, exist_ok=True)
        self.paths: dict[str, str] = {}
        for task in self.tasks:
            graph = task.graph
            if graph.name not in self.paths:
                path = OUT / f"{name}-{seed}-{scale}-{graph.name}.txt"
                path.write_text(graph.edge_list(), encoding="utf-8")
                self.paths[graph.name] = str(path)
        self.failures: list[str] = []
        self.attempted = 0
        self.task_s: list[list[float]] = [[] for _ in self.tasks]

    def run_pass(self, cli) -> float:
        """Run every task once; returns the summed task wall time."""
        gc.collect()
        total = 0.0
        for task, expected, times in zip(self.tasks, self.expected, self.task_s):
            elapsed, problem = run_task(cli, task, self.paths[task.graph.name], expected)
            total += elapsed
            times.append(elapsed)
            self.attempted += 1
            if problem is not None:
                self.failures.append(f"{task.name}: {problem}")
        return total


def run(name: str, seed: int, seconds: float, trace: bool, scale: int = 1) -> dict:
    """One benchmark run of one workload; returns the result record."""
    work = Workload(name, seed, scale)
    inputs = list(work.paths.values())
    cli = import_cli()
    setup: list[float] = []
    reference: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict[str, float]] = []
    tracer = Tracer()
    start = time.perf_counter()
    while True:
        if not trace:
            for _ in range(CHILDREN_PER_PASS):
                setup.append(child_cpu_s(SETUP_CODE, inputs))
                reference.append(child_cpu_s(REFERENCE_CODE, []))
        untraced.append(work.run_pass(cli))
        if trace:
            tracer.reset()
            with tracer:
                traced.append(work.run_pass(cli))
            layers.append(tracer.layer_metrics())
        # Stop before a pass of average length would run past the time limit.
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            break
    if trace:
        # median_low: a count stays a whole number, a time stays one measured.
        metrics = {
            key: statistics.median_low(layer[key] for layer in layers) for key in layers[0]
        }
        traced_wall, untraced_wall = statistics.median(traced), statistics.median(untraced)
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - untraced_wall
        metrics["trace.overhead_ratio"] = (traced_wall - untraced_wall) / untraced_wall
        units = {key: layer_unit(key) for key in metrics}
    else:
        speed = REFERENCE_S / statistics.median(reference)
        metrics = {
            "wall_s": statistics.median(untraced) * speed,
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    return {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "tasks": [
            {
                "name": t.name,
                "argv": t.argv(t.graph.name),
                "n": t.graph.n,
                "m": len(t.graph.base_edges),
                "pass_s": times,
            }
            for t, times in zip(work.tasks, work.task_s)
        ],
        "attempted": work.attempted,
        "failed": len(work.failures),
        "fail_frac": len(work.failures) / work.attempted,
        "failures": work.failures,
        "setup_s": setup,
        "reference_s": reference,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def write_result(record: dict) -> Path:
    path = OUT / f"result-{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return path


def report(record: dict) -> dict:
    """Print the record's metrics as a table; returns the contract's last line."""
    name = record["workload"]
    print(f"# {name} seed {record['seed']}: result in {write_result(record).relative_to(ROOT)}")
    for failure in record["failures"][:5]:
        print("#   failed " + failure.replace("\n", " | "))
    rows = {"fail_frac": {"value": record["fail_frac"], "unit": "ratio"}}
    rows.update(record["metrics"])
    for key, entry in rows.items():
        print(f"{name:22} {key:40} {entry['value']:14.6g} {entry['unit']}")
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }


def run_all(argv: list[str]) -> dict:
    """Every workload, each in its own process so that peak RSS is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, *argv],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        *table, last = done.stdout.splitlines()
        print("\n".join(table), flush=True)
        result = json.loads(last)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, entry in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = entry
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_cli()
    if args.workload is None:
        shared = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        result = run_all(shared)
    else:
        result = report(run(args.workload, args.seed, args.seconds, bool(args.trace)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
