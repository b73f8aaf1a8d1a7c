"""Tests of the benchmark itself, on graphs shrunk by workloads.SCALES[-1].

Run from the repository root:  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

TINY = workloads.SCALES[-1]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run(name, trace):
    record = run.run(name, seed=5, seconds=0.01, trace=trace, scale=TINY)
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] >= len(workloads.tasks(name, 5, TINY))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        assert record["metrics"][metric["name"]]["unit"] == metric["unit"]
    for key in ("python", "nproc", "git_sha", "seed"):
        assert record[key] not in (None, "")


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_relabels_the_same_base_graphs(name):
    a, b = workloads.tasks(name, 1, TINY), workloads.tasks(name, 2, TINY)
    assert [t.graph.base_edges for t in a] == [t.graph.base_edges for t in b]
    assert [t.graph.edge_list() for t in a] != [t.graph.edge_list() for t in b]
    assert [t.graph.edge_list() for t in a] == [
        t.graph.edge_list() for t in workloads.tasks(name, 1, TINY)
    ]


def _corrupt(golden: dict) -> dict:
    """The golden outputs with one character changed in every entry."""
    golden = json.loads(json.dumps(golden))
    for recorded in golden.values():
        for name, output in recorded.items():
            if isinstance(output, dict):  # a hierarchy: change the root's ratio
                output["sigma"] = "1" + output["sigma"]
            elif "load " in output:
                recorded[name] = output.replace("load ", "load 1", 1)
            else:
                recorded[name] = output.replace(": ", ": 1", 1)
    return golden


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_corrupted_golden_output_counts_as_failure(cli, name):
    good = run.Workload(name, 3, TINY)
    good.run_pass(cli)
    assert good.failures == []
    bad = run.Workload(name, 3, TINY, golden=_corrupt(workloads.load_golden()))
    bad.run_pass(cli)
    assert len(bad.failures) == len(bad.tasks) == bad.attempted
    assert all("differs from the expected output" in f for f in bad.failures)


def test_wrong_loads_sum_fails_the_independent_check():
    task = workloads.tasks("sparse-hierarchy", 0, TINY)[0]
    assert task.command == "ideal-loads"
    assert workloads.independent_check(task, f"sum: {task.graph.n - 1}/1\n") is None
    assert workloads.independent_check(task, f"sum: {task.graph.n}/1\n") is not None


def test_traced_run_restores_every_binding(cli):
    import laminar.flow

    before = tracer.function_bindings()
    original = laminar.flow.max_flow
    work = run.Workload("sparse-hierarchy", 4, TINY)
    with tracer.Tracer() as t:
        for module in ("flow", "densecore", "arboricity", "goldberg"):
            bound = getattr(sys.modules[f"laminar.{module}"], "max_flow")
            assert bound is not original and bound.__wrapped__ is original
        work.run_pass(cli)
    assert work.failures == []
    assert t.layer_metrics()["flow.max_flow.calls"] > 0
    after = tracer.function_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_self_time_excludes_child_spans(cli):
    work = run.Workload("dense-arboricity", 4, TINY)
    with tracer.Tracer() as t:
        work.run_pass(cli)
    totals = t.function_totals()
    arb = totals["arboricity.compute_arboricity"]
    assert arb["calls"] == 1
    assert 0 <= arb["self_s"] < arb["s"]
    assert totals["flow.max_flow"]["self_s"] == pytest.approx(totals["flow.max_flow"]["s"])


def test_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dense-arboricity",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
