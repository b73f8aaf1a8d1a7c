"""Record the base graphs' outputs that the benchmark checks against.

Run from the repository root, on the commit whose outputs are the reference:

    python3 bench/record_golden.py

For each workload and scale, every base graph (identity labels) goes through
the CLI once: hierarchies as exact-mode JSON, other commands as their own
invocation.  The outputs are written to ``bench/golden.json``.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads


def record() -> dict:
    cli = run.import_cli()
    golden: dict = {}
    run.OUT.mkdir(parents=True, exist_ok=True)
    for scale in workloads.SCALES:
        recorded = golden.setdefault(str(scale), {})
        for workload in workloads.WORKLOADS:
            for task in workloads.tasks(workload, 0, scale, relabel=False):
                graph = task.graph
                if graph.name in recorded:
                    continue
                path = run.OUT / f"golden-{scale}-{graph.name}.txt"
                path.write_text(graph.edge_list(), encoding="utf-8")
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(workloads.golden_argv(task, str(path)))
                if code != 0:
                    sys.exit(f"{workload} {graph.name}: exit code {code}")
                stdout = out.getvalue()
                recorded[graph.name] = (
                    json.loads(stdout) if task.command == "hierarchy" else stdout
                )
                # The identity relabeling must reproduce the recorded bytes.
                if task.command == "hierarchy":
                    again = json.dumps(
                        workloads.relabel_tree(recorded[graph.name], graph.perm), indent=2
                    ) + "\n"
                    if again != stdout:
                        sys.exit(f"{graph.name}: re-rendered tree differs from the CLI's")
                print(f"recorded scale {scale} {workload} {graph.name}", flush=True)
    return golden


def main() -> int:
    golden = record()
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
