"""Seeded inputs, task lists and expected outputs of the benchmark workloads.

Each workload has fixed base graphs, drawn once from the generators below
with a fixed seed.  A run's ``--seed`` permutes the vertex labels and the
edge order of every base graph and, for randomized mode, picks the
pipeline's RNG seeds.  The work therefore stays comparable from seed to seed
(random graphs of one family differ by 15-70% in solve time, which would
swamp the run-to-run spread), while the printed output differs per seed.

Every answer the CLI prints here is canonical, so the expected output of any
seed follows from the base graph's output, recorded once in ``golden.json``
by ``record_golden.py``: relabel it and render it again.  The generators live
in the benchmark, not in the test suite, so test edits cannot change the
workloads.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# Size divisors with recorded outputs: full size, and tiny graphs for tests.
SCALES = (1, 8)

# Runs of the randomized pipeline per pass, each with its own RNG seed.  Its
# run time varies by ~13% between RNG seeds on one graph; a pass sums two.
RANDOMIZED_RUNS = 2

Edge = tuple[int, int, int]


@dataclass(frozen=True)
class Graph:
    """A base graph and the relabeling that one seed applies to it."""

    name: str
    n: int
    base_edges: tuple[Edge, ...]
    perm: tuple[int, ...]  # base vertex -> printed vertex
    order: tuple[int, ...]  # printed edge i is base edge order[i]

    @property
    def edges(self) -> list[Edge]:
        p = self.perm
        return [
            (p[u], p[v], w) for u, v, w in (self.base_edges[i] for i in self.order)
        ]

    def edge_list(self) -> str:
        lines = [f"{self.n} {len(self.base_edges)}"]
        lines.extend(f"{u} {v} {w}" for u, v, w in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Task:
    """One CLI invocation: a command on a graph, with options after the file."""

    name: str
    graph: Graph
    command: str
    options: tuple[str, ...] = ()

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.options]


def random_connected(rng: random.Random, n: int, extra: int, max_weight: int = 9):
    """Random spanning tree plus `extra` random pairs; self-pairs are dropped.

    Parallel edges are kept.  The same draws as the test suite's generator, so
    a seed reproduces the smoke test's graph.
    """
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v, rng.randint(1, max_weight)))
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append((min(u, v), max(u, v), rng.randint(1, max_weight)))
    return tuple(edges)


def increasing_path(rng: random.Random, n: int):
    """Path 0-1-...-(n-1) whose edge weights strictly increase along it."""
    edges = []
    weight = 0
    for v in range(1, n):
        weight += rng.randint(1, 3)
        edges.append((v - 1, v, weight))
    return tuple(edges)


def base_graphs(workload: str, scale: int = 1) -> dict[str, tuple[int, tuple[Edge, ...]]]:
    """The workload's base graphs by name; scale > 1 shrinks each of them."""
    rng = random.Random(f"{workload}/base/{scale}")
    if workload == "dense-arboricity":
        # At full size, the smoke test's graph: n=200, m=1991, the ROADMAP baseline.
        if scale == 1:
            rng = random.Random(2024)
        n = 200 // scale
        return {"dense": (n, random_connected(rng, n, (2000 - 199) // scale))}
    if workload == "sparse-hierarchy":
        n_tree, n_path = 80 // scale, 100 // scale
        return {
            "tree": (n_tree, random_connected(rng, n_tree, 20 // scale)),
            "path": (n_path, increasing_path(rng, n_path)),
        }
    if workload == "randomized-hierarchy":
        n = max(4, 12 // scale)
        return {"small": (n, random_connected(rng, n, 21 // scale))}
    raise KeyError(workload)


WORKLOADS = ("dense-arboricity", "sparse-hierarchy", "randomized-hierarchy")


def tasks(workload: str, seed: int, scale: int = 1, *, relabel: bool = True) -> list[Task]:
    """The workload's tasks for one seed; relabel=False gives the base graphs."""
    rng = random.Random(f"{workload}/{seed}")
    graphs = {}
    for name, (n, edges) in base_graphs(workload, scale).items():
        perm, order = list(range(n)), list(range(len(edges)))
        if relabel:
            rng.shuffle(perm)
            rng.shuffle(order)
        graphs[name] = Graph(name, n, edges, tuple(perm), tuple(order))
    if workload == "dense-arboricity":
        return [Task("arboricity", graphs["dense"], "arboricity")]
    if workload == "sparse-hierarchy":
        return [
            Task("tree-ideal-loads", graphs["tree"], "ideal-loads"),
            Task("path-hierarchy", graphs["path"], "hierarchy", ("--format", "json")),
        ]
    return [
        Task(
            f"randomized-hierarchy-{i}",
            graphs["small"],
            "hierarchy",
            ("--mode", "randomized", "--seed", str(rng.randrange(1 << 30))),
        )
        for i in range(1, RANDOMIZED_RUNS + 1)
    ]


def golden_argv(task: Task, path: str) -> list[str]:
    """The invocation whose base-graph output is recorded for this task.

    Hierarchies are recorded as exact-mode JSON: the randomized pipeline must
    print the exact tree, and the tree is rendered again per seed.
    """
    if task.command == "hierarchy":
        return ["hierarchy", path, "--format", "json"]
    return task.argv(path)


# ---------------------------------------------------------------------------
# Expected output of a relabeled task


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def relabel_tree(node: dict, perm: tuple[int, ...]) -> dict:
    """The hierarchy with vertex v renamed perm[v], in the CLI's node order."""
    out: dict = {"vertices": sorted(perm[v] for v in node["vertices"])}
    if "sigma" in node:
        out["sigma"] = node["sigma"]
    children = [relabel_tree(c, perm) for c in node["children"]]
    out["children"] = sorted(children, key=lambda c: c["vertices"][0])
    return out


def _tree_text(node: dict, depth: int, lines: list[str]) -> None:
    label = "{" + ",".join(map(str, node["vertices"])) + "}"
    if "sigma" in node:
        label += f" sigma={node['sigma']}"
    lines.append("  " * depth + "- " + label)
    for child in node["children"]:
        _tree_text(child, depth + 1, lines)


def _loads_text(base_stdout: str, graph: Graph) -> str:
    """Ideal-loads output of the relabeled graph from the base graph's output."""
    *edge_lines, sum_line = base_stdout.rstrip("\n").split("\n")
    if len(edge_lines) != len(graph.base_edges):
        raise ValueError("golden ideal-loads output does not match the base graph")
    loads = [line.split(": ", 1)[1] for line in edge_lines]
    lines = [
        f"edge {u} {v} weight {w}: {loads[i]}"
        for (u, v, w), i in zip(graph.edges, graph.order)
    ]
    return "\n".join(lines + [sum_line]) + "\n"


def expected_stdout(task: Task, golden: dict, scale: int = 1) -> str:
    recorded = golden[str(scale)][task.graph.name]
    if task.command == "hierarchy":
        tree = relabel_tree(recorded, task.graph.perm)
        if "--format" in task.options and "json" in task.options:
            return json.dumps(tree, indent=2) + "\n"
        lines: list[str] = []
        _tree_text(tree, 0, lines)
        return "\n".join(lines) + "\n"
    if task.command == "ideal-loads":
        return _loads_text(recorded, task.graph)
    return recorded


def independent_check(task: Task, stdout: str) -> str | None:
    """Checks that need no recorded output; returns a problem or None."""
    lines = stdout.rstrip("\n").split("\n")
    if task.command == "ideal-loads":
        # Ideal loads of a connected graph sum to its rank, n - 1.
        want = f"sum: {task.graph.n - 1}/1"
        if lines[-1] != want:
            return f"last line {lines[-1]!r}, expected {want!r}"
    elif task.command == "arboricity":
        values = dict(line.split(": ", 1) for line in lines if ": " in line)
        try:
            integral = int(values["arboricity"])
            fractional = Fraction(values["fractional"])
        except (KeyError, ValueError):
            return "arboricity output is malformed"
        whole = Fraction(sum(w for _, _, w in task.graph.base_edges), task.graph.n - 1)
        if fractional < whole or integral != math.ceil(fractional):
            return f"arboricity {integral}, fractional {fractional} is inconsistent"
    return None
