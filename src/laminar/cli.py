"""Command-line frontend: parse edge lists, run the algorithms, emit results.

Input is the edge-list format (header `n m`, then `u v w` lines, `#` comments
allowed).  Rationals are printed as `p/q`, never as floats.  Each command
returns its text; `main` writes it and maps errors to exit codes: 0 success,
2 malformed or unusable input, 3 brute-force size-guard refusal, 141 a
closed stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys
from fractions import Fraction
from itertools import count, islice

from .arboricity import compute_arboricity
from .densecore import find_star_full, verify_core_explain
from .graph import (
    EdgeListError,
    WeightedGraph,
    _component_roots,
    component_subgraphs,
    decimal,
    parse_edge_list,
    skew_density,
)
from .hierarchy import HierarchyTree, build_hierarchy, strength
from .loads import entropy_certificate, entropy_value, ideal_loads
from .oracle import (
    SizeGuardError,
    brute_dense_core,
    brute_hierarchy,
    brute_max_skew_density,
    brute_min_ratio_cut,
    frank_wolfe_entropy,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_SIZE_GUARD = 3
EXIT_CLOSED_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a writer the pipe killed


class CliError(ValueError):
    """Input the command cannot use, beyond what the graph layer checks."""


def rational(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def vertex_list(vertices) -> str:
    return ",".join(str(v) for v in sorted(vertices))


def _labeled_tour(tree: HierarchyTree):
    """The root's tour, each step with the node's vertices on entering it
    (else None), sliced from one preorder array of the leaves' vertices."""
    leaves = [x.vertex for x in tree.root.walk() if x.is_leaf]
    start = 0  # the preorder position of the next node's first leaf
    for entering, node, depth, first in tree.root.tour():
        yield entering, node, depth, first, leaves[start : start + node.size] if entering else None
        start += entering and node.is_leaf


def hierarchy_to_json(tree: HierarchyTree) -> str:
    """The tree as nested {"vertices", "sigma", "children"} objects, sigma on
    internal nodes only, in the bytes json.dumps(..., indent=2) writes.

    The standard encoder recurses once per nesting level and fails on
    hierarchies a few hundred levels deep; this writes the text in one tour.
    """
    out: list[str] = []
    for entering, node, depth, first, vertices in _labeled_tour(tree):
        pad = "\n" + "  " * (2 * depth)
        key = pad + "  "
        if not entering:
            out.append((key if node.children else "") + "]" + pad + "}")
            continue
        if depth:
            out.append(pad if first else "," + pad)
        item = key + "  "
        out.append("{" + key + '"vertices": [' + item)
        out.append(("," + item).join(map(str, sorted(vertices))))
        out.append(key + "],")
        if node.sigma is not None:
            out.append(f'{key}"sigma": "{rational(node.sigma)}",')
        out.append(key + '"children": [')
    return "".join(out)


def hierarchy_to_text(tree: HierarchyTree) -> str:
    lines: list[str] = []
    for entering, node, depth, _, vertices in _labeled_tour(tree):
        if entering:
            label = "{" + vertex_list(vertices) + "}"
            if node.sigma is not None:
                label += f" sigma={rational(node.sigma)}"
            lines.append("  " * depth + "- " + label)
    return "\n".join(lines)


def hierarchy_to_dot(tree: HierarchyTree) -> str:
    """Each node on entering it, and the arc from its parent on leaving it."""
    lines = ["digraph hierarchy {"]
    ids = count()  # in the order the nodes are entered
    latest: list[int] = []  # the id of the last node entered at each depth
    for entering, node, depth, _, vertices in _labeled_tour(tree):
        if not entering:
            if depth:
                lines.append(f"  n{latest[depth - 1]} -> n{latest[depth]};")
            continue
        latest[depth:] = [next(ids)]
        label = "{" + vertex_list(vertices) + "}"
        if node.sigma is not None:
            label += f"\\nsigma={rational(node.sigma)}"
        lines.append(f'  n{latest[depth]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def _read_graph(path: str) -> WeightedGraph:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    try:
        return parse_edge_list(text)
    except EdgeListError as exc:
        raise CliError(f"{path}: {exc}") from exc


def _require_connected(graph: WeightedGraph, what: str):
    """Refuse a disconnected graph, naming its first components by smallest vertex."""
    if graph.is_connected():
        return
    roots, count = _component_roots(graph)
    firsts = list(islice((v for v in range(graph.n) if v not in roots), 10))
    listed = "; ".join(
        "{" + vertex_list([r, *(v for v, root in roots.items() if root == r)]) + "}" for r in firsts
    )
    more = f"; ... ({count - len(firsts)} more)" if count > len(firsts) else ""
    raise CliError(
        f"{what} needs a connected graph; {count} components: {listed}{more} "
        "(use --per-component where supported)"
    )


def _parse_set(text: str, n: int) -> frozenset[int]:
    try:
        vertices = frozenset(decimal(part) for part in text.split(",") if part != "")
    except ValueError:
        raise CliError(f"--set must be a comma-separated vertex list, got {text!r}") from None
    if not vertices:
        raise CliError("--set must name at least one vertex")
    bad = [v for v in vertices if not 0 <= v < n]
    if bad:
        raise CliError(f"--set vertices out of range 0..{n - 1}: {sorted(bad)}")
    return vertices


def _render(args, text: str, json_value) -> str:
    return json.dumps(json_value, indent=2) if args.format == "json" else text


def _json(value):
    """A measured value as JSON writes it: a rational as `p/q`, else as it is."""
    return rational(value) if isinstance(value, Fraction) else value


def _per_component(args, graph: WeightedGraph, measure, best) -> str:
    """`measure`'s fields on each component (None where undefined), under a
    head that holds each field's `best` over the components."""
    bests: dict = {}
    lines = []
    comp_json = []
    for sub, comp in component_subgraphs(graph):
        fields = measure(sub)
        shown = {key: _json(v) for key, v in fields.items()}
        pairs = ", ".join(f"{key} {'undefined' if v is None else v}" for key, v in shown.items())
        lines.append(f"component {{{vertex_list(comp)}}}: {pairs}")
        comp_json.append({"vertices": sorted(comp), **shown})
        for key, v in fields.items():
            if v is not None:
                bests[key] = best(bests.get(key, v), v)
    if not bests:
        raise CliError("no component has 2 or more vertices")
    head = {key: _json(v) for key, v in bests.items()}
    return _render(
        args,
        "\n".join([*(f"{key}: {v}" for key, v in head.items()), *lines]),
        {**head, "components": comp_json},
    )


def _cmd_arboricity(args) -> str:
    graph = _read_graph(args.file)
    if graph.m == 0:
        return _render(
            args,
            "arboricity: 0\nfractional: 0/1\n# edgeless input: zero forests cover it",
            {"arboricity": 0, "fractional": "0/1", "note": "edgeless input"},
        )
    if args.per_component:

        def measure(sub):
            result = compute_arboricity(sub)
            return {"arboricity": result.arboricity, "fractional": result.fractional}

        return _per_component(args, graph, measure, max)
    _require_connected(graph, "arboricity")
    result = compute_arboricity(graph)
    return _render(
        args,
        f"arboricity: {result.arboricity}\nfractional: {rational(result.fractional)}",
        {"arboricity": result.arboricity, "fractional": rational(result.fractional)},
    )


def _build_tree(args, graph: WeightedGraph) -> HierarchyTree:
    return build_hierarchy(graph, mode=args.mode, rng=random.Random(args.seed))


def _cmd_strength(args) -> str:
    graph = _read_graph(args.file)
    if args.per_component:

        def measure(sub):
            return {"strength": strength(_build_tree(args, sub)) if sub.n >= 2 else None}

        return _per_component(args, graph, measure, min)
    _require_connected(graph, "strength")
    if graph.n < 2:
        raise CliError("strength needs at least 2 vertices")
    value = strength(_build_tree(args, graph))
    return _render(args, f"strength: {rational(value)}", {"strength": rational(value)})


def _render_tree(args, tree: HierarchyTree) -> str:
    # Looked up per call, so a renderer rebound on this module (bench/tracer.py) is the one run.
    render = {"text": hierarchy_to_text, "json": hierarchy_to_json, "dot": hierarchy_to_dot}
    return render[args.format](tree)


def _cmd_hierarchy(args) -> str:
    graph = _read_graph(args.file)
    _require_connected(graph, "hierarchy")
    return _render_tree(args, _build_tree(args, graph))


def _cmd_ideal_loads(args) -> str:
    graph = _read_graph(args.file)
    _require_connected(graph, "ideal loads")
    tree = _build_tree(args, graph)
    loads = ideal_loads(graph, tree)
    lines = []
    edges_json = []
    for idx, (u, v, w) in enumerate(graph.edges):
        lines.append(
            f"edge {u} {v} weight {w}: load {rational(loads.per_edge[idx])} "
            f"(unit {rational(loads.unit_per_edge[idx])})"
        )
        edges_json.append(
            {
                "u": u,
                "v": v,
                "weight": w,
                "load": rational(loads.per_edge[idx]),
                "unit_load": rational(loads.unit_per_edge[idx]),
            }
        )
    total = sum(loads.per_edge, Fraction(0))
    lines.append(f"sum: {rational(total)}")
    return _render(args, "\n".join(lines), {"edges": edges_json, "sum": rational(total)})


def _cmd_densest(args) -> str:
    if args.k is not None and args.mode == "exact":
        raise CliError("--k sizes the randomized search only; exact mode takes no --k")
    graph = _read_graph(args.file)
    _require_connected(graph, "densest set search")
    k = args.k if args.k is not None else max(1, graph.n)
    result = find_star_full(graph, k, mode=args.mode, rng=random.Random(args.seed))
    density = skew_density(graph, result.candidate)
    return _render(
        args,
        f"densest: {vertex_list(result.candidate)}\ndensity: {rational(density)}",
        {"vertices": sorted(result.candidate), "density": rational(density)},
    )


def _cmd_verify_core(args) -> str:
    graph = _read_graph(args.file)
    candidate = _parse_set(args.set, graph.n)
    ok, reason = verify_core_explain(graph, graph.n, candidate)
    if ok:
        return _render(args, "true", {"dense_core": True})
    return _render(args, f"false ({reason})", {"dense_core": False, "reason": reason})


def _cmd_entropy_check(args) -> str:
    graph = _read_graph(args.file)
    _require_connected(graph, "entropy check")
    # The oracle runs first: its size guard refuses before any hierarchy work.
    fw = frank_wolfe_entropy(graph, args.iterations, seed=args.seed)
    tree = _build_tree(args, graph)
    loads = ideal_loads(graph, tree)
    certificate = entropy_certificate(loads)
    pairs = loads.unit_marginal_pairs()
    ideal_entropy = entropy_value((x for x, _ in pairs), (w for _, w in pairs))
    gap = fw.value - ideal_entropy
    min_y = min((y for node, y in certificate.y.items() if node is not tree.root), default=0.0)
    text = "\n".join(
        [
            f"ideal entropy objective: {ideal_entropy:.12f}",
            f"frank-wolfe objective:   {fw.value:.12f}",
            f"gap (fw - ideal):        {gap:.3e}",
            f"min non-root dual value: {min_y:.3e}",
        ]
    )
    return _render(
        args,
        text,
        {
            "ideal": ideal_entropy,
            "frank_wolfe": fw.value,
            "gap": gap,
            "min_dual": min_y,
        },
    )


def _cmd_oracle(args) -> str:
    sub = args.oracle_command
    if args.format == "dot" and sub != "hierarchy":
        raise CliError(f"oracle {sub} has no dot format; --format dot prints a hierarchy")
    graph = _read_graph(args.file)
    if sub == "min-ratio-cut":
        ratio, cut = brute_min_ratio_cut(graph)
        sides = sorted((sorted(side) for side in cut.sides), key=lambda s: s[0])
        text = f"ratio: {rational(ratio)}\nsides: " + "; ".join(
            "{" + vertex_list(side) + "}" for side in sides
        )
        return _render(args, text, {"ratio": rational(ratio), "sides": sides})
    if sub == "max-skew-density":
        density, vertices = brute_max_skew_density(graph)
        return _render(
            args,
            f"density: {rational(density)}\nvertices: {vertex_list(vertices)}",
            {"density": rational(density), "vertices": sorted(vertices)},
        )
    if sub == "dense-core":
        if args.set is None:
            raise CliError("oracle dense-core needs --set")
        verdict = brute_dense_core(graph, _parse_set(args.set, graph.n))
        return _render(args, "true" if verdict else "false", {"dense_core": verdict})
    _require_connected(graph, "hierarchy oracle")
    return _render_tree(args, brute_hierarchy(graph))


def _add_input(parser: argparse.ArgumentParser, formats=("text", "json")):
    parser.add_argument("file", help="edge-list input file")
    parser.add_argument("--format", choices=formats, default="text", help="output format")


def _add_search(parser: argparse.ArgumentParser):
    """The options of the commands that run the densest-set search."""
    parser.add_argument("--seed", type=decimal, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--mode",
        choices=("exact", "randomized"),
        default="exact",
        help="exact subroutines or the randomized sampling pipeline (accuracy 1/10)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="laminar",
        description=(
            "Exact cut hierarchies, strength, arboricity, and ideal edge loads "
            "of weighted undirected graphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("arboricity", help="integer and fractional arboricity")
    _add_input(p)
    p.add_argument(
        "--per-component",
        action="store_true",
        help="handle disconnected input by maximizing over components",
    )
    p.set_defaults(func=_cmd_arboricity)

    p = sub.add_parser("strength", help="minimum cut ratio over all multiway cuts")
    _add_input(p)
    _add_search(p)
    p.add_argument(
        "--per-component",
        action="store_true",
        help="report per-component strengths on disconnected input",
    )
    p.set_defaults(func=_cmd_strength)

    p = sub.add_parser("hierarchy", help="canonical cut hierarchy")
    _add_input(p, ("text", "json", "dot"))
    _add_search(p)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("ideal-loads", help="per-edge ideal loads")
    _add_input(p)
    _add_search(p)
    p.set_defaults(func=_cmd_ideal_loads)

    p = sub.add_parser("densest", help="maximum skew-densest vertex set")
    _add_input(p)
    _add_search(p)
    p.add_argument(
        "--k",
        type=decimal,
        help=(
            "set size the randomized sampler searches for (default n); it does "
            "not bound the printed set, which can be larger"
        ),
    )
    p.set_defaults(func=_cmd_densest)

    p = sub.add_parser("verify-core", help="dense-core check for a vertex set")
    _add_input(p)
    p.add_argument("--set", required=True, help="comma-separated vertex list")
    p.set_defaults(func=_cmd_verify_core)

    p = sub.add_parser(
        "entropy-check", help="compare ideal loads against the entropy oracle"
    )
    _add_input(p)
    _add_search(p)
    p.add_argument(
        "--iterations", type=decimal, default=4000, help="Frank-Wolfe iterations"
    )
    p.set_defaults(func=_cmd_entropy_check)

    p = sub.add_parser("oracle", help="brute-force reference computations")
    p.add_argument(
        "oracle_command",
        choices=("min-ratio-cut", "max-skew-density", "dense-core", "hierarchy"),
    )
    _add_input(p, ("text", "json", "dot"))
    p.add_argument("--set", default=None, help="comma-separated vertex list")
    p.set_defaults(func=_cmd_oracle)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built on its first call: argparse leaves a
    parser as it was after parse_args, so each later call reuses it."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        text = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD if isinstance(exc, SizeGuardError) else EXIT_BAD_INPUT
    try:
        # Flushed here, so a short output's closed pipe raises here, not at exit.
        print(text, flush=True)
    except BrokenPipeError:
        # Python flushes stdout again at exit; a quiet sink keeps that from failing too.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
