"""Command-line behavior: formats, determinism, exit codes."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as Fr

import pytest

import laminar
from laminar import HierarchyNode, HierarchyTree, WeightedGraph, build_hierarchy
from laminar.cli import (
    build_parser,
    hierarchy_to_dot,
    hierarchy_to_json,
    hierarchy_to_text,
    main,
    rational,
)
from laminar.graph import parse_edge_list

from .conftest import format_edge_list, random_connected_graph

PATH_TEXT = "# golden path\n4 3\n0 1 2\n1 2 1\n2 3 100\n"


@pytest.fixture
def path_file(tmp_path):
    target = tmp_path / "path.txt"
    target.write_text(PATH_TEXT)
    return str(target)


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_arboricity(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "arboricity", path_file)
        assert code == 0
        assert "arboricity: 100" in out
        assert "fractional: 100/1" in out

    def test_strength(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "strength", path_file)
        assert code == 0 and "strength: 1/1" in out

    def test_hierarchy_json(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "hierarchy", path_file, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["sigma"] == "1/1"
        child_sigmas = sorted(c["sigma"] for c in data["children"])
        assert child_sigmas == ["100/1", "2/1"]

    def test_hierarchy_dot(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "hierarchy", path_file, "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")
        assert "sigma=100/1" in out

    def test_ideal_loads(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "ideal-loads", path_file)
        assert code == 0
        assert out.count("load 1/1") == 3
        assert "sum: 3/1" in out

    def test_densest(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "densest", path_file)
        assert code == 0
        assert "densest: 2,3" in out and "density: 100/1" in out
        code, out, _ = run_cli(
            capsys, "densest", path_file, "--mode", "randomized", "--k", "2", "--seed", "4"
        )
        assert code == 0
        assert "densest: 2,3" in out and "density: 100/1" in out

    def test_densest_k_does_not_bound_the_printed_set(self, capsys, tmp_path):
        # K4 with weights 5 plus a pendant edge: the sampler's k sizes its
        # search only, and the printed set is the whole K4 for every k.
        graph = tmp_path / "k4.txt"
        graph.write_text("5 7\n0 1 5\n0 2 5\n0 3 5\n1 2 5\n1 3 5\n2 3 5\n3 4 1\n")
        for k in ("1", "2", "3"):
            code, out, _ = run_cli(
                capsys, "densest", str(graph), "--mode", "randomized", "--k", k, "--seed", "1"
            )
            assert (code, out) == (0, "densest: 0,1,2,3\ndensity: 10/1\n")
        with pytest.raises(SystemExit):
            main(["densest", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert "does not bound the printed set" in help_text

    def test_verify_core(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "verify-core", path_file, "--set", "2,3")
        assert code == 0 and out.strip() == "true"
        code, out, _ = run_cli(capsys, "verify-core", path_file, "--set", "0,1")
        assert code == 0 and out.startswith("false")
        assert "superset" in out

    def test_oracle_min_ratio_cut(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "oracle", "min-ratio-cut", path_file)
        assert code == 0
        assert "ratio: 1/1" in out and "{0,1}; {2,3}" in out

    def test_oracle_density_and_core(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "oracle", "max-skew-density", path_file)
        assert code == 0 and "density: 100/1" in out
        code, out, _ = run_cli(
            capsys, "oracle", "dense-core", path_file, "--set", "2,3"
        )
        assert code == 0 and out.strip() == "true"

    def test_entropy_check(self, capsys, path_file):
        code, out, _ = run_cli(
            capsys, "entropy-check", path_file, "--iterations", "200"
        )
        assert code == 0
        assert "gap" in out

    def test_randomized_mode(self, capsys, path_file):
        code, out, _ = run_cli(
            capsys, "hierarchy", path_file, "--mode", "randomized", "--seed", "5"
        )
        assert code == 0 and "sigma=100/1" in out


def json_tree(tree: HierarchyTree) -> dict:
    """The tree as the nested {"vertices", "sigma", "children"} dicts whose
    json.dumps(..., indent=2) text `hierarchy_to_json` writes, built without
    recursion; a leaf has no sigma."""

    def entry(node: HierarchyNode) -> dict:
        data: dict = {"vertices": sorted(node.vertex_set)}
        if node.sigma is not None:
            data["sigma"] = rational(node.sigma)
        data["children"] = []
        return data

    top = entry(tree.root)
    stack = [(tree.root, top)]
    while stack:
        node, data = stack.pop()
        for child in node.children:
            data["children"].append(entry(child))
            stack.append((child, data["children"][-1]))
    return top


def json_preorder(data: dict) -> list[tuple]:
    """(vertices, sigma, number of children) per node of a JSON hierarchy, in
    preorder, without recursion; a leaf's sigma is None."""
    entries = []
    stack = [data]
    while stack:
        entry = stack.pop()
        entries.append((entry["vertices"], entry.get("sigma"), len(entry["children"])))
        stack.extend(reversed(entry["children"]))
    return entries


def tree_preorder(tree: HierarchyTree) -> list[tuple]:
    """The same entries read from the tree's nodes."""
    return [
        (sorted(x.vertex_set), None if x.sigma is None else rational(x.sigma), len(x.children))
        for x in tree.nodes()
    ]


@pytest.fixture(scope="module")
def sample_trees() -> list[HierarchyTree]:
    """The one-vertex tree, 200 trees of seeded random graphs (n 2-14), the
    unit triangle, a rising path and a chain of 300 internal nodes."""
    import random

    rng = random.Random(26)
    trees = [build_hierarchy(WeightedGraph.from_edges(1, []))]
    for trial in range(200):
        g = random_connected_graph(random.Random(trial), rng.randint(2, 14))
        trees.append(build_hierarchy(g))
    # The unit triangle's sigma is 3/2; the path's vertex ids reach 11.
    triangle = build_hierarchy(WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)]))
    path = build_hierarchy(WeightedGraph.from_edges(12, [(v, v + 1, v + 1) for v in range(11)]))
    assert triangle.root.sigma == Fr(3, 2) and max(path.root.vertex_set) == 11
    return trees + [triangle, path, chain_tree(300)]


def text_reference(tree: HierarchyTree) -> str:
    """What `hierarchy_to_text` writes, by recursion: one line per node in
    preorder, indented two spaces per level."""

    def lines(node: HierarchyNode, depth: int) -> list[str]:
        label = "{" + ",".join(map(str, sorted(node.vertex_set))) + "}"
        if node.sigma is not None:
            label += f" sigma={node.sigma.numerator}/{node.sigma.denominator}"
        return ["  " * depth + "- " + label] + [
            line for child in node.children for line in lines(child, depth + 1)
        ]

    return "\n".join(lines(tree.root, 0))


def dot_reference(tree: HierarchyTree) -> str:
    """What `hierarchy_to_dot` writes, by recursion: a node's line, then for
    each child its subtree followed by the arc to it."""
    out = ["digraph hierarchy {"]
    ids: dict[frozenset, int] = {}

    def visit(node: HierarchyNode) -> int:
        nid = ids.setdefault(node.vertex_set, len(ids))
        label = "{" + ",".join(map(str, sorted(node.vertex_set))) + "}"
        if node.sigma is not None:
            label += f"\\nsigma={node.sigma.numerator}/{node.sigma.denominator}"
        out.append(f'  n{nid} [label="{label}"];')
        for child in node.children:
            out.append(f"  n{nid} -> n{visit(child)};")
        return nid

    visit(tree.root)
    return "\n".join(out + ["}"])


def check_tour(root: HierarchyNode) -> None:
    """`root.tour()` enters the nodes in `walk()`'s order, closes each enter
    with its leave in stack order after the node's children, in order, and
    gives each step its depth and first flag."""
    steps = list(root.tour())
    entered = [node for entering, node, _, _ in steps if entering]
    walked = list(root.walk())
    assert len(entered) == len(walked) == len(steps) // 2
    assert all(a is b for a, b in zip(entered, walked))
    open_nodes: list[list] = []  # [node, next child's position, first flag] per open node
    for entering, node, depth, first in steps:
        if entering:
            if open_nodes:
                parent = open_nodes[-1]
                assert parent[0].children[parent[1]] is node and first == (parent[1] == 0)
                parent[1] += 1
            else:
                assert node is root and first
            assert depth == len(open_nodes)
            open_nodes.append([node, 0, first])
        else:
            top, seen, was_first = open_nodes.pop()
            assert top is node and seen == len(node.children)
            assert (depth, first) == (len(open_nodes), was_first)
    assert not open_nodes


class TestTour:
    def test_tour_on_the_sample_trees_and_a_deep_chain(self, sample_trees):
        for tree in sample_trees:
            check_tour(tree.root)
        chain = chain_tree(5000).root
        check_tour(chain)
        assert max(depth for _, _, depth, _ in chain.tour()) == 5000

    def test_tour_of_a_subtree_counts_depth_from_it(self):
        tree = chain_tree(3)
        inner = tree.root.children[1]
        steps = [(entering, sorted(x.vertex_set), depth, first) for entering, x, depth, first in inner.tour()]
        assert steps[:3] == [(True, [1, 2, 3], 0, True), (True, [1], 1, True), (False, [1], 1, True)]
        assert steps[-1] == (False, [1, 2, 3], 0, True)

    def test_text_and_dot_match_recursive_references(self, sample_trees):
        for tree in sample_trees:
            assert hierarchy_to_text(tree) == text_reference(tree)
            assert hierarchy_to_dot(tree) == dot_reference(tree)


class TestJsonRoundTrip:
    def test_json_is_the_tree_in_preorder(self):
        # A preorder with each node's number of children fixes the tree.
        import random

        for trial in range(5):
            g = random_connected_graph(random.Random(trial), 6)
            tree = build_hierarchy(g)
            assert json_preorder(json.loads(hierarchy_to_json(tree))) == tree_preorder(tree)

    def test_json_text_matches_the_standard_encoder(self, sample_trees):
        for tree in sample_trees:
            assert hierarchy_to_json(tree) == json.dumps(json_tree(tree), indent=2)

    def test_oracle_hierarchy_prints_the_same_json(self, capsys, tmp_path):
        # The brute-force tree passes through the same writer.
        import random

        rng = random.Random(2026)
        target = tmp_path / "graph.txt"
        for _ in range(20):
            target.write_text(format_edge_list(random_connected_graph(rng, rng.randint(1, 7))))
            built = run_cli(capsys, "hierarchy", str(target), "--format", "json")
            brute = run_cli(capsys, "oracle", "hierarchy", str(target), "--format", "json")
            assert built[0] == 0 and built == brute

    def test_byte_identical_given_seed(self, capsys, path_file):
        first = run_cli(capsys, "hierarchy", path_file, "--seed", "3", "--format", "json")
        second = run_cli(capsys, "hierarchy", path_file, "--seed", "3", "--format", "json")
        assert first == second

    def test_byte_identical_randomized_mode(self, capsys, path_file):
        args = ("densest", path_file, "--mode", "randomized", "--seed", "7")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


def chain_root(depth: int, deepest_sigma: Fr | None = None) -> HierarchyNode:
    """A chain of `depth` internal nodes, each the parent of the next:
    internal node i has children leaf i and internal node i+1 (the last one,
    leaf `depth`), so it holds the vertices i..depth, and sigma i+1 (the
    last one, `deepest_sigma` when given)."""
    node = HierarchyNode(depth)
    for level in reversed(range(depth)):
        sigma = deepest_sigma if deepest_sigma is not None and level == depth - 1 else Fr(level + 1)
        node = HierarchyNode(None, (HierarchyNode(level), node), sigma)
    return node


def chain_tree(depth: int) -> HierarchyTree:
    """The chain of `depth` internal nodes over the unit path on its
    vertices 0..depth: its shape is sound, though not its ratios."""
    graph = WeightedGraph.from_edges(depth + 1, [(v, v + 1, 1) for v in range(depth)])
    return HierarchyTree(root=chain_root(depth), graph=graph)


class TestDeepHierarchy:
    DEPTH = 5000
    #: a node lists its vertices, so a chain's text grows with the square of
    #: its depth; this depth is past the interpreter's recursion limit
    RENDERED_DEPTH = 1200

    def test_tree_and_renderers_handle_depth_5000(self):
        depth = self.DEPTH
        tree = chain_tree(depth)
        assert sum(1 for _ in tree.nodes()) == 2 * depth + 1
        assert not tree.faults and len(tree.charge) == depth
        assert sum(1 for _ in tree.internal_nodes()) == depth

        depth = self.RENDERED_DEPTH
        assert depth > sys.getrecursionlimit()
        tree = chain_tree(depth)
        text = hierarchy_to_text(tree).split("\n")
        assert len(text) == 2 * depth + 1
        assert text[0] == "- {" + ",".join(map(str, range(depth + 1))) + "} sigma=1/1"
        assert text[-1] == "  " * depth + f"- {{{depth}}}"

        dot = hierarchy_to_dot(tree).split("\n")
        assert len(dot) == 2 + (2 * depth + 1) + 2 * depth
        assert dot[-2] == "  n0 -> n2;"  # the root's arc to its deep child comes last

    def test_node_equality_hash_and_repr_at_depth_5000(self):
        depth = self.DEPTH
        tree = chain_tree(depth)
        same = chain_root(depth)
        other = chain_root(depth, Fr(1, 2))  # differs only in the deepest internal node
        assert same is not tree.root
        assert same == tree.root and not same != tree.root
        assert other != tree.root and not other == tree.root
        assert tree == chain_tree(depth)
        assert hash(same) == hash(tree.root)
        assert {same: 1}[tree.root] == 1
        text = repr(same)
        assert text == repr(tree.root)
        assert text.count("HierarchyNode(") == 2 * depth + 1
        assert text.startswith(
            "HierarchyNode(vertex=None, children="
            "(HierarchyNode(vertex=0, children=(), sigma=None), "
        )
        assert text.endswith("), sigma=Fraction(2, 1))), sigma=Fraction(1, 1))")
        assert repr(other) != text

    def test_node_repr_matches_the_generated_form(self):
        leaf = HierarchyNode(3)
        only = HierarchyNode(None, (leaf,), Fr(5, 3))
        pair = HierarchyNode(None, (only, leaf), Fr(2))
        assert repr(only) == (
            "HierarchyNode(vertex=None, children=(HierarchyNode("
            "vertex=3, children=(), sigma=None),), sigma=Fraction(5, 3))"
        )
        assert repr(pair) == (
            f"HierarchyNode(vertex=None, children=({only!r}, {leaf!r}), sigma=Fraction(2, 1))"
        )
        assert pair != leaf and pair == HierarchyNode(None, (only, leaf), Fr(2))
        assert (leaf == 3) is False
        # A leaf names a vertex and carries no sigma; an internal node names
        # none, and has children and a sigma.
        for vertex, children, sigma in (
            (None, (), None), (3, (), Fr(1)), (None, (leaf,), None), (3, (leaf,), Fr(1))
        ):
            with pytest.raises(ValueError, match="a leaf names a vertex"):
                HierarchyNode(vertex, children, sigma)

    def test_json_text_past_the_standard_encoder_depth(self):
        # A node lists each of its vertices on a line indented by its depth,
        # so a chain's JSON grows with the cube of its depth.  Under a
        # recursion limit 100 frames above this test's, json.dumps fails on
        # 200 levels, and the writer, which does not recurse, does not.
        depth = 200
        tree = chain_tree(depth)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            with pytest.raises(RecursionError):
                json.dumps(json_tree(tree), indent=2)
            text = hierarchy_to_json(tree)
        finally:
            sys.setrecursionlimit(limit)
        assert text == json.dumps(json_tree(tree), indent=2)


COMMANDS = (
    "arboricity", "strength", "hierarchy", "ideal-loads", "densest", "verify-core",
    "entropy-check", "oracle",
)

#: options a subcommand does not read: the search options where no search
#: runs, --epsilon anywhere (the sampling pipeline's is 1/10, not an option),
#: and the dot format where no tree is printed
UNREAD_OPTIONS = [
    *(
        (command, flag, value)
        for command in ("arboricity", "verify-core", "oracle")
        for flag, value in (("--seed", "1"), ("--mode", "randomized"))
    ),
    *((command, "--epsilon", "0.2") for command in COMMANDS),
    *(
        (command, "--format", "dot")
        for command in COMMANDS
        if command not in ("hierarchy", "oracle")
    ),
]


class TestErrors:
    def test_main_builds_one_parser_and_exits_as_a_fresh_one(self, capsys, path_file, monkeypatch):
        import laminar.cli as cli

        built = []

        def counting_build():
            built.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build)
        try:
            assert run_cli(capsys, "strength", path_file) == (0, "strength: 1/1\n", "")
            assert run_cli(capsys, "arboricity", path_file)[0] == 0
            assert len(built) == 1
            # --help, a bad option and a bad choice exit as a parser built for the call would.
            for argv in (
                ["--help"],
                ["hierarchy", "--help"],
                ["hierarchy", path_file, "--bogus"],
                ["hierarchy", path_file, "--format", "xml"],
                [],
            ):
                with pytest.raises(SystemExit) as fresh:
                    build_parser().parse_args(argv)
                expected = (fresh.value.code, capsys.readouterr())
                for _ in range(2):
                    with pytest.raises(SystemExit) as cached:
                        main(argv)
                    assert (cached.value.code, capsys.readouterr()) == expected
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    @pytest.mark.parametrize("command,flag,value", UNREAD_OPTIONS)
    def test_unread_option_is_rejected(self, capsys, path_file, command, flag, value):
        argv = {
            "oracle": ["oracle", "min-ratio-cut", path_file],
            "verify-core": ["verify-core", path_file, "--set", "2,3"],
        }.get(command, [command, path_file])
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and value in err

    @pytest.mark.parametrize("value", ["1_0", "\u0662"], ids=["underscore", "arabic-indic-2"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-core", "{file}", "--set", "3,{value}"],
            ["hierarchy", "{file}", "--seed", "{value}"],
            ["densest", "{file}", "--mode", "randomized", "--k", "{value}"],
            ["entropy-check", "{file}", "--iterations", "{value}"],
        ],
        ids=["set", "seed", "k", "iterations"],
    )
    def test_integer_option_takes_ascii_decimal_only(self, capsys, path_file, argv, value):
        argv = [arg.format(file=path_file, value=value) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the options it reads
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out) == (2, "") and argv[-1] in err

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # About 250 KB of loads; the reader closes its end after one line.
        target = tmp_path / "path.txt"
        n = 5000
        target.write_text(f"{n} {n - 1}\n" + "".join(f"{i} {i + 1} {i + 1}\n" for i in range(n - 1)))
        src = os.path.dirname(os.path.dirname(laminar.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "laminar.cli", "ideal-loads", str(target)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.readline().startswith(b"edge 0 1 weight 1: load ")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (141, b"")

    @pytest.mark.parametrize("oracle", ["min-ratio-cut", "max-skew-density", "dense-core"])
    def test_oracle_without_a_tree_refuses_dot(self, capsys, path_file, oracle):
        argv = ["oracle", oracle, path_file, "--set", "2,3", "--format", "dot"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"oracle {oracle} has no dot format" in err

    def test_oracle_hierarchy_renders_dot(self, capsys, path_file):
        code, out, _ = run_cli(capsys, "oracle", "hierarchy", path_file, "--format", "dot")
        assert code == 0 and out.startswith("digraph")

    @pytest.mark.parametrize("iterations", ["0", "-5"])
    def test_entropy_check_needs_an_iteration(self, capsys, path_file, iterations):
        code, out, err = run_cli(capsys, "entropy-check", path_file, "--iterations", iterations)
        assert code == 2 and out == ""
        assert f"at least 1 iteration, got {iterations}" in err

    def test_densest_refuses_k_in_exact_mode(self, capsys, tmp_path):
        # K4 with weights 5 plus a pendant edge: the exact search finds all
        # of K4, which --k 2 could not bound, so exact mode refuses --k, and
        # does so before it reads the file.
        k4 = tmp_path / "k4.txt"
        k4.write_text("5 7\n0 1 5\n0 2 5\n0 3 5\n1 2 5\n1 3 5\n2 3 5\n3 4 5\n")
        code, out, _ = run_cli(capsys, "densest", str(k4))
        assert code == 0 and "densest: 0,1,2,3" in out
        for path in (str(k4), str(tmp_path / "missing.txt")):
            code, out, err = run_cli(capsys, "densest", path, "--k", "2")
            assert code == 2 and out == ""
            assert "exact mode takes no --k" in err

    def test_malformed_line_number(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 1\n0 2 5\n")
        code, _, err = run_cli(capsys, "arboricity", str(bad))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "arboricity", "/nonexistent/graph.txt")
        assert code == 2 and "cannot read" in err

    def test_disconnected_names_components(self, capsys, tmp_path):
        target = tmp_path / "two.txt"
        target.write_text("4 2\n0 1 3\n2 3 4\n")
        code, _, err = run_cli(capsys, "strength", str(target))
        assert code == 2
        assert "{0,1}" in err and "{2,3}" in err

    def test_disconnected_refusal_stays_small(self, capsys, tmp_path):
        # A one-edge file announcing a million vertices: the refusal names
        # ten components and the total, and per-vertex storage stays bounded.
        target = tmp_path / "sparse.txt"
        target.write_text("1000000 1\n0 1 1\n")
        graph = parse_edge_list(target.read_text())
        tracemalloc.start()
        try:
            assert not graph.is_connected()
            _, connected_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            code, _, err = run_cli(capsys, "arboricity", str(target))
            _, cli_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert connected_peak < 50 << 20 and cli_peak < 50 << 20
        assert code == 2
        assert "999999 components: {0,1}; {2};" in err and "{10}; ... (999989 more)" in err
        assert "{11}" not in err

    @pytest.mark.parametrize(
        "argv",
        [["arboricity", "--per-component"], ["strength", "--per-component"],
         ["verify-core", "--set", "0,1"]],
    )
    def test_header_past_the_index_range_is_refused(self, capsys, tmp_path, argv):
        # 10^30 vertices cannot index a per-vertex table; 36 bytes of input
        # must end in a one-line refusal that names the count, not a traceback.
        target = tmp_path / "huge.txt"
        target.write_text(f"{10**30} 1\n0 1 1\n")
        code, out, err = run_cli(capsys, argv[0], str(target), *argv[1:])
        assert (code, out) == (2, "")
        assert err == f"error: the graph declares {10**30} vertices, more than fit in memory\n"

    def test_size_guard_exit_code(self, capsys, tmp_path):
        g = random_connected_graph(__import__("random").Random(1), 11)
        target = tmp_path / "big.txt"
        target.write_text(format_edge_list(g))
        code, _, err = run_cli(capsys, "oracle", "min-ratio-cut", str(target))
        assert code == 3

    def test_entropy_check_guard_refuses_before_the_hierarchy(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "heavy.txt"
        target.write_text("2 1\n0 1 1000000000\n")

        def no_hierarchy(*args, **kwargs):
            raise AssertionError("the hierarchy was built before the size guard ran")

        monkeypatch.setattr("laminar.cli.build_hierarchy", no_hierarchy)
        code, out, err = run_cli(capsys, "entropy-check", str(target))
        assert (code, out) == (3, "")
        assert "unit-edge expansion exceeds 200" in err

    def test_empty_edge_input(self, capsys, tmp_path):
        target = tmp_path / "empty.txt"
        target.write_text("3 0\n")
        code, out, _ = run_cli(capsys, "arboricity", str(target))
        assert code == 0 and "arboricity: 0" in out


class TestPerComponent:
    def test_arboricity_max_over_components(self, capsys, tmp_path):
        target = tmp_path / "two.txt"
        target.write_text("5 3\n0 1 3\n2 3 4\n3 4 4\n")
        code, out, _ = run_cli(capsys, "arboricity", str(target), "--per-component")
        assert code == 0
        assert "arboricity: 4" in out

    def test_strength_per_component(self, capsys, tmp_path):
        target = tmp_path / "two.txt"
        target.write_text("4 2\n0 1 3\n2 3 5\n")
        code, out, _ = run_cli(capsys, "strength", str(target), "--per-component")
        assert code == 0
        assert "strength: 3/1" in out  # minimum over components

    def test_output_on_many_components(self, capsys, tmp_path):
        # Components in order of smallest vertex, an isolated vertex last;
        # the text is what the per-component induced subgraphs gave.
        target = tmp_path / "many.txt"
        target.write_text(
            "# four components and an isolated vertex\n11 9\n0 4 3\n4 7 2\n7 0 1\n"
            "1 5 6\n3 8 2\n8 9 5\n3 9 5\n8 9 1\n2 6 4\n"
        )
        code, out, _ = run_cli(capsys, "arboricity", str(target), "--per-component")
        assert code == 0 and out == (
            "arboricity: 7\nfractional: 13/2\n"
            "component {0,4,7}: arboricity 3, fractional 3/1\n"
            "component {1,5}: arboricity 6, fractional 6/1\n"
            "component {2,6}: arboricity 4, fractional 4/1\n"
            "component {3,8,9}: arboricity 7, fractional 13/2\n"
            "component {10}: arboricity 0, fractional 0/1\n"
        )
        code, out, _ = run_cli(capsys, "strength", str(target), "--per-component")
        assert code == 0 and out == (
            "strength: 3/1\n"
            "component {0,4,7}: strength 3/1\n"
            "component {1,5}: strength 6/1\n"
            "component {2,6}: strength 4/1\n"
            "component {3,8,9}: strength 13/2\n"
            "component {10}: strength undefined\n"
        )
        # The JSON is compared as text, so its key order and indentation are pinned too.
        code, out, _ = run_cli(
            capsys, "arboricity", str(target), "--per-component", "--format", "json"
        )
        expected = {
            "arboricity": 7,
            "fractional": "13/2",
            "components": [
                {"vertices": [0, 4, 7], "arboricity": 3, "fractional": "3/1"},
                {"vertices": [1, 5], "arboricity": 6, "fractional": "6/1"},
                {"vertices": [2, 6], "arboricity": 4, "fractional": "4/1"},
                {"vertices": [3, 8, 9], "arboricity": 7, "fractional": "13/2"},
                {"vertices": [10], "arboricity": 0, "fractional": "0/1"},
            ],
        }
        assert code == 0 and out == json.dumps(expected, indent=2) + "\n"
        code, out, _ = run_cli(
            capsys, "strength", str(target), "--per-component", "--format", "json"
        )
        expected = {
            "strength": "3/1",
            "components": [
                {"vertices": [0, 4, 7], "strength": "3/1"},
                {"vertices": [1, 5], "strength": "6/1"},
                {"vertices": [2, 6], "strength": "4/1"},
                {"vertices": [3, 8, 9], "strength": "13/2"},
                {"vertices": [10], "strength": None},
            ],
        }
        assert code == 0 and out == json.dumps(expected, indent=2) + "\n"
