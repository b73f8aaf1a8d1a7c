"""Command-line behavior: formats, determinism, exit codes."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction as Fr

import pytest

from laminar import HierarchyNode, HierarchyTree, WeightedGraph, build_hierarchy
from laminar.cli import (
    hierarchy_from_json,
    hierarchy_json_text,
    hierarchy_to_dot,
    hierarchy_to_json,
    hierarchy_to_text,
    main,
)
from laminar.graph import format_edge_list, parse_edge_list

from .conftest import random_connected_graph

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
        code, out, _ = run_cli(capsys, "densest", path_file, "--k", "2")
        assert code == 0
        assert "densest: 2,3" in out and "density: 100/1" in out

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


class TestJsonRoundTrip:
    def test_tree_round_trips(self):
        import random

        for trial in range(5):
            g = random_connected_graph(random.Random(trial), 6)
            tree = build_hierarchy(g)
            rebuilt = hierarchy_from_json(hierarchy_to_json(tree), g)
            assert rebuilt.root == tree.root

    def test_json_text_matches_the_standard_encoder(self):
        import random

        trees = [build_hierarchy(WeightedGraph.from_edges(1, []))]
        for trial in range(8):
            g = random_connected_graph(random.Random(trial), 7)
            trees.append(build_hierarchy(g))
        trees.append(chain_tree(300))
        for tree in trees:
            expected = json.dumps(hierarchy_to_json(tree), indent=2)
            assert hierarchy_json_text(tree) == expected

    def test_byte_identical_given_seed(self, capsys, path_file):
        first = run_cli(capsys, "hierarchy", path_file, "--seed", "3", "--format", "json")
        second = run_cli(capsys, "hierarchy", path_file, "--seed", "3", "--format", "json")
        assert first == second

    def test_byte_identical_randomized_mode(self, capsys, path_file):
        args = ("densest", path_file, "--mode", "randomized", "--seed", "7")
        assert run_cli(capsys, *args) == run_cli(capsys, *args)


def chain_tree(depth: int) -> HierarchyTree:
    """A hierarchy with `depth` internal nodes, each the parent of the next.

    Internal node i has children leaf {i} and internal node i+1.  The index
    and the renderers do not check that children partition their parent, so
    each internal node carries one fresh label, which keeps the tree linear
    in size instead of quadratic.
    """
    node = HierarchyNode(frozenset({depth}), (), None)
    for level in reversed(range(depth)):
        leaf = HierarchyNode(frozenset({level}), (), None)
        node = HierarchyNode(frozenset({depth + 1 + level}), (leaf, node), Fr(level + 1))
    n = 2 * depth + 1
    graph = WeightedGraph.from_edges(n, [(v, v + 1, 1) for v in range(n - 1)])
    return HierarchyTree(root=node, graph=graph)


class TestDeepHierarchy:
    DEPTH = 5000

    def test_tree_and_renderers_handle_depth_5000(self):
        depth = self.DEPTH
        tree = chain_tree(depth)
        assert len(tree.node_by_set) == 2 * depth + 1
        assert sum(1 for _ in tree.internal_nodes()) == depth

        text = hierarchy_to_text(tree).split("\n")
        assert len(text) == 2 * depth + 1
        assert text[0] == f"- {{{depth + 1}}} sigma=1/1"
        assert text[-1] == "  " * depth + f"- {{{depth}}}"

        dot = hierarchy_to_dot(tree).split("\n")
        assert len(dot) == 2 + (2 * depth + 1) + 2 * depth
        assert dot[-2] == "  n0 -> n2;"  # the root's arc to its deep child comes last

        data = hierarchy_to_json(tree)
        rebuilt = hierarchy_from_json(data, tree.graph)
        assert hierarchy_to_text(rebuilt) == "\n".join(text)

    def test_node_equality_hash_and_repr_at_depth_5000(self):
        depth = self.DEPTH

        def chain_root(deepest_sigma):
            node = HierarchyNode(frozenset({depth}), (), None)
            for level in reversed(range(depth)):
                leaf = HierarchyNode(frozenset({level}), (), None)
                sigma = deepest_sigma if level == depth - 1 else Fr(level + 1)
                node = HierarchyNode(frozenset({depth + 1 + level}), (leaf, node), sigma)
            return node

        tree = chain_tree(depth)
        same = chain_root(Fr(depth))
        other = chain_root(Fr(1, 2))  # differs only in the deepest internal node
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
            f"HierarchyNode(vertex_set=frozenset({{{depth + 1}}}), children="
            "(HierarchyNode(vertex_set=frozenset({0}), children=(), sigma=None), "
        )
        assert text.endswith("), sigma=Fraction(2, 1))), sigma=Fraction(1, 1))")
        assert repr(other) != text

    def test_node_repr_matches_the_generated_form(self):
        leaf = HierarchyNode(frozenset({3}), (), None)
        only = HierarchyNode(frozenset({3, 4}), (leaf,), Fr(5, 3))
        pair = HierarchyNode(frozenset({0, 3}), (only, leaf), None)
        assert repr(only) == (
            "HierarchyNode(vertex_set=frozenset({3, 4}), children=(HierarchyNode("
            "vertex_set=frozenset({3}), children=(), sigma=None),), sigma=Fraction(5, 3))"
        )
        assert repr(pair) == (
            f"HierarchyNode(vertex_set=frozenset({{0, 3}}), children=({only!r}, "
            f"{leaf!r}), sigma=None)"
        )
        assert pair != leaf and pair == HierarchyNode(frozenset({0, 3}), (only, leaf), None)
        assert (leaf == 3) is False

    def test_json_text_past_the_standard_encoder_depth(self):
        # json.dumps fails near 500 levels; the indented text of a chain grows
        # with the square of its depth, so 1000 levels keep it near 30 MB.
        depth = 1000
        lines = hierarchy_json_text(chain_tree(depth)).split("\n")
        assert lines[-1] == "}"
        assert sum(line.strip() == '"children": []' for line in lines) == depth + 1


#: options a subcommand does not read: the search options where no search
#: runs, and the dot format where no tree is printed
UNREAD_OPTIONS = [
    *(
        (command, flag, value)
        for command in ("arboricity", "verify-core", "oracle")
        for flag, value in (("--seed", "1"), ("--mode", "randomized"), ("--epsilon", "0.2"))
    ),
    *(
        (command, "--format", "dot")
        for command in (
            "arboricity", "strength", "ideal-loads", "densest", "verify-core", "entropy-check"
        )
    ),
]


class TestErrors:
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
        code, out, _ = run_cli(
            capsys, "strength", str(target), "--per-component", "--format", "json"
        )
        assert code == 0 and json.loads(out) == {
            "strength": "3/1",
            "components": [
                {"vertices": [0, 4, 7], "strength": "3/1"},
                {"vertices": [1, 5], "strength": "6/1"},
                {"vertices": [2, 6], "strength": "4/1"},
                {"vertices": [3, 8, 9], "strength": "13/2"},
                {"vertices": [10], "strength": None},
            ],
        }
