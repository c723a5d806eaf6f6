"""Tests for graph / DFS-tree I/O."""

import pytest

from repro import parallel_dfs
from repro.core.verify import is_valid_dfs_tree
from repro.graph import generators as G
from repro.graph.io import (
    load_dfs_tree,
    read_dimacs,
    read_edge_list,
    save_dfs_tree,
    write_dimacs,
    write_edge_list,
)


class TestEdgeList:
    def test_roundtrip(self, tmp_path):
        g = G.gnm_random_connected_graph(30, 70, seed=1)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        h = read_edge_list(p)
        assert h.n == g.n and set(h.edges) == set(g.edges)

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# header\n\n0 1  # inline\n2 3\n")
        g = read_edge_list(p)
        assert g.n == 4 and g.edges == [(0, 1), (2, 3)]

    def test_gaps_in_ids(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 7\n")
        g = read_edge_list(p)
        assert g.n == 8

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1 2\n")
        with pytest.raises(ValueError, match="expected"):
            read_edge_list(p)

    def test_negative_id(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("-1 2\n")
        with pytest.raises(ValueError, match="negative"):
            read_edge_list(p)

    def test_self_loop_names_the_line(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("# comment\n0 1\n3 3\n")
        with pytest.raises(ValueError, match=r"g\.txt:3: self-loop \(3, 3\)"):
            read_edge_list(p)

    def test_duplicate_edge_names_both_lines(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 1\n2 1\n1 0\n")
        with pytest.raises(
            ValueError, match=r"g\.txt:3: duplicate edge \(0, 1\) \(first on line 1\)"
        ):
            read_edge_list(p)


class TestDimacs:
    def test_roundtrip(self, tmp_path):
        g = G.grid_graph(4, 5)
        p = tmp_path / "g.col"
        write_dimacs(g, p, comment="grid 4x5")
        h = read_dimacs(p)
        assert h.n == g.n and set(h.edges) == set(g.edges)

    def test_one_indexing(self, tmp_path):
        p = tmp_path / "g.col"
        p.write_text("c demo\np edge 3 2\ne 1 2\ne 2 3\n")
        g = read_dimacs(p)
        assert g.edges == [(0, 1), (1, 2)]

    def test_edge_before_header(self, tmp_path):
        p = tmp_path / "g.col"
        p.write_text("e 1 2\n")
        with pytest.raises(ValueError, match="before"):
            read_dimacs(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "g.col"
        p.write_text("c nothing\n")
        with pytest.raises(ValueError, match="missing"):
            read_dimacs(p)

    def test_unknown_record(self, tmp_path):
        p = tmp_path / "g.col"
        p.write_text("p edge 2 1\nx 1 2\n")
        with pytest.raises(ValueError, match="unknown"):
            read_dimacs(p)


class TestTreeJSON:
    def test_roundtrip(self, tmp_path):
        g = G.gnm_random_connected_graph(40, 90, seed=2)
        res = parallel_dfs(g, 3)
        p = tmp_path / "tree.json"
        save_dfs_tree(p, res.root, res.parent, res.depth)
        root, parent, depth = load_dfs_tree(p)
        assert root == 3
        assert parent == res.parent
        assert depth == res.depth
        assert is_valid_dfs_tree(g, root, parent)

    def test_roundtrip_without_depth(self, tmp_path):
        p = tmp_path / "tree.json"
        save_dfs_tree(p, 0, {0: None, 1: 0})
        root, parent, depth = load_dfs_tree(p)
        assert root == 0 and parent == {0: None, 1: 0} and depth is None


class TestEndToEndFromFile:
    def test_dfs_on_loaded_graph(self, tmp_path):
        g = G.gnm_random_connected_graph(50, 120, seed=3)
        p = tmp_path / "g.txt"
        write_edge_list(g, p)
        h = read_edge_list(p)
        res = parallel_dfs(h, 0, verify=True)
        assert len(res.parent) == 50
