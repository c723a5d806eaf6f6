"""Tests for the CLI (`python -m repro ...`)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dfs_defaults(self):
        args = build_parser().parse_args(["dfs"])
        assert args.family == "gnm"
        assert args.n == 512
        assert args.backend == "rc"

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["dfs", "--family", "nope"])


class TestCommands:
    def test_dfs_runs(self, capsys):
        assert main(["dfs", "--family", "grid", "--n", "64", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "work  W" in out
        assert "Brent" in out

    def test_dfs_all_backends(self, capsys):
        for backend in ("rc", "rc-det", "lct"):
            assert main(
                ["dfs", "--family", "gnm", "--n", "48", "--backend", backend]
            ) == 0

    def test_sweep_prints_slopes(self, capsys):
        assert main(
            ["sweep", "--family", "gnm", "--sizes", "64,128", "--seeds", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "work slope" in out
        assert "D/sqrt(n)" in out

    def test_sweep_sequential(self, capsys):
        assert main(
            ["sweep", "--algorithm", "sequential", "--sizes", "64,128"]
        ) == 0

    def test_selfcheck_all_valid(self, capsys):
        assert main(["selfcheck", "--trials", "4", "--max-n", "40"]) == 0
        out = capsys.readouterr().out
        assert "4/4 valid DFS trees" in out


class TestFileIO:
    def test_dfs_from_edge_list_and_save(self, tmp_path, capsys):
        from repro.graph.generators import gnm_random_connected_graph
        from repro.graph.io import load_dfs_tree, write_edge_list
        from repro.core.verify import is_valid_dfs_tree

        g = gnm_random_connected_graph(40, 90, seed=4)
        src = tmp_path / "g.txt"
        dst = tmp_path / "tree.json"
        write_edge_list(g, src)
        assert main([
            "dfs", "--edge-list", str(src), "--save-tree", str(dst),
        ]) == 0
        root, parent, _ = load_dfs_tree(dst)
        assert is_valid_dfs_tree(g, root, parent)

    @pytest.mark.parametrize(
        "text, reason",
        [
            ("0 1\n1 1\n1 2\n", "g.txt:2: self-loop (1, 1)"),
            ("0 1\n1 2\n2 1\n", "g.txt:3: duplicate edge (1, 2) (first on line 2)"),
        ],
    )
    def test_dfs_rejects_bad_edge_list_with_exit_2(
        self, tmp_path, capsys, text, reason
    ):
        src = tmp_path / "g.txt"
        src.write_text(text)
        assert main(["dfs", "--edge-list", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro dfs: ")
        assert lines[0].endswith(reason)
