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
        assert args.backend is None  # REPRO_KERNEL_BACKEND, else tracked

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
        outs = []
        for backend in ("tracked", "numpy"):
            assert main(
                ["dfs", "--family", "gnm", "--n", "48", "--backend", backend]
            ) == 0
            outs.append(capsys.readouterr().out)
        # the same tree on both engines (work counters may differ)
        assert outs[0].splitlines()[1] == outs[1].splitlines()[1]

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dfs", "--n", "5", "--root", "9"], "repro dfs: root 9 out of range [0, 5)"),
            (["dfs", "--n", "5", "--root", "-1"], "repro dfs: root -1 out of range [0, 5)"),
            (["dfs", "--n", "0"], "argument --n: must be >= 1, got 0"),
            (["dfs", "--n", "-3"], "argument --n: must be >= 1, got -3"),
            (["selfcheck", "--max-n", "1"], "argument --max-n: must be >= 3, got 1"),
            (["sweep", "--sizes", "8,abc"], "argument --sizes: invalid int value: 'abc'"),
            (["sweep", "--seeds", "0"], "argument --seeds: must be >= 1, got 0"),
            (["dfs", "--backend", "parallel"], "argument --backend: invalid choice"),
            (["dfs", "--backend", "rc"], "argument --backend: invalid choice"),
        ],
    )
    def test_bad_input_exits_2_without_traceback(self, capsys, argv, message):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert message in captured.err.strip().splitlines()[-1]


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
