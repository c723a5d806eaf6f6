"""Tests for the bench-regression watchdog (:mod:`repro.analysis.regress`).

Unit coverage of the ledger flattener and the metric taxonomy, synthetic
regression/improvement pairs through :func:`compare`, the CLI's exit
codes, and — the part CI actually runs — the real
``benchmarks/results/BENCH_PR*.json`` history gating clean from the PR
where the measurement methodology stabilized.
"""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

from repro.analysis.regress import (
    Delta,
    classify,
    compare,
    compare_dir,
    format_report,
    main,
    numeric_leaves,
)

RESULTS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "benchmarks",
    "results",
)


# ----------------------------------------------------------------------
# flattening
# ----------------------------------------------------------------------


class TestNumericLeaves:
    def test_nested_dicts_and_lists(self):
        doc = {"a": {"b": 2}, "xs": [1.5, {"c": 3}]}
        assert numeric_leaves(doc) == {
            "a.b": 2.0,
            "xs[0]": 1.5,
            "xs[1].c": 3.0,
        }

    def test_bools_and_strings_are_not_leaves(self):
        doc = {"ok": True, "host": "ci", "v": 1}
        assert numeric_leaves(doc) == {"v": 1.0}

    def test_verdict_list_derives_ok_fraction(self):
        doc = {
            "envelopes": [
                {"ok": True, "t_s": 0.1},
                {"ok": True, "t_s": 0.2},
                {"ok": False, "t_s": 0.3},
                {"ok": True, "t_s": 0.4},
            ]
        }
        leaves = numeric_leaves(doc)
        assert leaves["envelopes.ok_fraction"] == pytest.approx(0.75)
        # the per-entry numerics are still flattened alongside
        assert leaves["envelopes[2].t_s"] == pytest.approx(0.3)

    def test_plain_number_list_has_no_ok_fraction(self):
        assert "ok_fraction" not in " ".join(numeric_leaves([1, 2, 3]))


# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------


class TestClassify:
    @pytest.mark.parametrize(
        "path",
        [
            "e17_driver.end_to_end[1].ratio",
            "subsystem[2].speedup",
            "service.cache_hit_rate",
            "envelopes.ok_fraction",
        ],
    )
    def test_gated_higher_is_better(self, path):
        assert classify(path) == ("gated", True)

    @pytest.mark.parametrize(
        "path,higher",
        [
            ("e20.latency.p99_ms", False),
            ("e17.elapsed_s", False),
            ("peak_rss_kb", False),
            ("e20.throughput.requests_per_s", True),
            ("tracked.work", False),
            ("tracked.span", False),
        ],
    )
    def test_advisory_and_direction(self, path, higher):
        assert classify(path) == ("advisory", higher)

    def test_phase_profile_children_are_advisory(self):
        # leaf names under a profile are phase/size keys with no unit
        assert classify("e17_driver.phase_profile.2000.absorb") == (
            "advisory",
            False,
        )
        assert classify("numpy_phase_profile.500.components") == (
            "advisory",
            False,
        )

    @pytest.mark.parametrize(
        "path",
        ["git_sha", "workload.n", "workload.m", "seed", "rounds"],
    )
    def test_provenance_and_workload_are_ignored(self, path):
        assert classify(path)[0] is None

    def test_index_suffix_is_stripped_before_matching(self):
        assert classify("samples.ratio[3]") == ("gated", True)


# ----------------------------------------------------------------------
# deltas + compare
# ----------------------------------------------------------------------


def ledger(ratio=1.3, p99=5.0, extra=None):
    doc = {
        "git_sha": 123456,
        "e17": {
            "end_to_end": [{"n": 1000, "ratio": ratio, "elapsed_s": 2.0}]
        },
        "e20": {"latency": {"p99_ms": p99}},
    }
    if extra:
        doc.update(extra)
    return doc


class TestProvenance:
    """Entries are compared only when they ran the same engine(s) and
    structure."""

    def _doc(self, ratio, **stamp):
        return {"e17": {"ratio": ratio, **stamp}, "e20": {"speedup": 2.0}}

    def test_differing_engine_is_refused_not_gated(self):
        old = self._doc(1.3, kernel_backend="tracked", structure="flat")
        new = self._doc(0.5, kernel_backend=["numpy", "tracked"],
                        structure="flat")
        report = compare(old, new)
        assert report.ok and report.compared == 1  # e20 only
        assert report.refused == [
            ("e17", "kernel_backend", "tracked", ["numpy", "tracked"])
        ]
        assert "refused: e17" in format_report(report)

    def test_differing_structure_is_refused(self):
        report = compare(
            self._doc(1.3, kernel_backend="numpy", structure="rc"),
            self._doc(1.3, kernel_backend="numpy", structure="flat"),
        )
        assert [r[:2] for r in report.refused] == [("e17", "structure")]

    def test_same_stamp_or_absent_field_still_compares(self):
        same = compare(
            self._doc(1.3, kernel_backend="numpy", structure="flat"),
            self._doc(1.0, kernel_backend="numpy", structure="flat"),
        )
        assert not same.ok and not same.refused
        partial = compare(
            self._doc(1.3, kernel_backend="numpy"),
            self._doc(1.0, kernel_backend="numpy", structure="flat"),
        )
        assert not partial.ok and not partial.refused

    def test_json_output_lists_refusals(self, tmp_path, capsys):
        a = write(tmp_path, "old.json",
                  self._doc(1.3, kernel_backend="tracked"))
        b = write(tmp_path, "new.json",
                  self._doc(1.3, kernel_backend="numpy"))
        assert main([a, b, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["refused"] == [
            {"entry": "e17", "field": "kernel_backend",
             "old": "tracked", "new": "numpy"}
        ]


def _bench_conftest(path=os.path.join(os.path.dirname(RESULTS_DIR), "conftest.py")):
    spec = importlib.util.spec_from_file_location("bench_conftest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestLedgerStamp:
    """``publish_json`` stamps what the bench passed, not the process
    default engine."""

    def test_ran_engines_and_structure_are_stamped(self, tmp_path,
                                                   monkeypatch):
        conf = _bench_conftest()
        ledger_path = tmp_path / "BENCH.json"
        monkeypatch.setattr(conf, "BENCH_JSON", str(ledger_path))
        monkeypatch.setattr(conf, "RESULTS_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "tracked")
        conf.publish_json(
            "e17", {"ratio": 2.0},
            ran={"kernel_backend": ["numpy", "tracked"], "structure": "flat"},
        )
        conf.publish_json("e20", {"ops": 1},
                          ran={"kernel_backend": "numpy", "structure": "flat"})
        conf.publish_json("e1", {"work": 5})
        conf.publish_json("test_e1", {"wall_s": 0.1}, ran={})
        doc = json.loads(ledger_path.read_text())
        assert doc["e17"]["kernel_backend"] == ["numpy", "tracked"]
        assert doc["e20"]["kernel_backend"] == "numpy"
        assert doc["e17"]["structure"] == doc["e20"]["structure"] == "flat"
        # no engine passed: the default engine ran
        assert doc["e1"]["kernel_backend"] == "tracked"
        assert "structure" not in doc["e1"]
        # timing-only entries claim no engine
        assert "kernel_backend" not in doc["test_e1"]
        assert doc["test_e1"]["cpu_count"] >= 1

    def test_dirty_tree_is_stamped(self, tmp_path, monkeypatch):
        # numbers from a tree that differs from HEAD are not HEAD's; the
        # bench's own results/ tables are written before the first stamp
        # and do not count
        repo = tmp_path / "repo"
        bench = repo / "benchmarks"
        (bench / "results").mkdir(parents=True)
        shutil.copy(os.path.join(os.path.dirname(RESULTS_DIR), "conftest.py"),
                    bench / "conftest.py")
        (repo / "mod.py").write_text("x = 1\n")
        (bench / "results" / "e1.txt").write_text("old\n")
        for args in (["init", "-q"], ["add", "-A"],
                     ["commit", "-q", "-m", "seed"]):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t",
                 "-c", "commit.gpgsign=false", *args],
                cwd=repo, check=True, capture_output=True,
            )
        conf = _bench_conftest(str(bench / "conftest.py"))
        ledger_path = tmp_path / "BENCH.json"
        monkeypatch.setattr(conf, "BENCH_JSON", str(ledger_path))
        monkeypatch.setattr(conf, "RESULTS_DIR", str(tmp_path))

        def stamp() -> str:
            conf._git_sha = None  # the sha is cached per process
            conf.publish_json("e1", {"work": 5}, ran={})
            return json.loads(ledger_path.read_text())["e1"]["git_sha"]

        clean = stamp()
        assert len(clean) == 12
        (bench / "results" / "e1.txt").write_text("new\n")
        assert stamp() == clean
        (repo / "mod.py").write_text("x = 2\n")
        assert stamp() == clean + "-dirty"

    def test_e17_and_e20_stamp_what_they_run(self, monkeypatch):
        import sys

        bench_dir = os.path.dirname(RESULTS_DIR)
        # the benches import their harness as a top-level ``conftest``
        monkeypatch.delitem(sys.modules, "conftest", raising=False)
        sys.path.insert(0, bench_dir)
        try:
            spec = importlib.util.spec_from_file_location(
                "bench_e20", os.path.join(bench_dir, "bench_e20_service.py")
            )
            e20 = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(e20)
            spec = importlib.util.spec_from_file_location(
                "bench_e17", os.path.join(bench_dir, "bench_e17_driver.py")
            )
            e17 = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(e17)
        finally:
            sys.path.remove(bench_dir)
            sys.modules.pop("conftest", None)
        assert e20.RAN == {"kernel_backend": "numpy", "structure": "flat"}
        assert e20.RAN["kernel_backend"] == e20.CONFIG.kernel_backend
        assert e17.RAN == {"kernel_backend": ["numpy", "tracked"],
                           "structure": e17.STRUCTURE}


class TestCompare:
    def test_worsening_sign_respects_direction(self):
        up_bad = Delta("x.p99_ms", "advisory", 10.0, 12.0, False)
        assert up_bad.worsening == pytest.approx(0.2)
        down_bad = Delta("x.ratio", "gated", 1.0, 0.8, True)
        assert down_bad.worsening == pytest.approx(0.2)
        improvement = Delta("x.ratio", "gated", 1.0, 1.2, True)
        assert improvement.worsening == pytest.approx(-0.2)

    def test_zero_to_nonzero_is_infinite_worsening(self):
        assert Delta("x.p99_ms", "advisory", 0.0, 1.0, False).worsening == (
            float("inf")
        )

    def test_ten_percent_ratio_drop_is_flagged(self):
        # the acceptance scenario: a synthetic 10%+ E17 ratio regression
        report = compare(ledger(ratio=1.30), ledger(ratio=1.15))
        assert not report.ok
        (d,) = report.regressions
        assert d.path == "e17.end_to_end[0].ratio"
        assert d.kind == "gated"
        assert d.worsening > 0.10
        assert "REGRESSION" in format_report(report)

    def test_improvement_and_small_drift_pass(self):
        assert compare(ledger(ratio=1.30), ledger(ratio=1.45)).ok
        assert compare(ledger(ratio=1.30), ledger(ratio=1.25)).ok

    def test_advisory_is_warning_unless_gated(self):
        old, new = ledger(p99=5.0), ledger(p99=9.0)
        report = compare(old, new)
        assert report.ok
        assert [d.path for d in report.warnings] == ["e20.latency.p99_ms"]
        assert "warning" in format_report(report)
        gated = compare(old, new, gate_advisory=True)
        assert not gated.ok

    def test_disjoint_ledgers_pass_trivially(self):
        report = compare(
            {"e17": {"ratio": 1.3}}, {"e21": {"speedup": 2.0}}
        )
        assert report.ok and report.compared == 0

    def test_ok_fraction_regression_is_gated(self):
        old = {"envelopes": [{"ok": True}] * 10}
        new = {"envelopes": [{"ok": True}] * 8 + [{"ok": False}] * 2}
        report = compare(old, new)
        assert not report.ok
        assert report.regressions[0].path == "envelopes.ok_fraction"


# ----------------------------------------------------------------------
# the real ledger history
# ----------------------------------------------------------------------


class TestRealLedgers:
    def test_results_dir_has_gateable_history(self):
        names = sorted(os.listdir(RESULTS_DIR))
        assert sum(n.startswith("BENCH_PR") for n in names) >= 3

    def test_real_history_gates_clean_since_methodology(self):
        reports = list(compare_dir(RESULTS_DIR, since=5))
        assert reports, "no consecutive ledger pairs compared"
        for report in reports:
            assert report.ok, format_report(report)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestMain:
    def test_pair_ok_exit_zero(self, tmp_path, capsys):
        a = write(tmp_path, "old.json", ledger())
        b = write(tmp_path, "new.json", ledger())
        assert main([a, b]) == 0
        assert "0 regression(s)" in capsys.readouterr().out

    def test_pair_regression_exit_one(self, tmp_path, capsys):
        a = write(tmp_path, "old.json", ledger(ratio=1.3))
        b = write(tmp_path, "new.json", ledger(ratio=1.1))
        assert main([a, b]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_dir_mode_with_since(self, tmp_path):
        write(tmp_path, "BENCH_PR2.json", ledger(ratio=2.0))
        write(tmp_path, "BENCH_PR6.json", ledger(ratio=1.3))
        write(tmp_path, "BENCH_PR8.json", ledger(ratio=1.28))
        # PR2 -> PR6 would be a 35% drop; --since 5 excludes it
        assert main(["--dir", str(tmp_path)]) == 1
        assert main(["--dir", str(tmp_path), "--since", "5"]) == 0

    def test_json_output(self, tmp_path, capsys):
        a = write(tmp_path, "old.json", ledger(ratio=1.3))
        b = write(tmp_path, "new.json", ledger(ratio=1.1))
        assert main([a, b, "--json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc[0]["ok"] is False
        assert doc[0]["regressions"][0]["path"] == (
            "e17.end_to_end[0].ratio"
        )

    def test_io_error_exit_two(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        a = write(tmp_path, "old.json", ledger())
        assert main([a, missing]) == 2
        assert "regress:" in capsys.readouterr().err

    def test_real_directory_invocation(self):
        assert main(["--dir", RESULTS_DIR, "--since", "5"]) == 0
