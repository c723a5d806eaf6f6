"""Tests for repro-lint: per-rule fixtures, suppression, baseline, CLI.

Each rule gets a true-positive fixture (minimal synthetic source under a
fabricated ``repro/...`` path that must be flagged), a true-negative
(the compliant spelling of the same code must be clean), and a
suppression check (the violation plus a ``# repro-lint: disable=``
comment must produce zero findings).  The baseline tests pin the
checked-in ``lint-baseline.json`` to the actual state of ``src/repro``:
zero unbaselined findings, zero stale entries, every entry justified by
a note.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, Baseline, lint_paths, lint_sources

REPO = Path(__file__).resolve().parent.parent
SRC_REPRO = REPO / "src" / "repro"
BASELINE = REPO / "lint-baseline.json"


def run_rule(rel: str, source: str, only=None):
    """Lint one synthetic file at package-relative path ``rel``."""
    res = lint_sources([(f"<test>/{rel}", rel, textwrap.dedent(source))], only=only)
    assert not res.parse_errors, res.parse_errors
    return res


def rule_ids(res):
    return [f.rule for f in res.findings]


# ----------------------------------------------------------------------
# R001: untracked work
# ----------------------------------------------------------------------
R001_BAD = """
    def total_degree(g):
        total = 0
        for v in g.vertices:
            total += len(g.adj[v])
        return total
"""

R001_GOOD = """
    def total_degree(t, g):
        total = 0
        for v in g.vertices:
            t.op(1)
            total += len(g.adj[v])
        return total
"""


def test_r001_flags_untracked_loop():
    res = run_rule("core/example.py", R001_BAD, only=["R001"])
    assert rule_ids(res) == ["R001"]
    assert "total_degree" in res.findings[0].message


def test_r001_accepts_charged_loop():
    res = run_rule("core/example.py", R001_GOOD, only=["R001"])
    assert rule_ids(res) == []


def test_r001_accepts_any_charge_method():
    for call in ("t.charge(len(xs), 1)", "t.parallel_for(xs, f)"):
        src = f"""
            def go(t, xs, f):
                for x in xs:
                    pass
                {call}
        """
        res = run_rule("matching/example.py", src, only=["R001"])
        assert rule_ids(res) == [], call


def test_r001_ignores_constant_sized_loops():
    src = """
        def pick():
            out = []
            for i in range(3):
                out.append(i)
            return [c for c in (0, 1, 2)]
    """
    res = run_rule("core/example.py", src, only=["R001"])
    assert rule_ids(res) == []


def test_r001_scope_is_tracked_packages_only():
    res = run_rule("analysis/example.py", R001_BAD, only=["R001"])
    assert rule_ids(res) == []


def test_r001_suppression():
    src = """
        def total_degree(g):
            total = 0
            for v in g.vertices:  # repro-lint: disable=R001
                total += len(g.adj[v])
            return total
    """
    res = run_rule("core/example.py", src, only=["R001"])
    assert rule_ids(res) == []
    assert res.suppressed == 1


# ----------------------------------------------------------------------
# R002: nondeterministic iteration
# ----------------------------------------------------------------------
R002_BAD = """
    def labels(roots):
        seen = set(roots)
        return [v for v in seen]
"""

R002_GOOD = """
    def labels(roots):
        seen = set(roots)
        return [v for v in sorted(seen)]
"""


def test_r002_flags_unsorted_set_iteration():
    res = run_rule("kernels/example.py", R002_BAD, only=["R002"])
    assert rule_ids(res) == ["R002"]


def test_r002_accepts_sorted_iteration():
    res = run_rule("kernels/example.py", R002_GOOD, only=["R002"])
    assert rule_ids(res) == []


def test_r002_flags_dict_views():
    src = """
        def invert(pairs):
            d = dict(pairs)
            out = {}
            for k, v in d.items():
                out[v] = k
            return out
    """
    res = run_rule("structures/example.py", src, only=["R002"])
    assert rule_ids(res) == ["R002"]


def test_r002_order_insensitive_consumers_are_clean():
    src = """
        def stats(roots):
            seen = set(roots)
            return len(seen), sum(seen), max(seen), sorted(seen)
    """
    res = run_rule("kernels/example.py", src, only=["R002"])
    assert rule_ids(res) == []


def test_r002_scope_is_lockstep_packages_only():
    res = run_rule("analysis/example.py", R002_BAD, only=["R002"])
    assert rule_ids(res) == []


def test_r002_suppression():
    src = """
        def labels(roots):
            seen = set(roots)
            return [v for v in seen]  # repro-lint: disable=R002
    """
    res = run_rule("kernels/example.py", src, only=["R002"])
    assert rule_ids(res) == []
    assert res.suppressed == 1


# ----------------------------------------------------------------------
# R003: raw RNG
# ----------------------------------------------------------------------
R003_BAD = """
    import random

    def shuffle_ids(ids):
        random.shuffle(ids)
        return ids
"""

R003_GOOD = """
    import random

    def shuffle_ids(ids, seed):
        rng = random.Random(seed)
        rng.shuffle(ids)
        return ids
"""


def test_r003_flags_module_level_random():
    res = run_rule("core/example.py", R003_BAD, only=["R003"])
    assert rule_ids(res) == ["R003"]


def test_r003_accepts_seeded_instance():
    res = run_rule("core/example.py", R003_GOOD, only=["R003"])
    assert rule_ids(res) == []


def test_r003_flags_np_random():
    src = """
        import numpy as np

        def noise(n):
            return np.random.rand(n)
    """
    res = run_rule("kernels/example.py", src, only=["R003"])
    assert rule_ids(res) == ["R003"]


def test_r003_rng_owner_files_are_exempt():
    res = run_rule("kernels/rng.py", R003_BAD, only=["R003"])
    assert rule_ids(res) == []


def test_r003_suppression():
    src = """
        import random

        def shuffle_ids(ids):
            random.shuffle(ids)  # repro-lint: disable=R003
            return ids
    """
    res = run_rule("core/example.py", src, only=["R003"])
    assert rule_ids(res) == []
    assert res.suppressed == 1


# ----------------------------------------------------------------------
# R004: dropped backend forwarding
# ----------------------------------------------------------------------
def test_r004_flags_dropped_backend_forwarding():
    src = """
        def helper(g, kernel_backend=None):
            return g

        def entry(g, kernel_backend=None):
            return helper(g)
    """
    res = run_rule("core/example.py", src, only=["R004"])
    assert rule_ids(res) == ["R004"]
    assert "kernel_backend" in res.findings[0].message


def test_r004_accepts_forwarded_backend():
    src = """
        def helper(g, kernel_backend=None):
            return g

        def entry(g, kernel_backend=None):
            return helper(g, kernel_backend=kernel_backend)
    """
    res = run_rule("core/example.py", src, only=["R004"])
    assert rule_ids(res) == []


def test_r004_suppression():
    src = """
        def helper(g, kernel_backend=None):
            return g

        def entry(g, kernel_backend=None):
            return helper(g)  # repro-lint: disable=R004
    """
    res = run_rule("core/example.py", src, only=["R004"])
    assert rule_ids(res) == []
    assert res.suppressed == 1


# ----------------------------------------------------------------------
# R005: float ordering in lockstep code
# ----------------------------------------------------------------------
R005_BAD = """
    def pick(weight_a: float, weight_b: float) -> int:
        if weight_a < weight_b:
            return 0
        return 1
"""

R005_GOOD = """
    def pick(count_a: int, count_b: int) -> int:
        if count_a < count_b:
            return 0
        return 1
"""


def test_r005_flags_float_ordering_compare():
    res = run_rule("core/example.py", R005_BAD, only=["R005"])
    assert rule_ids(res) == ["R005"]


def test_r005_accepts_int_ordering_compare():
    res = run_rule("core/example.py", R005_GOOD, only=["R005"])
    assert rule_ids(res) == []


def test_r005_flags_float_min_key():
    src = """
        def best(vertices, score: dict[int, float]) -> int:
            return min(vertices, key=lambda v: score[v])
    """
    res = run_rule("core/example.py", src, only=["R005"])
    assert rule_ids(res) == ["R005"]


def test_r005_scope_is_lockstep_packages_only():
    res = run_rule("analysis/example.py", R005_BAD, only=["R005"])
    assert rule_ids(res) == []


def test_r005_suppression():
    src = """
        def pick(weight_a: float, weight_b: float) -> int:
            if weight_a < weight_b:  # repro-lint: disable=R005
                return 0
            return 1
    """
    res = run_rule("core/example.py", src, only=["R005"])
    assert rule_ids(res) == []
    assert res.suppressed == 1


# ----------------------------------------------------------------------
# R006: observability calls in kernel loops
# ----------------------------------------------------------------------
R006_BAD = """
    from ..obs.runtime import metrics as _obs_metrics

    def scatter_rounds(t, live):
        while live:
            _obs_metrics().counter("kernel.rounds").inc()
            live = live[1:]
"""

R006_GOOD = """
    from ..obs.runtime import metrics as _obs_metrics

    def scatter_rounds(t, live):
        rounds = 0
        while live:
            rounds += 1
            live = live[1:]
        _obs_metrics().counter("kernel.rounds").inc(rounds)
"""


def test_r006_flags_obs_call_in_kernel_loop():
    res = run_rule("kernels/example.py", R006_BAD, only=["R006"])
    # both the alias-rooted call and the .inc/.counter method calls on
    # its result anchor at the same loop; at least one finding is R006
    assert rule_ids(res) and set(rule_ids(res)) == {"R006"}


def test_r006_accepts_aggregate_recording_after_loop():
    res = run_rule("kernels/example.py", R006_GOOD, only=["R006"])
    assert rule_ids(res) == []


def test_r006_flags_instrument_method_in_for_loop():
    src = """
        def fold(ctr, hist, items):
            for x in items:
                hist.observe(x)
    """
    res = run_rule("kernels/example.py", src, only=["R006"])
    assert rule_ids(res) == ["R006"]


def test_r006_accepts_constant_sized_loop():
    src = """
        from ..obs import runtime as obs

        def probe(t):
            for name in ("a", "b"):
                obs.metrics().counter(name).inc()
    """
    res = run_rule("kernels/example.py", src, only=["R006"])
    assert rule_ids(res) == []


def test_r006_scope_excludes_structures():
    # the same spelling is the sanctioned idiom in structures/ (bound
    # instruments), so the rule must not fire there
    res = run_rule("structures/example.py", R006_BAD, only=["R006"])
    assert rule_ids(res) == []


def test_r006_covers_service_package():
    # the service loop is hot-path scope: an instrument bump per
    # drained *request* (unbounded) is exactly the regression the
    # zero-overhead contract forbids
    src = """
        def pump(h_latency, batch):
            for pending in batch:
                h_latency.observe(pending.age)
    """
    res = run_rule("service/example.py", src, only=["R006"])
    assert rule_ids(res) == ["R006"]


def test_r006_flags_flight_recorder_verbs():
    src = """
        def watch(rec, replies):
            for r in replies:
                rec.anomaly("protocol_error", reply=r)
    """
    res = run_rule("service/example.py", src, only=["R006"])
    assert rule_ids(res) == ["R006"]


def test_r006_suppression():
    src = """
        from ..obs import runtime as obs

        def probe(t, items):
            for x in items:
                obs.span("kernel.item")  # repro-lint: disable=R006
    """
    res = run_rule("kernels/example.py", src, only=["R006"])
    assert rule_ids(res) == []
    assert res.suppressed == 1


def test_r006_clean_on_real_kernels():
    """The shipped kernels must satisfy the rule without baseline help."""
    res = lint_paths([SRC_REPRO / "kernels"], only=["R006"])
    assert res.findings == []


# ----------------------------------------------------------------------
# suppression machinery
# ----------------------------------------------------------------------
def test_disable_file_suppresses_whole_file():
    src = """
        # repro-lint: disable-file=R001
        def a(g):
            for v in g.vertices:
                pass

        def b(g):
            for v in g.vertices:
                pass
    """
    res = run_rule("core/example.py", src, only=["R001"])
    assert rule_ids(res) == []
    assert res.suppressed == 2


def test_disable_all_keyword():
    src = """
        import random

        def f(g):
            for v in g.vertices:  # repro-lint: disable=all
                random.shuffle(v)  # repro-lint: disable=all
    """
    res = run_rule("core/example.py", src)
    assert rule_ids(res) == []
    assert res.suppressed >= 2


def test_suppression_is_rule_specific():
    src = """
        def labels(roots):
            seen = set(roots)
            return [v for v in seen]  # repro-lint: disable=R001
    """
    res = run_rule("core/example.py", src, only=["R002"])
    assert rule_ids(res) == ["R002"]


# ----------------------------------------------------------------------
# baseline: the checked-in file exactly matches the tree
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def full_run():
    return lint_paths([SRC_REPRO])


def test_tree_has_zero_unbaselined_findings(full_run):
    match = Baseline.load(BASELINE).match(full_run.findings)
    assert not full_run.parse_errors
    new = [f.render() for f in match.new]
    assert new == [], f"unbaselined findings:\n" + "\n".join(new)


def test_baseline_has_no_stale_entries(full_run):
    match = Baseline.load(BASELINE).match(full_run.findings)
    assert match.stale == [], (
        "stale baseline entries (fixed violations still grandfathered); "
        "regenerate with --write-baseline"
    )


def test_every_baseline_entry_is_justified():
    data = json.loads(BASELINE.read_text())
    unjustified = [
        (e["rule"], e["path"]) for e in data["findings"] if not e.get("note")
    ]
    assert unjustified == []


def test_baseline_roundtrip(tmp_path):
    bl = Baseline.load(BASELINE)
    out = tmp_path / "bl.json"
    bl.dump(out)
    again = Baseline.load(out)
    assert again.counts == bl.counts
    assert again.notes == bl.notes


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def run_cli(*args: str, cwd: Path = REPO):
    env = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_cli_clean_against_baseline():
    proc = run_cli("src/repro", "--baseline", "lint-baseline.json", "--stats")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-lint stats:" in proc.stdout


def test_cli_fails_on_injected_violation(tmp_path):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(textwrap.dedent(R001_BAD))
    proc = run_cli(
        "src/repro", str(bad), "--baseline", "lint-baseline.json"
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "R001" in proc.stdout


def test_cli_rejects_unknown_rule():
    proc = run_cli("src/repro", "--rules", "R999")
    assert proc.returncode == 2
    assert "unknown rule" in proc.stderr


def test_cli_json_format(tmp_path):
    bad = tmp_path / "repro" / "core" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(textwrap.dedent(R003_BAD))
    proc = run_cli(str(bad), "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert payload["files_scanned"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["R003"]


def test_cli_smoke_under_ten_seconds():
    start = time.monotonic()
    proc = run_cli("src/repro", "--baseline", "lint-baseline.json")
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 10.0, f"lint took {elapsed:.1f}s (budget 10s)"


def test_all_rules_have_distinct_ids_and_hints():
    ids = [cls.id for cls in ALL_RULES]
    assert len(ids) == len(set(ids)) == 6
    for cls in ALL_RULES:
        rule = cls()
        assert rule.hint, rule.id
        assert rule.severity in ("error", "warning")
