"""Shared helpers for the experiment harness.

Every experiment file exposes a ``test_eN_...`` function using the
pytest-benchmark fixture: the *harness run itself* is what gets timed, and
the experiment's table is printed (run with ``-s`` to see it live) and
written to ``benchmarks/results/<name>.txt`` for EXPERIMENTS.md.

The measured quantities are work/span from the PRAM tracker (the paper's
claimed bounds); wall-clock numbers reported by pytest-benchmark time the
simulation, not the algorithm, and are used only in E14.

Alongside the human-readable tables, the harness maintains one
machine-readable ledger, ``results/BENCH_PR8.json`` (one file per PR;
earlier numbers stay frozen in ``BENCH_PR1.json``..``BENCH_PR7.json``):
every benchmark test
gets its wall-clock seconds *and peak RSS* recorded automatically, and
experiments that
measure tracked work/span can attach those numbers via ``publish(...,
data=...)`` (or ``publish_json`` directly). Each entry also records the
git commit (suffixed ``-dirty`` when tracked source differs from it),
the engine(s) and absorption structure the bench passed to the library
(``ran=``; the default engine when it passed none), the worker count,
the machine's core count, and the platform active when it was written,
so a diff across PRs (or machines — T_p curves are hardware-bound)
always knows what produced the numbers.
Regression tooling diffs this file across PRs instead of parsing the
text tables, and refuses to compare entries whose engine or structure
differ.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import time

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_JSON = os.path.join(RESULTS_DIR, "BENCH_PR8.json")

_git_sha: str | None = None


def _checkout_sha() -> str:
    """HEAD's short sha, with ``-dirty`` appended when a tracked file
    outside ``results/`` differs from HEAD — numbers from a modified
    tree are not HEAD's. ``results/`` is excluded because a bench writes
    its own table there before the first stamp."""

    def git(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
            timeout=10,
        )

    try:
        sha = git("rev-parse", "--short=12", "HEAD").stdout.strip()
        if not sha:
            return "unknown"
        diff = git("diff", "--quiet", "HEAD", "--", ":/", ":(exclude)results")
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return sha + "-dirty" if diff.returncode == 1 else sha


def _provenance(ran: dict | None) -> dict:
    """Reproducibility stamp: commit, engine, structure, cores, platform.

    ``ran`` is what the bench passed to the library — ``kernel_backend``
    (one engine name, or a list when it compares several) and
    ``structure``; ``None`` means it passed no engine, so the process
    default ran. ``cpu_count``/``platform`` make wall-clock entries
    portable — a timing means nothing without the machine it ran on.
    """
    global _git_sha
    if _git_sha is None:
        _git_sha = _checkout_sha()
    from repro.kernels.dispatch import default_backend

    return {
        "git_sha": _git_sha,
        **(ran if ran is not None else {"kernel_backend": default_backend()}),
        "cpu_count": os.cpu_count() or 1,
        "platform": f"{platform.system()}-{platform.machine()}-py{platform.python_version()}",
    }


def publish_json(name: str, record: dict, ran: dict | None = None) -> None:
    """Merge ``record`` under ``name`` in the machine-readable ledger,
    stamped with the provenance of ``ran`` (see :func:`_provenance`)."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    try:
        with open(BENCH_JSON) as fh:
            data = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        data = {}
    data.setdefault(name, {}).update(record)
    data[name].update(_provenance(ran))
    with open(BENCH_JSON, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def publish(
    name: str, text: str, data: dict | None = None, ran: dict | None = None
) -> None:
    """Print an experiment's table and persist it under results/.

    ``data``, when given, is merged into ``BENCH_PR8.json`` under the
    experiment's name — use it for the tracked work/span numbers the
    text table reports, so regressions are diffable by machine. ``ran``
    is the engine/structure stamp (see :func:`_provenance`).
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")
    if data is not None:
        publish_json(name, data, ran)


@pytest.fixture(autouse=True)
def _bench_walltime(request):
    """Record every benchmark test's wall-clock and peak RSS in the ledger.

    ``ru_maxrss`` is the process high-water mark (KiB on Linux), so each
    test's number is really "peak so far this process" — comparable
    across PRs as long as the suite runs in one process in file order,
    and exact for the biggest-footprint test.
    """
    t0 = time.perf_counter()
    yield
    # no engine stamp: a test may run any engines, and the entry it
    # publishes itself says which
    publish_json(
        request.node.name,
        {
            "wall_s": round(time.perf_counter() - t0, 3),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
        ran={},
    )
