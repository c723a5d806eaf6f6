"""Disabled-mode overhead guard: instrumentation must stay under 3%.

The observability layer ships enabled-capable but disabled by default
(no-op singletons, direct attribute bumps).  This guard runs the E17
mid-size configuration (gnm, n=2000, m=4000, numpy backend) twice per
attempt — once with the default disabled observability, once with a
live tracer+metrics — and compares best-of-N wall clocks.  The traced
run is the *upper bound* scenario: if even full tracing stays within
the budget, the disabled default (strictly less work) does too.

Wall-clock assertions are noisy on shared CI runners, so the guard
takes the minimum of several interleaved runs and retries the whole
measurement a few times before failing; a genuine regression (a span
or metric call sneaking into a per-element loop) shows up as a
consistent, large gap that no retry masks.
"""

import gc
import random
import time

from repro.analysis.trace import trace_dfs
from repro.core.dfs import parallel_dfs
from repro.graph import generators as G
from repro.obs import FlightRecorder, activate, install_recorder
from repro.pram.tracker import Tracker

N, M, GRAPH_SEED, DFS_SEED = 2000, 4000, 23, 123
BUDGET = 0.03
# best-of-N converges slowly on noisy shared runners: a single descheduled
# tick on the instrumented side reads as a fake 5-15% "overhead" at 3
# runs/side, so take more samples per attempt (a genuine regression — a
# span in a per-element loop — is a consistent gap no sample count masks)
RUNS_PER_SIDE = 5
ATTEMPTS = 4


def _run_disabled(g) -> float:
    t0 = time.perf_counter()
    parallel_dfs(
        g, 0, tracker=Tracker(),
        rng=random.Random(DFS_SEED), kernel_backend="numpy",
    )
    return time.perf_counter() - t0


def _run_traced(g) -> float:
    t0 = time.perf_counter()
    trace_dfs(g, seed=DFS_SEED, kernel_backend="numpy")
    return time.perf_counter() - t0


def _guard(run_plain, run_instrumented, label):
    """Interleaved best-of-N comparison with retries (shared helper).

    Every timed run starts from a fresh ``gc.collect()`` (off the clock,
    on both sides). A run still pays the collections its own allocations
    trigger, but no longer inherits a full collection that earlier runs
    made due: where such a collection lands would otherwise decide which
    side its pause falls on. The order inside a pair alternates too, so
    slow drift is shared between the sides."""

    def fresh(run):
        gc.collect()
        return run()

    overheads = []
    for _ in range(ATTEMPTS):
        plain, instrumented = [], []
        for k in range(RUNS_PER_SIDE):  # interleave to share drift
            if k % 2:
                instrumented.append(fresh(run_instrumented))
                plain.append(fresh(run_plain))
            else:
                plain.append(fresh(run_plain))
                instrumented.append(fresh(run_instrumented))
        overhead = min(instrumented) / min(plain) - 1.0
        overheads.append(overhead)
        if overhead < BUDGET:
            return
    raise AssertionError(
        f"{label} overhead exceeded {BUDGET:.0%} budget in every attempt: "
        f"{[f'{o:.2%}' for o in overheads]}"
    )


def test_tracing_overhead_under_budget():
    g = G.gnm_random_connected_graph(N, M, seed=GRAPH_SEED)
    _run_disabled(g)  # warm caches (imports, numpy buffers) off the clock
    _guard(lambda: _run_disabled(g), lambda: _run_traced(g), "tracing")


# ----------------------------------------------------------------------
# the flight recorder: always-on must still mean (nearly) free
# ----------------------------------------------------------------------


def _recorded(fn):
    """Run ``fn`` with a live flight recorder installed process-wide
    (its tracer + registry active), the service's always-on posture."""
    rec = FlightRecorder(capacity=4096)
    prev = install_recorder(rec)
    try:
        with activate(rec.tracer, rec.metrics):
            return fn()
    finally:
        install_recorder(prev)


def test_recorder_overhead_under_budget():
    g = G.gnm_random_connected_graph(N, M, seed=GRAPH_SEED)
    _run_disabled(g)
    _guard(
        lambda: _run_disabled(g),
        lambda: _recorded(lambda: _run_disabled(g)),
        "flight recorder",
    )


def test_recorder_preserves_lockstep_tree():
    # byte-identity is the stronger half of the zero-overhead contract:
    # the recorder may time the run, never steer it
    g = G.gnm_random_connected_graph(N, M, seed=GRAPH_SEED)
    baseline = parallel_dfs(
        g, 0, rng=random.Random(DFS_SEED), kernel_backend="numpy"
    )
    recorded = _recorded(
        lambda: parallel_dfs(
            g, 0, rng=random.Random(DFS_SEED), kernel_backend="numpy"
        )
    )
    assert recorded.parent == baseline.parent
    assert recorded.depth == baseline.depth
