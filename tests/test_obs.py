"""Unit tests for the observability layer: tracer, metrics, runtime,
exporters.

The end-to-end properties (lockstep safety, disabled overhead) live in
``tests/test_obs_pipeline.py`` / ``tests/test_obs_overhead.py``; this
file pins the building blocks: span nesting and deltas, the instrument
registry, process-wide activation, and the trace_event schema including
fixed-clock deterministic export.
"""

import json

import pytest

from repro.obs import (
    Metrics,
    NullMetrics,
    Tracer,
    activate,
    render_tree,
    to_trace_events,
    validate_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs import runtime
from repro.obs.export import TRACE_PID, TRACE_TID
from repro.obs.metrics import NULL_METRICS, Counter, Gauge, Histogram, Reservoir
from repro.obs.tracer import _NULL_SPAN, NULL_TRACER
from repro.pram.tracker import Tracker


class FakeClock:
    """Deterministic clock: advances 1.0 per call."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        self.t += 1.0
        return self.t


# ----------------------------------------------------------------------
# Tracer / Span
# ----------------------------------------------------------------------


class TestTracer:
    def test_nesting_parent_depth_and_completion_order(self):
        trc = Tracer(clock=FakeClock())
        with trc.span("outer") as a:
            with trc.span("inner") as b:
                pass
            with trc.span("inner") as c:
                pass
        # completion order: inner spans finish before the outer one
        assert [s.name for s in trc.spans] == ["inner", "inner", "outer"]
        assert a.parent is None and a.depth == 0
        assert b.parent == a.sid and b.depth == 1
        assert c.parent == a.sid and c.depth == 1
        assert b.sid != c.sid
        assert trc.roots() == [a]
        assert trc.children_of(a.sid) == [b, c]
        assert trc.open_depth == 0

    def test_attrs_and_mid_flight_set(self):
        trc = Tracer(clock=FakeClock())
        with trc.span("s", k=3) as sp:
            sp.set("chain", 7)
        assert sp.attrs == {"k": 3, "chain": 7}

    def test_durations_from_injected_clock(self):
        trc = Tracer(clock=FakeClock())  # t_origin = 1.0
        with trc.span("a"):  # enter: 2.0
            with trc.span("b"):  # enter: 3.0, exit: 4.0
                pass
        # a exits at 5.0
        b, a = trc.spans
        assert (a.t0, a.dur) == (2.0, 3.0)
        assert (b.t0, b.dur) == (3.0, 1.0)

    def test_tracked_work_span_deltas(self):
        t = Tracker()
        trc = Tracer(tracker=t, clock=FakeClock())
        t.op(5)  # before the span: must not be attributed to it
        with trc.span("outer"):
            t.op(3)
            with trc.span("inner"):
                t.op(2)
        inner, outer = trc.spans
        assert (inner.work_delta, inner.span_delta) == (2, 2)
        assert (outer.work_delta, outer.span_delta) == (5, 5)
        # opening/closing spans charged nothing
        assert (t.work, t.span) == (10, 10)

    def test_no_tracker_means_no_deltas(self):
        trc = Tracer(clock=FakeClock())
        with trc.span("s"):
            pass
        assert trc.spans[0].work_delta is None
        assert trc.spans[0].span_delta is None

    def test_span_recorded_on_exception(self):
        trc = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with trc.span("doomed"):
                raise ValueError("boom")
        assert [s.name for s in trc.spans] == ["doomed"]
        assert trc.open_depth == 0

    def test_wrap_decorator(self):
        trc = Tracer(clock=FakeClock())

        @trc.wrap("fn.call", tag="x")
        def fn(a, b):
            """docstring survives"""
            return a + b

        assert fn(2, 3) == 5
        assert fn.__name__ == "fn"
        assert fn.__doc__ == "docstring survives"
        assert [s.name for s in trc.spans] == ["fn.call"]
        assert trc.spans[0].attrs == {"tag": "x"}

    def test_null_tracer_is_inert(self):
        sp = NULL_TRACER.span("anything", k=1)
        assert sp is _NULL_SPAN
        with sp as inner:
            inner.set("ignored", 0)
        assert NULL_TRACER.spans == []

        @NULL_TRACER.wrap("name")
        def fn():
            return 42

        assert fn() == 42
        assert fn.__name__ == "fn"  # wrap returns fn unchanged


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_memoized_and_shared(self):
        m = Metrics()
        c1 = m.counter("x")
        c1.inc()
        c1.inc(4)
        c2 = m.counter("x")
        assert c2 is c1
        assert c2.value == 5

    def test_kind_collision_raises(self):
        m = Metrics()
        m.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            m.histogram("x")

    def test_gauge_last_value_wins(self):
        m = Metrics()
        g = m.gauge("levels")
        g.set(3)
        g.set(7)
        assert m.as_dict() == {"levels": 7}

    def test_histogram_summary(self):
        m = Metrics()
        h = m.histogram("scan")
        for v in (4, 1, 7):
            h.observe(v)
        assert h.summary() == {
            "count": 3, "total": 12, "min": 1, "max": 7, "mean": 4.0,
        }
        assert m.histogram("scan").mean == 4.0

    def test_empty_histogram_mean_zero(self):
        assert Histogram("h").mean == 0.0

    def test_as_dict_sorted_and_includes_untouched(self):
        m = Metrics()
        m.counter("b.second")
        m.counter("a.first").inc()
        d = m.as_dict()
        assert list(d) == ["a.first", "b.second"]
        assert d["b.second"] == 0
        assert len(m) == 2

    def test_null_metrics_hands_out_fresh_unregistered_instruments(self):
        n = NullMetrics()
        c1 = n.counter("x")
        c1.inc(100)
        c2 = n.counter("x")
        assert c2 is not c1
        assert c2.value == 0
        assert isinstance(n.gauge("g"), Gauge)
        assert isinstance(n.histogram("h"), Histogram)
        assert isinstance(n.counter("c"), Counter)
        assert n.as_dict() == {}
        assert NULL_METRICS.as_dict() == {}


# ----------------------------------------------------------------------
# Runtime activation
# ----------------------------------------------------------------------


class TestRuntime:
    def test_disabled_by_default(self):
        assert not runtime.enabled()
        assert runtime.tracer() is NULL_TRACER
        assert runtime.metrics() is NULL_METRICS
        assert runtime.span("whatever") is _NULL_SPAN

    def test_activate_installs_and_restores(self):
        trc = Tracer(clock=FakeClock())
        mtr = Metrics()
        with activate(trc, mtr) as obs:
            assert runtime.enabled()
            assert runtime.tracer() is trc
            assert runtime.metrics() is mtr
            assert obs.tracer is trc and obs.metrics is mtr
            with runtime.span("s", k=1):
                runtime.metrics().counter("c").inc()
        assert not runtime.enabled()
        assert [s.name for s in trc.spans] == ["s"]
        assert mtr.as_dict() == {"c": 1}

    def test_activate_creates_metrics_when_missing(self):
        with activate(Tracer(clock=FakeClock())) as obs:
            assert isinstance(obs.metrics, Metrics)
            assert not isinstance(obs.metrics, NullMetrics)

    def test_activations_nest_and_shadow(self):
        t1, t2 = Tracer(clock=FakeClock()), Tracer(clock=FakeClock())
        with activate(t1):
            with activate(t2):
                with runtime.span("inner"):
                    pass
            with runtime.span("outer"):
                pass
        assert [s.name for s in t2.spans] == ["inner"]
        assert [s.name for s in t1.spans] == ["outer"]

    def test_traced_decorator_binds_at_call_time(self):
        @runtime.traced("fn.call")
        def fn():
            return 1

        fn()  # disabled: no-op
        trc = Tracer(clock=FakeClock())
        with activate(trc):
            fn()
        assert [s.name for s in trc.spans] == ["fn.call"]

    def test_restore_on_exception(self):
        trc = Tracer(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with activate(trc):
                raise RuntimeError("boom")
        assert not runtime.enabled()


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_tracer() -> tuple[Tracer, Metrics]:
    t = Tracker()
    trc = Tracer(tracker=t, clock=FakeClock(), backend="numpy")
    mtr = Metrics()
    with trc.span("parallel_dfs", n=10):
        t.op(4)
        with trc.span("phase:separator"):
            with trc.span("separator.round", round=0):
                t.op(2)
        with trc.span("phase:absorb"):
            t.op(1)
    mtr.counter("separator.rounds").inc()
    mtr.histogram("absorb.chain").observe(3)
    return trc, mtr


class TestExport:
    def test_trace_event_schema(self):
        trc, _ = _sample_tracer()
        events = to_trace_events(trc)
        assert len(events) == 4
        assert validate_trace_events(events) == []
        for ev in events:
            assert ev["ph"] == "X"
            assert ev["pid"] == TRACE_PID and ev["tid"] == TRACE_TID
            assert ev["ts"] >= 0 and ev["dur"] >= 0
            assert ev["args"]["tracked_work"] >= 0
            assert ev["args"]["tracked_span"] >= 0
        # category is the name prefix before '.'/':'
        cats = {ev["name"]: ev["cat"] for ev in events}
        assert cats["parallel_dfs"] == "parallel_dfs"
        assert cats["phase:separator"] == "phase"
        assert cats["separator.round"] == "separator"

    def test_events_sorted_enclosing_first(self):
        trc, _ = _sample_tracer()
        names = [ev["name"] for ev in to_trace_events(trc)]
        # root first; each phase precedes its nested round
        assert names[0] == "parallel_dfs"
        assert names.index("phase:separator") < names.index("separator.round")

    def test_nested_round_trip_via_jsonl(self, tmp_path):
        trc, mtr = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(str(path), trc, mtr)
        recs = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(recs) == count == len(trc.spans) + len(mtr.as_dict())
        spans = [r for r in recs if r["type"] == "span"]
        by_sid = {r["sid"]: r for r in spans}
        # parent/depth reconstruct the original tree exactly
        for orig in trc.spans:
            rec = by_sid[orig.sid]
            assert rec["name"] == orig.name
            assert rec["parent"] == orig.parent
            assert rec["depth"] == orig.depth
            assert rec["tracked_work"] == orig.work_delta
            assert rec["tracked_span"] == orig.span_delta
            if orig.parent is not None:
                parent = by_sid[orig.parent]
                assert rec["depth"] == parent["depth"] + 1
                # wall-clock containment survives the round trip
                assert parent["ts"] <= rec["ts"]
                assert rec["ts"] + rec["dur"] <= parent["ts"] + parent["dur"]
        metric_recs = {r["name"]: r["value"] for r in recs if r["type"] == "metric"}
        assert metric_recs == mtr.as_dict()

    def test_chrome_trace_file(self, tmp_path):
        trc, mtr = _sample_tracer()
        path = tmp_path / "trace.json"
        events = write_chrome_trace(str(path), trc, mtr)
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] == events
        assert doc["otherData"]["backend"] == "numpy"
        assert doc["otherData"]["metrics"] == mtr.as_dict()
        assert validate_trace_events(doc["traceEvents"]) == []

    def test_deterministic_bytes_under_fixed_clock(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (p1, p2):
            trc, mtr = _sample_tracer()  # fresh FakeClock each time
            write_chrome_trace(str(path), trc, mtr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_validate_catches_malformed_events(self):
        good = {
            "name": "a", "cat": "a", "ph": "X", "ts": 0.0, "dur": 2.0,
            "pid": 1, "tid": 1, "args": {},
        }
        assert validate_trace_events([good]) == []
        assert any(
            "missing field" in p
            for p in validate_trace_events([{k: v for k, v in good.items() if k != "args"}])
        )
        assert any("ph" in p for p in validate_trace_events([dict(good, ph="B")]))
        assert any("ts" in p for p in validate_trace_events([dict(good, ts=-1.0)]))
        assert any("pid" in p for p in validate_trace_events([dict(good, pid="x")]))
        assert any("args" in p for p in validate_trace_events([dict(good, args=[])]))

    def test_validate_catches_overlapping_intervals(self):
        def ev(name, ts, dur):
            return {
                "name": name, "cat": name, "ph": "X", "ts": ts, "dur": dur,
                "pid": 1, "tid": 1, "args": {},
            }

        # b starts inside a but ends after it: corrupt nesting
        assert validate_trace_events([ev("a", 0.0, 5.0), ev("b", 2.0, 10.0)])
        # properly nested and disjoint: fine
        assert validate_trace_events(
            [ev("a", 0.0, 5.0), ev("b", 1.0, 2.0), ev("c", 6.0, 1.0)]
        ) == []

    def test_render_tree(self):
        trc, mtr = _sample_tracer()
        report = render_tree(trc, mtr)
        assert "parallel_dfs" in report
        assert "phase:separator" in report
        assert "separator.rounds" in report
        assert "absorb.chain" in report
        # aggregated root carries the full tracked work total
        root_line = next(
            line for line in report.splitlines() if line.startswith("parallel_dfs")
        )
        assert " 7 " in root_line  # tracked_work column


# ----------------------------------------------------------------------
# Reservoir (service latency quantiles)
# ----------------------------------------------------------------------


class TestReservoir:
    def test_exact_quantiles_below_limit(self):
        r = Reservoir("lat", limit=256)
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            r.observe(v)
        assert r.count == 5 and r.total == 15.0 and r.mean == 3.0
        assert r.vmin == 1.0 and r.vmax == 5.0
        assert r.quantile(0.0) == 1.0
        assert r.quantile(0.5) == 3.0
        assert r.quantile(1.0) == 5.0

    def test_deterministic_decimation_bounds_memory(self):
        r = Reservoir("lat", limit=8)
        for v in range(1000):
            r.observe(float(v))
        assert r.count == 1000
        assert len(r._sample) < 8
        assert r._stride > 1
        # the retained sample is an evenly spaced subsequence, so the
        # extreme quantiles stay near the true extremes
        assert r.quantile(0.0) >= 0.0
        assert r.quantile(1.0) <= 999.0
        assert r.quantile(0.5) == sorted(r._sample)[(len(r._sample) - 1) // 2 + (len(r._sample) - 1) % 2]

    def test_decimation_is_deterministic(self):
        r1, r2 = Reservoir("a", limit=16), Reservoir("b", limit=16)
        for v in range(500):
            r1.observe(v)
            r2.observe(v)
        assert r1._sample == r2._sample and r1._stride == r2._stride
        assert r1.summary()["p99"] == r2.summary()["p99"]

    def test_decimation_exactly_at_capacity_boundary(self):
        limit = 8
        r = Reservoir("lat", limit=limit)
        for v in range(limit - 1):
            r.observe(float(v))
        # one short of capacity: nothing decimated yet
        assert len(r._sample) == limit - 1 and r._stride == 1
        r.observe(float(limit - 1))
        # the observation that fills the sample decimates immediately:
        # every other retained value kept, stride doubled — the sample
        # never actually sits at the limit
        assert r._stride == 2
        assert r._sample == [0.0, 2.0, 4.0, 6.0]
        assert r.count == limit and r.total == sum(range(limit))

    def test_sample_stays_strictly_below_limit_at_every_step(self):
        limit = 4
        r = Reservoir("lat", limit=limit)
        for v in range(200):
            r.observe(float(v))
            assert len(r._sample) < limit
        # exact aggregates are unaffected by decimation
        assert r.count == 200 and r.total == sum(range(200))
        assert r.vmin == 0.0 and r.vmax == 199.0

    def test_repeated_boundary_crossings_double_stride(self):
        limit = 4
        r = Reservoir("lat", limit=limit)
        strides = set()
        for v in range(64):
            r.observe(float(v))
            strides.add(r._stride)
        # each crossing doubles the stride: 1 -> 2 -> 4 -> ...
        assert strides == {1, 2, 4, 8, 16, 32}
        # the retained sample is a subsequence of the observed stream
        # with the current stride's spacing between consecutive keeps
        diffs = {
            b - a for a, b in zip(r._sample, r._sample[1:])
        }
        assert all(d >= 1 for d in diffs)
        assert r._sample == sorted(r._sample)

    def test_summary_shape_and_empty(self):
        r = Reservoir("lat")
        assert r.summary() == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "sampled": 0,
        }
        r.observe(7)
        s = r.summary()
        assert s["count"] == 1 and s["p50"] == 7 and s["p99"] == 7

    def test_validation(self):
        with pytest.raises(ValueError):
            Reservoir("r", limit=1)
        r = Reservoir("r")
        r.observe(1.0)
        with pytest.raises(ValueError):
            r.quantile(1.5)

    def test_registry_memoized_and_collisions(self):
        m = Metrics()
        r1 = m.reservoir("service.latency_ms")
        r1.observe(2.5)
        assert m.reservoir("service.latency_ms") is r1
        with pytest.raises(TypeError, match="already registered"):
            m.histogram("service.latency_ms")
        d = m.as_dict()
        assert d["service.latency_ms"]["count"] == 1

    def test_null_metrics_hands_out_fresh_reservoirs(self):
        n = NullMetrics()
        r = n.reservoir("x")
        r.observe(3)
        assert n.reservoir("x") is not r
        assert n.as_dict() == {}
