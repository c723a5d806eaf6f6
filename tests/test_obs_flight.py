"""Tests for the live telemetry plane primitives.

Covers request-scoped context propagation (:mod:`repro.obs.context`),
the thread-safe ring tracer, the flight recorder's bounded rings /
anomaly dumps / Perfetto bundles (:mod:`repro.obs.flight`), and the
OpenMetrics text renderer (:mod:`repro.obs.openmetrics`).  The
service-level integration — a slow request producing a dump whose span
tree reconstructs the request end-to-end — lives in
``test_service_telemetry.py``.
"""

import json
import threading

import pytest

from repro.obs import (
    FlightRecorder,
    Metrics,
    NULL_RECORDER,
    NullFlightRecorder,
    OpenMetricsDoc,
    Tracer,
    bound_call,
    current_request_id,
    install_recorder,
    recorder,
    render_openmetrics,
    request_scope,
    sanitize_name,
    to_trace_events,
    validate_trace_events,
)


# ----------------------------------------------------------------------
# request-scoped context
# ----------------------------------------------------------------------


class TestContext:
    def test_default_is_none(self):
        assert current_request_id() is None

    def test_scope_sets_and_restores(self):
        with request_scope("r1"):
            assert current_request_id() == "r1"
            with request_scope("r2"):
                assert current_request_id() == "r2"
            assert current_request_id() == "r1"
        assert current_request_id() is None

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with request_scope("r1"):
                raise RuntimeError("boom")
        assert current_request_id() is None

    def test_bound_call_rebinds_on_another_thread(self):
        # the service's executor threads don't inherit the event loop's
        # contextvars; bound_call must carry the id across explicitly
        seen = {}

        def probe(tag):
            seen[tag] = current_request_id()
            return tag

        job = bound_call("req-9", probe, "worker")
        t = threading.Thread(target=job)
        t.start()
        t.join()
        assert seen == {"worker": "req-9"}
        assert current_request_id() is None

    def test_bound_call_returns_value(self):
        assert bound_call("x", lambda a, b=2: a + b, 1)() == 3


# ----------------------------------------------------------------------
# thread-safe ring tracer
# ----------------------------------------------------------------------


class TestTracerThreading:
    def test_single_thread_spans_keep_tid_one(self):
        tr = Tracer()
        with tr.span("a"):
            with tr.span("b"):
                pass
        assert [s.tid for s in tr.spans] == [1, 1]

    def test_threads_get_stable_distinct_tids(self):
        tr = Tracer()
        barrier = threading.Barrier(2)

        def work(name):
            barrier.wait()
            for _ in range(3):
                with tr.span(name):
                    pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert {s.tid for s in tr.spans} == {1, 2}
        # every span of one logical thread carries one tid
        by_name = {}
        for s in tr.spans:
            by_name.setdefault(s.name, set()).add(s.tid)
        assert all(len(v) == 1 for v in by_name.values())

    def test_nesting_is_per_thread(self):
        tr = Tracer()
        start = threading.Barrier(2)

        def work(name):
            start.wait()
            with tr.span(name + ".outer"):
                with tr.span(name + ".inner"):
                    pass

        threads = [
            threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        events = to_trace_events(tr)
        assert validate_trace_events(events) == []

    def test_open_spans_snapshot_across_threads(self):
        tr = Tracer()
        ready = threading.Event()
        release = threading.Event()

        def work():
            with tr.span("worker.outer"):
                ready.set()
                release.wait()

        t = threading.Thread(target=work)
        t.start()
        ready.wait()
        try:
            with tr.span("main.open"):
                names = {s.name for s in tr.open_spans()}
        finally:
            release.set()
            t.join()
        assert {"worker.outer", "main.open"} <= names
        assert tr.open_spans() == []

    def test_ring_limit_evicts_oldest(self):
        tr = Tracer(limit=4)
        for i in range(10):
            with tr.span(f"s{i}"):
                pass
        assert len(tr.spans) == 4
        assert [s.name for s in tr.spans] == ["s6", "s7", "s8", "s9"]

    def test_span_stamps_request_id_from_context(self):
        tr = Tracer()
        with request_scope("req-1"):
            with tr.span("a"):
                pass
        with tr.span("b"):
            pass
        spans = list(tr.spans)
        assert spans[0].attrs["request_id"] == "req-1"
        assert "request_id" not in spans[1].attrs

    def test_explicit_request_id_attr_wins(self):
        tr = Tracer()
        with request_scope("ctx"):
            with tr.span("a", request_id="explicit"):
                pass
        assert list(tr.spans)[0].attrs["request_id"] == "explicit"


# ----------------------------------------------------------------------
# flight recorder
# ----------------------------------------------------------------------


def make_recorder(tmp_path=None, **kw):
    kw.setdefault("capacity", 64)
    if tmp_path is not None:
        kw.setdefault("dump_dir", str(tmp_path))
    return FlightRecorder(**kw)


class TestFlightRecorder:
    def test_events_capture_request_id(self):
        rec = make_recorder()
        with request_scope("r7"):
            rec.event("service.request", op="dfs", ok=True)
        rec.event("idle")
        evs = rec.events()
        assert evs[0]["name"] == "service.request"
        assert evs[0]["request_id"] == "r7"
        assert evs[0]["attrs"] == {"op": "dfs", "ok": True}
        assert "request_id" not in evs[1]

    def test_event_ring_is_bounded(self):
        rec = FlightRecorder(capacity=8)
        for i in range(50):
            rec.event(f"e{i}")
        evs = rec.events()
        assert len(evs) == 8
        assert evs[0]["name"] == "e42" and evs[-1]["name"] == "e49"

    def test_anomaly_counts_without_dump_dir(self):
        rec = make_recorder()
        assert rec.anomaly("slow_request", latency_ms=12.5) is None
        assert rec.anomaly("slow_request") is None
        assert rec.anomaly("protocol_error") is None
        assert rec.anomalies == {"slow_request": 2, "protocol_error": 1}
        assert rec.dumps == []
        names = [e["name"] for e in rec.events()]
        assert names.count("anomaly.slow_request") == 2

    def test_anomaly_dump_is_valid_perfetto_bundle(self, tmp_path):
        rec = make_recorder(tmp_path)
        with rec.tracer.span("service.compute", graph="g"):
            pass
        with request_scope("r1"):
            rec.event("service.request", ok=False)
        path = rec.anomaly("slow_request", latency_ms=99.0)
        assert path is not None
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_trace_events(doc["traceEvents"]) == []
        assert doc["otherData"]["reason"] == "slow_request"
        assert doc["otherData"]["anomalies"] == {"slow_request": 1}
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"service.compute", "service.request",
                "anomaly.slow_request"} <= names
        inst = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert any(e["args"].get("request_id") == "r1" for e in inst)

    def test_dump_includes_in_flight_spans(self, tmp_path):
        # the anomaly fires *inside* the span that explains it; the
        # dump must synthesize that still-open span, not omit it
        rec = make_recorder(tmp_path)
        with rec.tracer.span("service.batch", requests=["r1"]):
            path = rec.anomaly("slow_request")
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        assert validate_trace_events(doc["traceEvents"]) == []
        batch = [
            e for e in doc["traceEvents"] if e["name"] == "service.batch"
        ]
        assert batch and batch[0]["ph"] == "X"
        assert batch[0]["args"]["in_flight"] is True
        assert batch[0]["args"]["requests"] == ["r1"]

    def test_dump_cap_is_enforced(self, tmp_path):
        rec = make_recorder(tmp_path, max_dumps=3)
        paths = [rec.anomaly("flap", i=i) for i in range(6)]
        written = [p for p in paths if p is not None]
        assert len(written) == 3
        # the counter keeps counting past the cap
        assert rec.anomalies == {"flap": 6}
        assert len(list(tmp_path.iterdir())) == 3

    def test_joining_an_external_tracer_and_registry(self):
        tr = Tracer(limit=32)
        m = Metrics()
        rec = FlightRecorder(capacity=32, tracer=tr, metrics=m)
        assert rec.tracer is tr and rec.metrics is m

    def test_stats_shape(self):
        rec = make_recorder()
        rec.event("x")
        rec.anomaly("y")
        s = rec.stats()
        assert s["capacity"] == 64
        assert s["events"] == 2  # the anomaly records itself as an event
        assert s["anomalies"] == {"y": 1}
        assert s["dumps"] == []

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=1)

    def test_install_and_restore(self):
        rec = make_recorder()
        assert recorder() is NULL_RECORDER
        prev = install_recorder(rec)
        try:
            assert prev is NULL_RECORDER
            assert recorder() is rec
        finally:
            install_recorder(prev)
        assert recorder() is NULL_RECORDER

    def test_null_recorder_is_inert(self, tmp_path):
        n = NullFlightRecorder()
        n.event("x", a=1)
        assert n.anomaly("y") is None
        assert n.dump() is None
        assert n.events() == [] and n.stats() == {}
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# OpenMetrics renderer
# ----------------------------------------------------------------------


class TestOpenMetrics:
    def test_sanitize_name(self):
        assert sanitize_name("service.latency_ms", "repro") == (
            "repro_service_latency_ms"
        )
        assert sanitize_name("a-b c") == "a_b_c"
        assert sanitize_name("9lives") == "_9lives"

    def test_counter_gauge_info_rendering(self):
        doc = OpenMetricsDoc(prefix="t")
        doc.counter("reqs", 3)
        doc.gauge("depth", 2)
        doc.info("build", {"sha": "abc", "q": 'x"y'})
        text = doc.render()
        assert "# TYPE t_reqs counter\nt_reqs_total 3" in text
        assert "# TYPE t_depth gauge\nt_depth 2" in text
        assert 't_build_info{q="x\\"y",sha="abc"} 1' in text
        assert text.endswith("# EOF\n")

    def test_summary_rendering_with_quantiles(self):
        doc = OpenMetricsDoc(prefix="t")
        doc.summary("lat", 4, 10.0, {0.5: 2.0, 0.99: 5.0})
        text = doc.render()
        assert "t_lat_count 4" in text
        assert "t_lat_sum 10.0" in text
        assert 't_lat{quantile="0.5"} 2.0' in text
        assert 't_lat{quantile="0.99"} 5.0' in text

    def test_labelled_samples_accumulate_in_one_family(self):
        doc = OpenMetricsDoc(prefix="t")
        doc.gauge("graph.n", 5, {"graph": "a"})
        doc.gauge("graph.n", 9, {"graph": "b"})
        text = doc.render()
        assert text.count("# TYPE t_graph_n gauge") == 1
        assert 't_graph_n{graph="a"} 5' in text
        assert 't_graph_n{graph="b"} 9' in text

    def test_kind_collision_raises(self):
        doc = OpenMetricsDoc()
        doc.counter("x", 1)
        with pytest.raises(ValueError):
            doc.gauge("x", 2)

    def test_from_metrics_covers_every_instrument_kind(self):
        m = Metrics()
        m.counter("hits").inc(3)
        m.gauge("depth").set(7)
        h = m.histogram("batch")
        h.observe(2)
        h.observe(4)
        r = m.reservoir("lat")
        for v in (1.0, 2.0, 3.0, 4.0):
            r.observe(v)
        text = render_openmetrics(m, prefix="t")
        assert "t_hits_total 3" in text
        assert "t_depth 7" in text
        assert "t_batch_count 2" in text and "t_batch_sum 6" in text
        assert "t_batch_max 4" in text and "t_batch_min 2" in text
        assert 't_lat{quantile="0.99"} 4.0' in text
        assert "t_lat_count 4" in text

    def test_render_is_deterministic(self):
        def build():
            m = Metrics()
            m.counter("b").inc()
            m.counter("a").inc(2)
            return render_openmetrics(
                m, counters={"z": 1}, gauges={"y": 2}, prefix="t"
            )

        assert build() == build()
