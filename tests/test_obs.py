"""Tests for the observability layer: registry, spans, query profiles."""

import json
import math

import pytest

from repro import (
    AtomType,
    Attribute,
    Cardinality,
    DataType,
    DatabaseConfig,
    LinkType,
    Schema,
    TemporalDatabase,
)
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    QueryProfile,
    Tracer,
)
from repro.obs.trace import NULL_SPAN


# -- registry ---------------------------------------------------------------


class TestRegistry:
    def test_counter_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("disk.reads")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert registry.value("disk.reads") == 5
        assert registry.value("disk.never_touched") == 0

    def test_counters_memoized(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert (registry.counter("a.b", x="1")
                is registry.counter("a.b", x="1"))
        assert registry.counter("a.b") is not registry.counter("a.b", x="1")

    def test_labels_partition_a_name(self):
        registry = MetricsRegistry()
        registry.counter("btree.node_reads", index="i1").inc(2)
        registry.counter("btree.node_reads", index="i2").inc(3)
        assert registry.value("btree.node_reads", index="i1") == 2
        assert registry.total("btree.node_reads") == 5

    def test_totals_use_display_keys(self):
        registry = MetricsRegistry()
        registry.counter("a.x").inc()
        registry.counter("a.y", k="v").inc(2)
        assert registry.totals() == {"a.x": 1, "a.y{k=v}": 2}
        assert registry.totals_by_name() == {"a.x": 1, "a.y": 2}

    def test_layer_breakdown_groups_by_prefix(self):
        registry = MetricsRegistry()
        registry.counter("disk.reads").inc(3)
        registry.counter("buffer.hits").inc(7)
        registry.counter("buffer.misses", pool="p").inc(1)
        breakdown = registry.layer_breakdown()
        assert breakdown["disk"] == {"reads": 3}
        assert breakdown["buffer"] == {"hits": 7, "misses": 1}

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("pool.resident")
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 3
        gauge.set(11)
        assert gauge.value == 11

    def test_histogram_buckets_and_summary(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h.sizes", bounds=(2, 4))
        for value in (1, 2, 3, 9):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.total == 15
        assert histogram.minimum == 1
        assert histogram.maximum == 9
        assert histogram.mean == pytest.approx(3.75)
        assert histogram.bucket_counts == [2, 1, 1]  # <=2, <=4, +inf

    def test_reset_with_and_without_prefix(self):
        registry = MetricsRegistry()
        registry.counter("disk.reads").inc(3)
        registry.counter("buffer.hits").inc(7)
        registry.reset("disk.")
        assert registry.value("disk.reads") == 0
        assert registry.value("buffer.hits") == 7
        registry.reset()
        assert registry.value("buffer.hits") == 0

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("disk.reads").inc(3)
        registry.counter("btree.node_reads", index="i1").inc(2)
        registry.gauge("pool.resident").set(4)
        registry.histogram("h.sizes", bounds=(2, 4)).observe(3)
        snapshot = registry.snapshot()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded == snapshot
        counters = {(c["name"], tuple(sorted(c["labels"].items()))): c["value"]
                    for c in decoded["counters"]}
        assert counters[("disk.reads", ())] == 3
        assert counters[("btree.node_reads", (("index", "i1"),))] == 2
        assert decoded["gauges"][0]["value"] == 4
        (histogram,) = decoded["histograms"]
        assert histogram["count"] == 1
        assert histogram["buckets"][-1]["le"] == "inf"


# -- tracer -----------------------------------------------------------------


class TestTracer:
    def test_span_is_noop_without_capture(self):
        tracer = Tracer(MetricsRegistry())
        assert tracer.span("anything") is NULL_SPAN
        with tracer.span("anything") as span:
            span.set("k", "v")  # must silently do nothing
            assert span.metric("x") == 0

    def test_null_tracer_never_captures(self):
        assert NULL_TRACER.span("x") is NULL_SPAN
        assert not NULL_TRACER.capturing

    def test_nesting_and_metric_deltas(self):
        registry = MetricsRegistry()
        counter = registry.counter("work.units")
        tracer = Tracer(registry)
        with tracer.capture() as capture:
            with tracer.span("outer") as outer:
                counter.inc(1)
                with tracer.span("inner") as inner:
                    counter.inc(4)
                    inner.set("detail", True)
        assert capture.root is outer
        assert outer.children == [inner]
        assert inner.metrics == {"work.units": 4}
        # Inclusive accounting: the parent sees its children's work too.
        assert outer.metric("work.units") == 5
        assert inner.attrs["detail"] is True
        assert outer.duration >= inner.duration >= 0.0

    def test_metric_aggregates_label_variants(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        with tracer.capture() as capture:
            with tracer.span("s"):
                registry.counter("btree.node_reads", index="a").inc(2)
                registry.counter("btree.node_reads", index="b").inc(3)
        assert capture.root.metric("btree.node_reads") == 5

    def test_capture_is_reentrant(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.capture() as outer_capture:
            with tracer.span("outer"):
                with tracer.capture() as inner_capture:
                    with tracer.span("inner"):
                        pass
                # back on the outer capture after the inner one closed
                with tracer.span("outer2"):
                    pass
        assert [s.name for s in inner_capture.spans] == ["inner"]
        assert [s.name for s in outer_capture.spans] == ["outer"]
        assert [c.name for c in outer_capture.spans[0].children] == ["outer2"]

    def test_span_walk_and_to_dict(self):
        tracer = Tracer(MetricsRegistry())
        with tracer.capture() as capture:
            with tracer.span("a", kind="root"):
                with tracer.span("b"):
                    pass
        names = [span.name for span in capture.root.walk()]
        assert names == ["a", "b"]
        as_dict = capture.root.to_dict()
        assert as_dict["name"] == "a"
        assert as_dict["attrs"] == {"kind": "root"}
        assert as_dict["children"][0]["name"] == "b"
        json.dumps(as_dict)  # JSON-safe


# -- end-to-end: EXPLAIN ANALYZE through a real database --------------------


def _schema() -> Schema:
    schema = Schema("cad")
    schema.add_atom_type(AtomType("Part", [
        Attribute("name", DataType.STRING, required=True),
        Attribute("cost", DataType.FLOAT),
    ]))
    schema.add_atom_type(AtomType("Component", [
        Attribute("weight", DataType.FLOAT),
    ]))
    schema.add_link_type(LinkType("contains", "Part", "Component",
                                  Cardinality.MANY_TO_MANY))
    return schema


@pytest.fixture
def obs_db(tmp_path):
    db = TemporalDatabase.create(str(tmp_path / "db"), _schema(),
                                 DatabaseConfig(buffer_pages=32))
    with db.transaction() as txn:
        for i in range(4):
            part = txn.insert("Part", {"name": f"p{i}", "cost": float(i)}, 0)
            comp = txn.insert("Component", {"weight": i * 1.0}, 0)
            txn.link("contains", part, comp, 0)
    yield db
    if not db._closed:
        db.close()


class TestExplainAnalyze:
    def test_plain_query_has_no_profile(self, obs_db):
        result = obs_db.query("SELECT ALL FROM Part VALID AT 5")
        assert result.profile is None

    def test_explain_analyze_attaches_profile(self, obs_db):
        result = obs_db.query(
            "EXPLAIN ANALYZE SELECT ALL FROM Part.contains.Component "
            "VALID AT 5")
        assert len(result) == 4  # profiling must not change the answer
        profile = result.profile
        assert isinstance(profile, QueryProfile)
        root = profile.root
        assert root.name == "mql.execute"
        assert [c.name for c in root.children] == ["access", "slice",
                                                   "project"]
        (access,) = profile.find("access")
        assert access.attrs["roots"] == 4
        (sl,) = profile.find("slice")
        assert sl.metric("builder.molecules") == 4
        assert root.metric("buffer.hits") + root.metric("buffer.misses") > 0

    def test_db_explain_equals_prefix(self, obs_db):
        result = obs_db.explain("SELECT ALL FROM Part VALID AT 5")
        assert result.profile is not None
        assert result.profile.plan == result.plan

    def test_window_query_profiles_window_operator(self, obs_db):
        result = obs_db.explain(
            "SELECT Part.name FROM Part WHERE Part.cost >= 1 "
            "VALID DURING [0, 10) WHEN OVERLAPS [0, 10)")
        names = [c.name for c in result.profile.root.children]
        assert names == ["access", "window", "filter.when", "project"]

    def test_profile_render_and_json(self, obs_db):
        result = obs_db.explain("SELECT ALL FROM Part VALID AT 5")
        text = result.profile.render()
        assert text.startswith("plan: ")
        assert "mql.execute" in text and "ms" in text
        decoded = json.loads(result.profile.to_json())
        assert decoded["plan"] == result.plan
        assert decoded["spans"][0]["name"] == "mql.execute"

    def test_profiling_leaves_no_capture_behind(self, obs_db):
        obs_db.explain("SELECT ALL FROM Part VALID AT 5")
        assert not obs_db.tracer.capturing
        assert obs_db.query("SELECT ALL FROM Part VALID AT 5").profile is None

    def test_explain_analyze_requires_analyze(self, obs_db):
        from repro.errors import ParseError
        with pytest.raises(ParseError):
            obs_db.query("EXPLAIN SELECT ALL FROM Part VALID AT 5")


# -- the kernel's own counters ----------------------------------------------


class TestKernelCounters:
    def test_wal_counters(self, obs_db):
        appends = obs_db.metrics.value("wal.appends")
        wal_bytes = obs_db.metrics.value("wal.bytes")
        fsyncs = obs_db.metrics.value("wal.fsyncs")
        assert appends > 0  # the seeding transaction logged records
        assert wal_bytes > 0
        with obs_db.transaction() as txn:
            txn.insert("Part", {"name": "extra"}, 0)
        assert obs_db.metrics.value("wal.appends") >= appends + 3
        assert obs_db.metrics.value("wal.bytes") > wal_bytes
        # Commits fsync under the default durability="sync" (via group
        # commit), and a forced flush is counted too.
        assert obs_db.metrics.value("wal.fsyncs") >= fsyncs + 1
        before_flush = obs_db.metrics.value("wal.fsyncs")
        obs_db._wal.flush(sync=True)
        assert obs_db.metrics.value("wal.fsyncs") == before_flush + 1

    def test_txn_counters(self, obs_db):
        begins = obs_db.metrics.value("txn.begins")
        with obs_db.transaction() as txn:
            txn.insert("Part", {"name": "one-more"}, 0)
        assert obs_db.metrics.value("txn.begins") == begins + 1
        assert obs_db.metrics.value("txn.commits") >= 1
        assert obs_db.metrics.value("txn.operations") >= 1

    def test_recovery_counters(self, tmp_path):
        path = str(tmp_path / "db")
        db = TemporalDatabase.create(path, _schema())
        with db.transaction() as txn:
            txn.insert("Part", {"name": "a"}, 0)
        # Simulate a crash: skip close() so the WAL tail must be replayed.
        db.buffer.flush_all()
        db._wal.flush()
        db._wal.close()
        db._disk.close()
        reopened = TemporalDatabase.open(path)
        assert reopened.last_recovery is not None
        assert (reopened.metrics.value("recovery.records_replayed")
                == reopened.last_recovery["operations"] > 0)
        assert reopened.metrics.value("recovery.transactions") >= 1
        reopened.close()

    def test_metrics_snapshot_round_trips(self, obs_db):
        obs_db.query("SELECT ALL FROM Part.contains.Component VALID AT 5")
        snapshot = obs_db.metrics_snapshot()
        decoded = json.loads(json.dumps(snapshot))
        assert decoded == snapshot
        names = {entry["name"] for entry in decoded["counters"]}
        assert {"disk.writes", "buffer.hits", "wal.appends",
                "engine.versions_scanned", "builder.molecules"} <= names

    def test_engine_and_builder_counters_move(self, obs_db):
        before = obs_db.metrics.value("builder.molecules")
        obs_db.query("SELECT ALL FROM Part VALID AT 5")
        assert obs_db.metrics.value("builder.molecules") == before + 4
        assert obs_db.metrics.total("engine.versions_scanned") > 0


# -- the CLI ----------------------------------------------------------------


class TestProfileCli:
    @pytest.fixture
    def cli_db(self, tmp_path):
        path = str(tmp_path / "db")
        db = TemporalDatabase.create(path, _schema())
        with db.transaction() as txn:
            part = txn.insert("Part", {"name": "p"}, 0)
            comp = txn.insert("Component", {"weight": 1.0}, 0)
            txn.link("contains", part, comp, 0)
        db.close()
        return path

    def test_profile_command_renders_tree(self, cli_db, capsys):
        from repro.__main__ import main
        code = main(["profile", cli_db,
                     "SELECT ALL FROM Part.contains.Component VALID AT 5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "plan:" in out
        assert "mql.execute" in out
        assert "access" in out and "slice" in out and "project" in out

    def test_profile_command_json(self, cli_db, capsys):
        from repro.__main__ import main
        code = main(["profile", cli_db,
                     "SELECT ALL FROM Part VALID AT 5", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["entries"] == 1
        assert document["profile"]["spans"][0]["name"] == "mql.execute"
        names = {c["name"] for c in document["metrics"]["counters"]}
        assert "buffer.hits" in names

    def test_query_command_prints_profile_on_prefix(self, cli_db, capsys):
        from repro.__main__ import main
        code = main(["query", cli_db,
                     "EXPLAIN ANALYZE SELECT ALL FROM Part VALID AT 5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- plan:" in out
        assert "mql.execute" in out


# -- histogram quantiles ----------------------------------------------------


class TestHistogramQuantiles:
    BOUNDS = (0.001, 0.01, 0.1, 1.0)

    def test_empty_histogram_has_no_quantiles(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("empty.h", self.BOUNDS)
        assert histogram.quantile(0.5) is None
        assert histogram.percentiles() == {"p50": None, "p95": None,
                                           "p99": None}

    def test_single_observation_pins_every_quantile(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("one.h", self.BOUNDS)
        histogram.observe(0.005)
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(0.005)

    def test_interpolation_inside_a_bucket(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("interp.h", (0.0, 10.0))
        # 100 observations uniform-ish in the (0, 10] bucket; the
        # estimator interpolates linearly within the bucket.
        for index in range(100):
            histogram.observe(index / 10.0)
        p50 = histogram.quantile(0.5)
        assert 4.0 <= p50 <= 6.0
        p99 = histogram.quantile(0.99)
        assert 9.0 <= p99 <= 10.0

    def test_estimates_clamped_to_observed_range(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("clamp.h", (1.0, 100.0))
        histogram.observe(2.0)
        histogram.observe(3.0)
        # Bucket upper bound is 100 but nothing above 3 was seen.
        assert histogram.quantile(0.99) <= 3.0
        assert histogram.quantile(0.01) >= 2.0

    def test_quantiles_are_monotone(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("mono.h", self.BOUNDS)
        for value in (0.0005, 0.002, 0.02, 0.05, 0.2, 0.5, 2.0):
            histogram.observe(value)
        quantiles = [histogram.quantile(q)
                     for q in (0.1, 0.5, 0.9, 0.99)]
        assert quantiles == sorted(quantiles)

    def test_snapshot_includes_percentiles(self):
        registry = MetricsRegistry()
        registry.histogram("snap.h", self.BOUNDS).observe(0.005)
        (entry,) = registry.snapshot()["histograms"]
        assert entry["percentiles"]["p50"] == pytest.approx(0.005)

    def test_all_overflow_clamps_to_finite_values(self):
        # Every sample lands past the last finite edge: the estimate
        # must stay finite (and within observed range), never inf/nan.
        registry = MetricsRegistry()
        histogram = registry.histogram("over.h", (1.0, 2.0, 4.0))
        histogram.observe(10.0)
        histogram.observe(20.0)
        assert histogram.quantile(0.5) == pytest.approx(10.0)
        for q in (0.01, 0.5, 0.95, 0.99):
            value = histogram.quantile(q)
            assert math.isfinite(value)
            assert 10.0 <= value <= 20.0

    def test_explicit_infinite_bound_never_interpolates(self):
        # An explicit inf bucket used to interpolate toward infinity,
        # yielding inf (or nan at fraction zero) for every quantile
        # that landed in it.
        registry = MetricsRegistry()
        histogram = registry.histogram("inf.h",
                                       (0.001, 0.01, float("inf")))
        histogram.observe(5.0)
        histogram.observe(6.0)
        assert histogram.quantile(0.5) == pytest.approx(5.0)
        for q in (0.25, 0.5, 0.75, 0.99):
            value = histogram.quantile(q)
            assert math.isfinite(value)
            assert 5.0 <= value <= 6.0

    def test_single_overflow_sample_reports_itself(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("oneover.h", (1.0, 2.0, 4.0))
        histogram.observe(3000.0)
        for q in (0.5, 0.95, 0.99):
            assert histogram.quantile(q) == pytest.approx(3000.0)
        assert histogram.percentiles()["p99"] == pytest.approx(3000.0)


# -- event log --------------------------------------------------------------


class TestEventLog:
    def test_emit_assigns_monotone_seq_and_fields(self):
        from repro.obs import EventLog
        log = EventLog(clock=lambda: 42.0)
        first = log.emit("session.open", session=1)
        second = log.emit("slow_query", session=1, seconds=0.5)
        assert first["seq"] == 1 and second["seq"] == 2
        assert first["ts"] == 42.0
        assert second["seconds"] == 0.5
        assert log.last_seq == 2

    def test_ring_drops_oldest(self):
        from repro.obs import EventLog
        log = EventLog(capacity=3)
        for index in range(5):
            log.emit("tick", n=index)
        entries = log.tail()
        assert [e["n"] for e in entries] == [2, 3, 4]
        assert log.last_seq == 5  # seq keeps counting past evictions

    def test_tail_filters_exact_and_prefix(self):
        from repro.obs import EventLog
        log = EventLog()
        log.emit("session.open", session=1)
        log.emit("session.close", session=1)
        log.emit("slow_query", session=1)
        assert [e["event"] for e in log.tail(event="session.")] == [
            "session.open", "session.close"]
        assert [e["event"] for e in log.tail(event="slow_query")] == [
            "slow_query"]
        assert log.tail(count=1)[0]["event"] == "slow_query"

    def test_sink_receives_json_lines(self):
        import io
        from repro.obs import EventLog
        sink = io.StringIO()
        log = EventLog(sink=sink)
        log.emit("server.start", port=7042)
        line = sink.getvalue().strip()
        parsed = json.loads(line)
        assert parsed["event"] == "server.start"
        assert parsed["port"] == 7042

    def test_dead_sink_never_breaks_emit(self):
        import io
        from repro.obs import EventLog, MetricsRegistry
        metrics = MetricsRegistry()
        sink = io.StringIO()
        log = EventLog(sink=sink, metrics=metrics)
        sink.close()
        entry = log.emit("tick")  # must not raise
        assert entry["seq"] == 1
        # The disablement is loud, not silent: a synthesized ring entry
        # records why the file stopped growing, and a counter ticks.
        entries = log.tail()
        assert [e["event"] for e in entries] == ["tick", "sink_disabled"]
        assert entries[-1]["seq"] == 2
        assert "ValueError" in entries[-1]["error"]
        assert metrics.value("events.sink_disabled") == 1
        # Subsequent emits proceed sink-less without further noise.
        log.emit("tock")
        assert metrics.value("events.sink_disabled") == 1
        assert len(log) == 3

    def test_emit_is_thread_safe(self):
        import threading
        from repro.obs import EventLog
        log = EventLog(capacity=10_000)
        def worker():
            for _ in range(500):
                log.emit("tick")
        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        entries = log.tail()
        assert log.last_seq == 2000
        # No duplicated or lost sequence numbers among retained events.
        seqs = [e["seq"] for e in entries]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)


# -- prometheus exposition --------------------------------------------------


class TestPrometheusExposition:
    def test_counters_gauges_and_summaries_render(self):
        from repro.obs import render_prometheus
        registry = MetricsRegistry()
        registry.counter("server.requests").inc(7)
        registry.gauge("server.requests.inflight").set(2)
        registry.histogram("server.request_seconds",
                           (0.001, 0.01)).observe(0.002)
        text = render_prometheus(registry)
        assert "# TYPE server_requests_total counter" in text
        assert "server_requests_total 7" in text
        assert "# TYPE server_requests_inflight gauge" in text
        assert "server_requests_inflight 2" in text
        assert "# TYPE server_request_seconds summary" in text
        assert 'server_request_seconds{quantile="0.5"}' in text
        assert "server_request_seconds_count 1" in text
        assert "server_request_seconds_sum" in text
        assert text.endswith("\n")

    def test_labels_render_sorted_and_escaped(self):
        from repro.obs import render_prometheus
        registry = MetricsRegistry()
        registry.counter("btree.node_reads", index="i\"1\"").inc()
        text = render_prometheus(registry)
        assert 'btree_node_reads_total{index="i\\"1\\""} 1' in text

    def test_extra_gauges_appended(self):
        from repro.obs import render_prometheus
        registry = MetricsRegistry()
        text = render_prometheus(registry, extra_gauges={
            "server_uptime_seconds": 12.5})
        assert "# TYPE server_uptime_seconds gauge" in text
        assert "server_uptime_seconds 12.5" in text

    def test_empty_summary_renders_nan(self):
        from repro.obs import render_prometheus
        registry = MetricsRegistry()
        registry.histogram("idle.h", (0.1,))
        text = render_prometheus(registry)
        assert 'idle_h{quantile="0.5"} NaN' in text
        assert "idle_h_count 0" in text


# -- distributed trace context ----------------------------------------------


class TestTraceContext:
    def test_capture_without_context_leaves_spans_unstamped(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        with tracer.capture() as capture:
            with tracer.span("a"):
                pass
        span_dict = capture.spans[0].to_dict()
        assert "trace_id" not in span_dict
        assert "trace_id" not in capture.to_dict()

    def test_capture_with_context_stamps_ids_and_parents(self):
        from repro.obs import new_span_id, new_trace_id
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        trace_id, client_span = new_trace_id(), new_span_id()
        with tracer.capture(trace_id=trace_id,
                            parent_span_id=client_span) as capture:
            with tracer.span("root"):
                with tracer.span("child"):
                    pass
        root = capture.spans[0]
        child = root.children[0]
        assert root.trace_id == child.trace_id == trace_id
        assert root.parent_span_id == client_span
        assert child.parent_span_id == root.span_id
        assert root.span_id != child.span_id
        assert capture.to_dict()["trace_id"] == trace_id

    def test_trace_ids_are_fresh_and_well_formed(self):
        from repro.obs import new_span_id, new_trace_id
        trace_ids = {new_trace_id() for _ in range(64)}
        assert len(trace_ids) == 64
        assert all(len(t) == 16 for t in trace_ids)
        assert all(len(new_span_id()) == 8 for _ in range(8))

    def test_concurrent_captures_do_not_bleed_trace_ids(self):
        """Captures are thread-local: two threads capturing at once
        under different trace ids must each see only their own."""
        import threading
        from repro.obs import new_trace_id
        registry = MetricsRegistry()
        tracer = Tracer(registry)
        failures = []
        barrier = threading.Barrier(8)

        def worker():
            trace_id = new_trace_id()
            barrier.wait()
            for _ in range(50):
                with tracer.capture(trace_id=trace_id) as capture:
                    with tracer.span("outer"):
                        with tracer.span("inner"):
                            pass
                for top in capture.spans:
                    for span in top.walk():
                        if span.trace_id != trace_id:
                            failures.append((span.trace_id, trace_id))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures


class TestRenderProfileDict:
    """The dict renderer used for profiles that arrive over the wire."""

    def _stitched_profile(self):
        return {
            "plan": "molecule Part via scan(Part)",
            "trace_id": "ab" * 8,
            "spans": [{
                "name": "client.request",
                "attrs": {"opcode": "EXPLAIN"},
                "duration_ms": 1.25,
                "metrics": {},
                "children": [{
                    "name": "server.request",
                    "attrs": {},
                    "duration_ms": 1.0,
                    "metrics": {"buffer.hits": 3, "buffer.misses": 1,
                                "engine.versions_scanned": 4},
                    "children": [],
                }],
                "trace_id": "ab" * 8,
                "span_id": "cd" * 4,
                "parent_span_id": None,
            }],
        }

    def test_renders_tree_with_trace_header(self):
        from repro.obs import render_profile_dict
        text = render_profile_dict(self._stitched_profile())
        lines = text.splitlines()
        assert lines[0] == f"plan: molecule Part via scan(Part)  trace={'ab' * 8}"
        assert lines[1].startswith("client.request [opcode=EXPLAIN]")
        assert "└─ server.request" in lines[2]
        assert "pages=4 (3 hit/1 miss)" in lines[2]
        assert "versions=4" in lines[2]

    def test_matches_query_profile_render_for_local_trees(self, obs_db):
        """Same table whether rendered from Spans or from their dict export."""
        from repro.obs import render_profile_dict
        result = obs_db.explain("SELECT ALL FROM Part VALID AT 5")
        profile = result.profile
        assert profile is not None
        assert render_profile_dict(profile.to_dict()) == profile.render()

    def test_tolerates_minimal_dict(self):
        from repro.obs import render_profile_dict
        assert render_profile_dict({}) == "plan: ?"
