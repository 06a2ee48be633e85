"""Unit tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.obs import (EventLog, JsonlEventWriter, MetricsRegistry,
                       NULL_METRICS, NULL_TRACER, Telemetry,
                       TimeSeriesRing, TraceRing, Tracer, activate,
                       bucket_quantile, current_tracer, open_event_log,
                       render_exposition, validate_chrome_trace,
                       validate_exposition, write_textfile)


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer(process_name="t", pid=123)
        with tracer.span("work", function="f"):
            pass
        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert len(spans) == 1
        event = spans[0]
        assert event["name"] == "work"
        assert event["pid"] == 123
        assert event["dur"] >= 0
        assert event["args"] == {"function": "f"}

    def test_first_event_emits_process_name_metadata(self):
        tracer = Tracer(process_name="my proc", pid=7)
        tracer.instant("mark")
        assert tracer.events[0]["ph"] == "M"
        assert tracer.events[0]["args"]["name"] == "my proc"

    def test_export_is_loadable_chrome_json(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        path = str(tmp_path / "trace.json")
        tracer.export(path)
        with open(path) as handle:
            payload = json.load(handle)
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"
        names = [e["name"] for e in payload["traceEvents"]]
        assert "outer" in names and "inner" in names

    def test_drain_takes_and_clears_events(self):
        tracer = Tracer(process_name="main", pid=1)
        with tracer.span("work"):
            pass
        drained = tracer.drain()
        assert [e["name"] for e in drained] == ["process_name", "work"]
        assert tracer.events == []

    def test_phase_totals_sums_by_name(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("lex"):
                pass
        totals = tracer.phase_totals()
        assert totals["lex"] >= 0
        assert set(totals) == {"lex"}

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", arg=1):
            pass
        NULL_TRACER.instant("x")
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.phase_totals() == {}
        with pytest.raises(RuntimeError):
            NULL_TRACER.export("/nonexistent/nope.json")

    def test_activate_installs_and_restores(self):
        tracer = Tracer()
        assert current_tracer() is NULL_TRACER
        with activate(tracer):
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_validate_rejects_malformed_events(self):
        bad = {"traceEvents": [{"ph": "X"}, {"name": "a", "ph": "?",
                                             "ts": 0, "pid": 1}]}
        problems = validate_chrome_trace(bad)
        assert any("missing required key" in p for p in problems)
        assert any("unknown phase" in p for p in problems)
        assert validate_chrome_trace({}) != []

    def test_validate_rejects_missing_ph(self):
        bad = {"traceEvents": [{"name": "a", "ts": 0, "pid": 1}]}
        problems = validate_chrome_trace(bad)
        assert any("missing required key 'ph'" in p for p in problems)

    def test_validate_rejects_non_numeric_ts_and_dur(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "i", "ts": "soon", "pid": 1},
            {"name": "b", "ph": "X", "ts": 0, "dur": True, "pid": 1},
            {"name": "c", "ph": "i", "ts": True, "pid": 1}]}
        problems = validate_chrome_trace(bad)
        assert sum("ts must be numeric" in p for p in problems) == 2
        assert any("dur must be numeric" in p for p in problems)

    def test_validate_rejects_truncated_top_level(self):
        # A reader that got a torn/truncated payload sees a non-dict
        # (or a dict without traceEvents) — both must be one clean
        # violation, not a crash.
        for payload in (None, [], "trunc", {"other": 1}):
            problems = validate_chrome_trace(payload)
            assert problems == ["top level must be an object with a "
                                "'traceEvents' list"]
        assert validate_chrome_trace({"traceEvents": "nope"}) == \
            ["'traceEvents' must be a list"]


class TestTraceRing:
    def test_write_prunes_to_keep(self, tmp_path):
        ring = TraceRing(str(tmp_path / "traces"), keep=3)
        paths = [ring.write({"traceEvents": [], "n": i}) for i in range(6)]
        kept = ring.paths()
        assert len(kept) == 3
        assert kept == sorted(paths[-3:])
        with open(kept[-1]) as handle:
            assert json.load(handle)["n"] == 5

    def test_paths_empty_without_directory(self, tmp_path):
        assert TraceRing(str(tmp_path / "never")).paths() == []


class TestMetrics:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2)
        reg.gauge("g").set(1.5)
        hist = reg.histogram("h")
        hist.observe(0.0002)
        hist.observe(100.0)   # overflow bucket
        snap = reg.snapshot()
        assert snap["c"] == {"type": "counter", "value": 3}
        assert snap["g"]["value"] == 1.5
        assert snap["h"]["count"] == 2
        assert snap["h"]["bucket_counts"][-1] == 1

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_null_metrics_records_nothing(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.counter("c").inc()
        NULL_METRICS.gauge("g").set(5)
        NULL_METRICS.histogram("h").observe(1)
        assert NULL_METRICS.snapshot() == {}
        assert NULL_METRICS.render_rows() == []

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(4)
        reg.histogram("lat").observe(0.2)
        text = reg.render()
        assert "hits" in text and "4" in text
        assert "lat" in text and "count=1" in text


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit("worker_crash", "boom", pid=42, functions=["f", "g"])
        log.emit("other", "fine")
        crashes = log.by_kind("worker_crash")
        assert len(crashes) == 1
        assert crashes[0].fields["pid"] == 42
        assert crashes[0].pid > 0 and crashes[0].ts > 0
        assert "boom" in crashes[0].render()

    def test_subscribers_fire_on_emit(self):
        log = EventLog()
        seen = []
        log.subscribe(seen.append)
        log.emit("a", "one")
        log.emit("b", "two")
        assert [e.kind for e in seen] == ["a", "b"]
        assert [e.kind for e in log.records] == ["a", "b"]


class TestTelemetry:
    def test_default_is_disabled(self):
        tele = Telemetry()
        assert not tele.enabled
        assert tele.tracer is NULL_TRACER
        assert tele.metrics is NULL_METRICS
        assert tele.events.records == []

    def test_enabled_bundle_snapshot(self):
        tele = Telemetry(trace=True, metrics=True)
        assert tele.enabled
        with tele.tracer.span("s"):
            pass
        tele.metrics.counter("c").inc()
        tele.events.emit("k", "msg")
        snap = tele.snapshot()
        assert snap["metrics"]["c"]["value"] == 1
        assert snap["events"][0]["kind"] == "k"
        assert isinstance(snap["profile"], dict)


class TestQuantiles:
    def test_empty_histogram_is_zero(self):
        reg = MetricsRegistry()
        assert reg.histogram("h").quantile(0.5) == 0.0

    def test_interpolates_within_bucket(self):
        # Ten observations in the (1.0, 2.0] bucket: p50 sits in the
        # middle of the bucket under the Prometheus linear model.
        hist = MetricsRegistry().histogram("h", (1.0, 2.0))
        for _ in range(10):
            hist.observe(1.5)
        assert hist.quantile(0.5) == pytest.approx(1.5)
        assert hist.quantile(1.0) == pytest.approx(2.0)

    def test_quantiles_are_monotone(self):
        hist = MetricsRegistry().histogram("h")
        for value in (0.0002, 0.003, 0.02, 0.4, 2.0, 0.004):
            hist.observe(value)
        p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert 0 <= p50 <= p95 <= p99

    def test_overflow_clamps_to_highest_bound(self):
        hist = MetricsRegistry().histogram("h", (1.0, 2.0))
        hist.observe(50.0)
        assert hist.quantile(0.99) == 2.0

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            bucket_quantile((1.0,), (1,), 1.5)
        with pytest.raises(ValueError):
            bucket_quantile((1.0,), (1,), -0.1)

    def test_render_rows_carry_quantiles(self):
        reg = MetricsRegistry()
        reg.histogram("lat").observe(0.2)
        ((_name, value),) = reg.render_rows()
        assert "p50=" in value and "p95=" in value and "p99=" in value


class TestTimeSeriesRing:
    def test_sample_computes_rates_and_quantiles(self):
        reg = MetricsRegistry()
        ring = TimeSeriesRing(interval=10.0)
        ring.sample(reg, now=0.0)                 # baseline
        reg.counter("server.requests").inc(50)
        reg.gauge("depth").set(3)
        hist = reg.histogram("server.check_seconds")
        for _ in range(4):
            hist.observe(0.002)
        sample = ring.sample(reg, now=20.0)
        assert sample["dt"] == pytest.approx(20.0)
        assert sample["rates"]["server.requests"] == pytest.approx(2.5)
        assert sample["gauges"]["depth"] == 3
        q = sample["quantiles"]["server.check_seconds"]
        assert q["count"] == 4
        assert q["p50"] <= q["p95"] <= q["p99"]

    def test_maybe_sample_waits_for_interval(self):
        reg = MetricsRegistry()
        ring = TimeSeriesRing(interval=5.0)
        assert ring.maybe_sample(reg, now=0.0) is not None   # first sample
        assert ring.maybe_sample(reg, now=2.0) is None
        assert ring.maybe_sample(reg, now=5.1) is not None

    def test_capacity_bounds_window(self):
        reg = MetricsRegistry()
        ring = TimeSeriesRing(interval=1.0, capacity=4)
        for i in range(10):
            ring.sample(reg, now=float(i))
        assert len(ring) == 4
        assert ring.describe()["capacity"] == 4

    def test_quiet_interval_records_no_rates(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(5)
        ring = TimeSeriesRing(interval=1.0)
        ring.sample(reg, now=0.0)
        sample = ring.sample(reg, now=1.0)        # no new increments
        assert sample["rates"] == {}
        assert sample["quantiles"] == {}


class TestExposition:
    def _snapshot(self):
        reg = MetricsRegistry()
        reg.counter("server.requests").inc(7)
        reg.gauge("server.sessions").set(2)
        hist = reg.histogram("server.check_seconds")
        hist.observe(0.002)
        hist.observe(3.0)
        return reg.snapshot()

    def test_render_validates_clean(self):
        text = render_exposition(self._snapshot(),
                                 extra_gauges={"vaultc_uptime_seconds": 4.2})
        assert validate_exposition(text) == []
        assert "# TYPE vaultc_server_requests_total counter" in text
        assert "vaultc_server_requests_total 7" in text
        assert 'vaultc_server_check_seconds_bucket{le="+Inf"} 2' in text
        assert "vaultc_uptime_seconds 4.2" in text

    def test_validator_flags_garbage(self):
        assert validate_exposition("not a metric line!") != []
        assert validate_exposition("ok_metric notafloat") != []
        broken = ('h_bucket{le="0.1"} 5\n'
                  'h_bucket{le="0.5"} 3\n'
                  'h_bucket{le="+Inf"} 5\nh_count 5\n')
        assert any("not cumulative" in p
                   for p in validate_exposition(broken))
        mismatch = 'h_bucket{le="+Inf"} 5\nh_count 6\n'
        assert any("+Inf bucket != _count" in p
                   for p in validate_exposition(mismatch))

    def test_write_textfile_is_atomic_replace(self, tmp_path):
        path = str(tmp_path / "sub" / "metrics.prom")
        write_textfile(path, "a 1\n")
        write_textfile(path, "a 2\n")
        with open(path) as handle:
            assert handle.read() == "a 2\n"
        leftovers = [n for n in (tmp_path / "sub").iterdir()
                     if n.name != "metrics.prom"]
        assert leftovers == []


class TestJsonlEventWriter:
    def test_subscriber_exception_is_isolated(self):
        log = EventLog()
        seen = []

        def _broken(_event):
            raise RuntimeError("sink down")

        log.subscribe(_broken)
        log.subscribe(seen.append)
        event = log.emit("k", "msg")
        assert log.subscriber_errors == 1
        assert seen == [event]                  # later subscribers still fire
        log.emit("k", "again")
        assert log.subscriber_errors == 2

    def test_writes_one_json_line_per_event(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        log = EventLog()
        writer = open_event_log(path, log)
        try:
            log.emit("server_start", "up", pid_field=1)
            log.emit("server_stop", "down", obj=object())   # repr-degraded
        finally:
            writer.close()
        with open(path) as handle:
            lines = [json.loads(line) for line in handle]
        assert [line["kind"] for line in lines] == ["server_start",
                                                    "server_stop"]
        assert lines[0]["fields"]["pid_field"] == 1
        assert "object" in lines[1]["fields"]["obj"]

    def test_rotation_bounds_disk(self, tmp_path):
        path = str(tmp_path / "audit.jsonl")
        writer = JsonlEventWriter(path, max_bytes=1024, backups=2)
        log = EventLog()
        log.subscribe(writer)
        try:
            for i in range(200):
                log.emit("tick", "x" * 64, n=i)
        finally:
            writer.close()
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["audit.jsonl", "audit.jsonl.1", "audit.jsonl.2"]
        for name in names:
            assert (tmp_path / name).stat().st_size <= 1024 + 256

    def test_open_event_log_none_path(self):
        assert open_event_log(None, EventLog()) is None
