"""Tests for :mod:`repro.obs` — registry, tracing, exposition — and the
serving integration.

The acceptance pins:

* **byte-identity** — released answers are identical with instrumentation
  on or off at the same seed, serially, through a ``workers=2`` pool, and
  over the wire (trace ids derive from seed material, never the clock);
* **histogram semantics** — fixed log buckets follow Prometheus ``le``
  rules (a value equal to a boundary lands in that boundary's bucket),
  so cross-process merges are exact bucket-by-bucket adds;
* **the wire surface** — the v2 ``metrics`` op returns a parseable
  Prometheus text body plus JSON rows with quantiles, ``hello``/``stats``
  carry ``uptime_seconds`` and the ``obs_schema`` version, and
  :meth:`ResultFrame.from_payload` keeps ignoring keys it does not know.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest
from registry_oracle import FullWalkRegistry

from repro import PrivateSession, random_graph_with_avg_degree
from repro.obs import (
    OBS_SCHEMA,
    SIZE_BUCKETS,
    TIME_BUCKETS,
    Histogram,
    MetricsRegistry,
    deterministic_trace_id,
    json_payload,
    metrics,
    parse_prometheus_text,
    prometheus_text,
    quantile_from_counts,
    seed_trace_id,
    tracer,
    validate_span_records,
)
from repro.obs import configure as obs_configure
from repro.service import (
    BackgroundService,
    ResultFrame,
    ServiceClient,
    ServiceRouter,
)
from repro.session import HierarchicalAccountant, SharedCompiledCache
from repro.subgraphs import triangle


@pytest.fixture
def capture_spans():
    """Enable the process tracer with a list sink; restore it after."""
    active = tracer()
    saved = (
        active.enabled,
        active._sink,
        active._slow_ms,
        active._slow_stream,
        active._buffer,
    )
    records = []
    active.configure(sink=records.append, enabled=True)
    try:
        yield records
    finally:
        (
            active.enabled,
            active._sink,
            active._slow_ms,
            active._slow_stream,
            active._buffer,
        ) = saved


def _counter_total(name, **labels):
    return sum(metric.value for _, metric in metrics().find(name, **labels))


def _histogram_count(name, **labels):
    return sum(metric.count for _, metric in metrics().find(name, **labels))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_get_or_create_is_identity(self):
        registry = MetricsRegistry()
        first = registry.counter("repro_x_total", dataset="a")
        assert registry.counter("repro_x_total", dataset="a") is first
        assert registry.counter("repro_x_total", dataset="b") is not first

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_x_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_inflight")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3.0

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError, match="not a Gauge"):
            registry.gauge("repro_x_total")

    def test_histogram_boundary_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("repro_h", buckets=[1.0, 2.0])
        with pytest.raises(ValueError, match="different bucket"):
            registry.histogram("repro_h", buckets=[1.0, 4.0])
        # equal numbers match whatever their type or container
        same = registry.histogram("repro_h", buckets=(1, 2))
        assert same is registry.histogram("repro_h", buckets=[1.0, 2.0])

    def test_merge_refuses_mismatched_histogram_bounds(self):
        """A merged histogram row whose boundaries differ from the local
        histogram's raises, and leaves the local counts as they were."""
        source = MetricsRegistry()
        source.histogram("repro_h", buckets=[1.0, 4.0]).observe(3.0)
        registry = MetricsRegistry()
        local = registry.histogram("repro_h", buckets=[1.0, 2.0])
        local.observe(1.5)
        with pytest.raises(ValueError, match="different bucket"):
            registry.merge(source.drain_delta())
        assert local.counts() == [0, 1, 0]
        # the same shape with the same boundaries merges
        source.histogram("repro_h", buckets=[1.0, 2.0], k="x").observe(3.0)
        registry.merge(source.drain_delta())
        merged = registry.histogram("repro_h", buckets=[1.0, 2.0], k="x")
        assert merged.counts() == [0, 0, 1]

    def test_default_bucket_shapes(self):
        latencies = TIME_BUCKETS
        sizes = SIZE_BUCKETS
        assert len(latencies) == 40
        assert latencies == tuple(sorted(latencies))
        assert latencies[0] == pytest.approx(1e-6)
        assert sizes == tuple(float(2**k) for k in range(24))


class TestHistogramBuckets:
    def test_le_semantics_at_every_boundary(self):
        """A value equal to a boundary lands in *that* bucket; one just
        above lands in the next — the Prometheus ``le`` contract, at
        every boundary of the default latency schedule."""
        bounds = TIME_BUCKETS
        for index, edge in enumerate(bounds):
            exact = Histogram(bounds)
            exact.observe(edge)
            assert exact.counts()[index] == 1, f"boundary {index}"
            above = Histogram(bounds)
            above.observe(edge * (1.0 + 1e-9))
            assert above.counts()[index + 1] == 1, f"boundary {index}"

    def test_underflow_and_overflow(self):
        histogram = Histogram([1.0, 2.0, 4.0])
        histogram.observe(0.25)  # below every boundary -> first bucket
        histogram.observe(100.0)  # above every boundary -> overflow
        assert histogram.counts() == [1, 0, 0, 1]
        assert histogram.count == 2
        assert histogram.sum == pytest.approx(100.25)

    def test_bounds_must_strictly_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([1.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram([])

    def test_quantiles_interpolate_and_clamp(self):
        histogram = Histogram([1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 0.0
        # p50: rank 2 of 4 falls in the (1, 2] bucket holding 2 samples.
        assert 1.0 <= histogram.quantile(0.5) <= 2.0
        # Overflow quantiles clamp to the largest finite boundary.
        histogram.observe(1000.0)
        assert histogram.quantile(1.0) == 4.0
        triple = histogram.percentiles()
        assert set(triple) == {"p50", "p95", "p99"}

    def test_quantile_from_counts_edge_cases(self):
        assert quantile_from_counts([1.0], [0, 0], 0.5) is None
        with pytest.raises(ValueError, match="quantile"):
            quantile_from_counts([1.0], [1, 0], 1.5)


class TestSnapshotDeltaMerge:
    def test_drain_delta_reports_changes_exactly_once(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(3)
        registry.gauge("repro_g").set(7)
        registry.histogram("repro_h", buckets=[1.0, 2.0]).observe(1.5)

        delta = registry.drain_delta()
        assert delta["schema"] == OBS_SCHEMA
        by_name = {row["name"]: row for row in delta["metrics"]}
        assert by_name["repro_x_total"]["value"] == 3
        assert by_name["repro_g"]["value"] == 7
        assert by_name["repro_h"]["counts"] == [0, 1, 0]

        # Nothing changed since: the next drain is empty.
        assert registry.drain_delta()["metrics"] == []

        # Only the increment since the last drain ships.
        registry.counter("repro_x_total").inc(2)
        (row,) = registry.drain_delta()["metrics"]
        assert row["name"] == "repro_x_total" and row["value"] == 2

        # The full snapshot still reports cumulative state.
        snap = {row["name"]: row for row in registry.snapshot()["metrics"]}
        assert snap["repro_x_total"]["value"] == 5

    def test_drain_walks_only_changed_metrics_like_the_full_walk(self):
        """Over a random sequence of creations, changes, merges and
        drains, each drain emits the rows of the full walk over every
        metric (``tests/registry_oracle.py``), in the same order."""
        rng = np.random.default_rng(11)
        registry = MetricsRegistry()
        oracle = FullWalkRegistry()
        source = MetricsRegistry()  # another process's deltas to merge
        names = ["repro_a_total", "repro_b", "repro_c_seconds"]
        bounds = [0.5, 1.0, 2.0, 4.0]
        drains = 0
        for _ in range(3000):
            name = names[int(rng.integers(3))]
            labels = {"k": str(int(rng.integers(4)))} if rng.random() < 0.7 else {}
            action = rng.random()
            if action < 0.05:
                assert registry.drain_delta()["metrics"] == oracle.drain_delta()
                drains += 1
            elif action < 0.08:
                payload = source.drain_delta()
                registry.merge(payload)
                oracle.merge(payload)
            elif action < 0.3:
                source.counter("repro_a_total", **labels).inc(float(rng.integers(3)))
                source.gauge("repro_b", **labels).set(float(rng.integers(5)))
                source.histogram("repro_c_seconds", buckets=bounds, **labels).observe(
                    float(rng.exponential(1.5))
                )
            elif name == "repro_a_total":
                amount = float(rng.integers(3))  # inc(0) changes nothing
                registry.counter(name, **labels).inc(amount)
                oracle.inc(name, amount, **labels)
            elif name == "repro_b":
                gauge = registry.gauge(name, **labels)
                if action < 0.6:
                    gauge.set(float(rng.integers(5)))
                else:
                    gauge.inc(float(rng.integers(-2, 3)))
                oracle.set(name, gauge.value, **labels)
            elif action < 0.4:  # created, never changed
                registry.histogram(name, buckets=bounds, **labels)
                oracle._get(name, labels, "histogram", bounds)
            else:
                value = float(rng.exponential(1.5))
                registry.histogram(name, buckets=bounds, **labels).observe(value)
                oracle.observe(name, bounds, value, **labels)
        assert registry.drain_delta()["metrics"] == oracle.drain_delta()
        assert drains > 100
        assert registry.drain_delta()["metrics"] == []

    def test_drains_racing_updates_lose_nothing(self):
        """Updates from several threads while another drains: every
        increment and observation ships exactly once.  Each writer owns
        its metrics (the registry does not lock a metric's own update)."""
        import sys
        import threading

        registry = MetricsRegistry()
        rounds, writers = 3000, 4
        shipped = {"counter": 0.0, "histogram": 0}
        done = threading.Event()

        def drain():
            for row in registry.drain_delta()["metrics"]:
                if row["kind"] == "counter":
                    shipped["counter"] += row["value"]
                else:
                    shipped["histogram"] += row["count"]

        def write(index):
            for step in range(rounds):
                registry.counter("repro_x_total", k=str(step % 3), w=str(index)).inc()
                registry.histogram("repro_h", buckets=[1.0], w=str(index)).observe(0.5)

        def drainer():
            while not done.is_set():
                drain()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,)) for i in range(writers)]
            reader = threading.Thread(target=drainer)
            reader.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            done.set()
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in threads)
        drain()
        assert shipped == {"counter": rounds * writers, "histogram": rounds * writers}

    def test_rebaseline_discards_pending_deltas(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total").inc(9)
        registry.rebaseline()
        assert registry.drain_delta()["metrics"] == []
        assert registry.counter("repro_x_total").value == 9

    def test_merge_round_trips_through_json(self):
        """The cross-process contract: a drained delta survives JSON and
        folds into a fresh registry with identical totals."""
        source = MetricsRegistry()
        source.counter("repro_x_total", mode="fork").inc(3)
        source.gauge("repro_g").set(2.5)
        histogram = source.histogram("repro_h", buckets=[1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 8.0):
            histogram.observe(value)

        wire = json.loads(json.dumps(source.drain_delta()))
        target = MetricsRegistry()
        target.merge(wire)
        target.merge(None)  # tolerated: tasks that touched no metric

        assert target.counter("repro_x_total", mode="fork").value == 3
        assert target.gauge("repro_g").value == 2.5
        merged = target.histogram("repro_h", buckets=[1.0, 2.0, 4.0])
        assert merged.counts() == histogram.counts()
        assert merged.sum == pytest.approx(histogram.sum)

    def test_merge_rejects_boundary_mismatch(self):
        source = MetricsRegistry()
        source.histogram("repro_h", buckets=[1.0, 2.0]).observe(1.5)
        payload = source.drain_delta()
        target = MetricsRegistry()
        target.histogram("repro_h", buckets=[1.0, 2.0, 4.0])
        with pytest.raises(ValueError):
            target.merge(payload)

    def test_find_filters_by_label_subset(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", dataset="a", user="u").inc()
        registry.counter("repro_x_total", dataset="b", user="u").inc(2)
        rows = list(registry.find("repro_x_total", dataset="b"))
        assert len(rows) == 1
        assert rows[0][0] == {"dataset": "b", "user": "u"}
        total = sum(m.value for _, m in registry.find("repro_x_total"))
        assert total == 3


# ---------------------------------------------------------------------------
# Trace ids and spans
# ---------------------------------------------------------------------------


class TestTraceIds:
    def test_deterministic_trace_id_is_stable_hex(self):
        first = deterministic_trace_id("seed", 123, "alice")
        assert first == deterministic_trace_id("seed", 123, "alice")
        assert len(first) == 32
        int(first, 16)  # hex
        assert first != deterministic_trace_id("seed", 124, "alice")

    def test_seed_trace_id_from_seed_sequence(self):
        seed = np.random.SeedSequence(entropy=20260801, spawn_key=(3,))
        same = np.random.SeedSequence(entropy=20260801, spawn_key=(3,))
        assert seed_trace_id(seed, "alice") == seed_trace_id(same, "alice")
        assert seed_trace_id(seed, "alice") != seed_trace_id(seed, "bob")
        assert seed_trace_id(seed) != seed_trace_id(
            np.random.SeedSequence(entropy=20260801, spawn_key=(4,))
        )

    def test_seed_trace_id_fallbacks(self):
        assert seed_trace_id(None) is None
        assert seed_trace_id(True) is None  # bools are not seeds
        assert seed_trace_id("nope") is None
        assert seed_trace_id(7) == seed_trace_id(7)


class TestSpans:
    def test_disabled_tracer_yields_none_and_emits_nothing(self):
        active = tracer()
        assert active.enabled is False
        with active.span("router.query") as state:
            assert state is None

    def test_nested_spans_form_a_tree(self, capture_spans):
        active = tracer()
        with active.span("root", trace_id="a" * 32, dataset="alpha"):
            with active.span("child"):
                pass
            with active.span("child"):
                pass
        forest = validate_span_records(capture_spans)
        assert set(forest) == {"a" * 32}
        by_name = {}
        for record in capture_spans:
            by_name.setdefault(record["name"], []).append(record)
        (root,) = by_name["root"]
        assert root["parent"] is None
        assert root["attrs"] == {"dataset": "alpha"}
        children = by_name["child"]
        assert len(children) == 2
        assert all(c["parent"] == root["span"] for c in children)
        # Same name, different birth order -> different deterministic ids.
        assert children[0]["span"] != children[1]["span"]

    def test_parent_context_wins_over_explicit_trace_id(self, capture_spans):
        active = tracer()
        with active.span("root", trace_id="a" * 32):
            with active.span("child", trace_id="b" * 32):
                pass
        assert all(r["trace"] == "a" * 32 for r in capture_spans)

    def test_span_ids_are_deterministic_for_a_given_trace(self, capture_spans):
        active = tracer()

        def run():
            with active.span("root", trace_id="c" * 32):
                with active.span("step"):
                    pass

        run()
        first = list(capture_spans)
        capture_spans.clear()
        run()
        def strip(r):
            return {k: r[k] for k in ("trace", "span", "parent", "name")}

        assert [strip(r) for r in first] == [strip(r) for r in capture_spans]

    def test_worker_buffering_and_absorb(self, capture_spans):
        active = tracer()
        saved_sink = active._sink
        try:
            active.worker_mode()
            with active.span("session.release", trace_id="d" * 32):
                pass
            assert capture_spans == []  # buffered, not sunk
            shipped = active.drain_buffered()
            assert [r["name"] for r in shipped] == ["session.release"]
            assert active.drain_buffered() == []
        finally:
            active._buffer = None
            active.configure(sink=saved_sink)
        active.absorb(shipped)
        assert [r["name"] for r in capture_spans] == ["session.release"]
        validate_span_records(capture_spans)

    def test_slow_query_log_fires_on_slow_roots_only(self, capture_spans):
        active = tracer()
        slow = io.StringIO()
        active.configure(slow_ms=0.0, slow_stream=slow)
        with active.span("router.query", trace_id="e" * 32, dataset="alpha"):
            with active.span("session.prepare"):
                pass
        lines = slow.getvalue().splitlines()
        assert len(lines) == 1  # the child span never hits the slow log
        assert "[slow-query]" in lines[0]
        assert "name=router.query" in lines[0]
        assert "dataset='alpha'" in lines[0]

    def test_configure_trace_log_writes_json_lines(self, tmp_path):
        active = tracer()
        saved = (active.enabled, active._sink, active._slow_ms)
        path = tmp_path / "spans.jsonl"
        try:
            obs_configure(trace_log=str(path))
            with active.span("root", trace_id="f" * 32):
                with active.span("step"):
                    pass
            active._sink.close()
        finally:
            active.enabled, active._sink, active._slow_ms = saved
        records = [json.loads(line) for line in path.read_text().splitlines()]
        forest = validate_span_records(records)
        assert set(forest) == {"f" * 32}
        assert sorted(r["name"] for r in records) == ["root", "step"]


class TestValidateSpanRecords:
    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            validate_span_records([{"trace": "t", "span": "s"}])

    def test_rejects_duplicate_span_ids(self):
        record = {
            "trace": "t",
            "span": "s",
            "parent": None,
            "name": "x",
            "duration_ms": 1.0,
        }
        with pytest.raises(ValueError, match="duplicate"):
            validate_span_records([record, dict(record)])

    def test_rejects_orphan_parents(self):
        record = {
            "trace": "t",
            "span": "s",
            "parent": "ghost",
            "name": "x",
            "duration_ms": 1.0,
        }
        with pytest.raises(ValueError, match="parent"):
            validate_span_records([record])


# ---------------------------------------------------------------------------
# Exposition
# ---------------------------------------------------------------------------


class TestExposition:
    def _registry(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", dataset="a").inc(3)
        registry.gauge("repro_inflight").set(2)
        histogram = registry.histogram("repro_h_seconds", buckets=[1.0, 2.0])
        for value in (0.5, 1.5, 9.0):
            histogram.observe(value)
        return registry

    def test_text_round_trips_through_the_parser(self):
        text = prometheus_text(self._registry().snapshot())
        samples = {
            (name, tuple(sorted(labels.items()))): value
            for name, labels, value in parse_prometheus_text(text)
        }
        assert samples[("repro_x_total", (("dataset", "a"),))] == 3
        assert samples[("repro_inflight", ())] == 2
        # Buckets are cumulative and the +Inf bucket equals _count.
        assert samples[("repro_h_seconds_bucket", (("le", "1"),))] == 1
        assert samples[("repro_h_seconds_bucket", (("le", "2"),))] == 2
        inf = samples[("repro_h_seconds_bucket", (("le", "+Inf"),))]
        assert inf == samples[("repro_h_seconds_count", ())] == 3
        assert samples[("repro_h_seconds_sum", ())] == pytest.approx(11.0)
        assert "# TYPE repro_h_seconds histogram" in text

    def test_label_values_escape_and_unescape(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", label='say "hi"\n').inc()
        ((name, labels, value),) = parse_prometheus_text(
            prometheus_text(registry.snapshot())
        )
        assert labels == {"label": 'say "hi"\n'} and value == 1

    def test_parser_rejects_malformed_lines(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_prometheus_text("this is { not a sample\n")

    def test_json_payload_attaches_quantiles(self):
        payload = json_payload(self._registry().snapshot())
        assert payload["schema"] == OBS_SCHEMA
        (row,) = [r for r in payload["metrics"] if r["kind"] == "histogram"]
        assert set(row["quantiles"]) == {"p50", "p95", "p99"}
        assert row["quantiles"]["p50"] is not None


# ---------------------------------------------------------------------------
# Byte-identity: instrumentation must never move a released byte
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def identity_graph():
    return random_graph_with_avg_degree(30, 5.0, rng=6)


def _serial_answers(graph):
    session = PrivateSession(graph, workers=1, rng=42)
    try:
        return [
            session.query(triangle(), privacy="edge", epsilon=0.5).answer
            for _ in range(3)
        ]
    finally:
        session.close()


def _pooled_answers(graph):
    session = PrivateSession(graph, workers=2, rng=42)
    try:
        futures = [
            session.submit(triangle(), privacy="edge", epsilon=0.5) for _ in range(4)
        ]
        return [future.result().answer for future in futures]
    finally:
        session.close()


def _wire_answers(graph):
    router = ServiceRouter(seed=20260808)
    session = PrivateSession(
        graph,
        workers=1,
        rng=7,
        accountant=HierarchicalAccountant(),
        cache=SharedCompiledCache(maxsize=8),
    )
    router.add_dataset("alpha", session, default=True)
    try:
        with BackgroundService(router) as bg:
            with ServiceClient(bg.address, user="alice") as client:
                return [
                    client.query("triangle", epsilon=0.5, privacy="node")["answer"]
                    for _ in range(3)
                ]
    finally:
        session.close()


class TestByteIdentity:
    def test_serial_answers_identical_with_tracing_on(
        self, identity_graph, capture_spans
    ):
        with_tracing = _serial_answers(identity_graph)
        active = tracer()
        active.enabled = False
        without = _serial_answers(identity_graph)
        active.enabled = True
        assert with_tracing == without
        assert any(r["name"] == "session.query" for r in capture_spans)

    def test_pooled_answers_identical_with_tracing_on(
        self, identity_graph, capture_spans
    ):
        with_tracing = _pooled_answers(identity_graph)
        active = tracer()
        active.enabled = False
        without = _pooled_answers(identity_graph)
        active.enabled = True
        assert with_tracing == without
        # Worker-side spans shipped home through the result envelope.
        submits = [r for r in capture_spans if r["name"] == "session.submit"]
        assert submits and all(r["attrs"]["pooled"] for r in submits)

    def test_wire_answers_identical_with_tracing_on(
        self, identity_graph, capture_spans
    ):
        with_tracing = _wire_answers(identity_graph)
        active = tracer()
        active.enabled = False
        without = _wire_answers(identity_graph)
        active.enabled = True
        assert with_tracing == without
        roots = [r for r in capture_spans if r["name"] == "router.query"]
        assert roots and all(r["parent"] is None for r in roots)
        # Root ids derive from the request's seed material: replaying the
        # same seeds yields the same trace ids, in order.
        capture_spans.clear()
        replay = _wire_answers(identity_graph)
        assert replay == with_tracing
        replay_roots = [r for r in capture_spans if r["name"] == "router.query"]
        assert [r["trace"] for r in replay_roots] == [r["trace"] for r in roots]
        validate_span_records(capture_spans)


# ---------------------------------------------------------------------------
# Serving integration: wire op, hello/stats, pool merge, lane gauges
# ---------------------------------------------------------------------------


class TestServingIntegration:
    def _router(self, graph):
        router = ServiceRouter(seed=20260808)
        session = PrivateSession(
            graph,
            workers=1,
            rng=7,
            accountant=HierarchicalAccountant(),
            cache=SharedCompiledCache(maxsize=8),
        )
        router.add_dataset("alpha", session, default=True)
        return router, session

    def test_metrics_wire_op_exposes_live_histograms(self, identity_graph):
        router, session = self._router(identity_graph)
        try:
            with BackgroundService(router) as bg:
                with ServiceClient(bg.address, user="alice") as client:
                    for _ in range(3):
                        client.query("triangle", epsilon=0.5, privacy="node")
                    payload = client.metrics()
                    hello = client.hello()
                    stats = client.stats()
        finally:
            session.close()

        assert payload["schema"] == OBS_SCHEMA
        assert payload["role"] == "primary"
        assert payload["uptime_seconds"] >= 0.0

        rows = {
            (row["name"], row["labels"].get("dataset")): row
            for row in payload["metrics"]
        }
        query_row = rows[("repro_query_seconds", "alpha")]
        assert query_row["count"] >= 3
        assert query_row["quantiles"]["p50"] > 0.0
        assert rows[("repro_admission_wait_seconds", "alpha")]["count"] >= 3
        compile_counts = sum(
            row["count"]
            for row in payload["metrics"]
            if row["name"] == "repro_compile_seconds"
        )
        assert compile_counts >= 3

        # The text body is real exposition: strict-parse it and check the
        # query histogram agrees with the JSON rows.
        samples = parse_prometheus_text(payload["text"])
        counts = {
            (name, labels.get("dataset")): value
            for name, labels, value in samples
            if name == "repro_query_seconds_count"
        }
        assert counts[("repro_query_seconds_count", "alpha")] == query_row["count"]

        # hello/stats carry uptime and the payload schema version.
        for frame in (hello, stats):
            assert frame["obs_schema"] == OBS_SCHEMA
            assert frame["uptime_seconds"] >= 0.0

    def test_lane_gauges_return_to_zero_and_count_grants(self, identity_graph):
        router, session = self._router(identity_graph)
        before = _counter_total("repro_lane_granted_total", dataset="alpha")
        try:
            with BackgroundService(router) as bg:
                with ServiceClient(bg.address, user="alice") as client:
                    for _ in range(2):
                        client.query("triangle", epsilon=0.5, privacy="node")
        finally:
            session.close()
        after = _counter_total("repro_lane_granted_total", dataset="alpha")
        assert after - before == 2
        for _, gauge in metrics().find("repro_lane_inflight", dataset="alpha"):
            assert gauge.value == 0

    def test_lp_solve_histogram_observes_backend_solves(self):
        from repro.boolexpr.expr import And, Var
        from repro.relax.encode import EncodedRelation

        before = _histogram_count("repro_lp_solve_seconds", overlay="h")
        relation = EncodedRelation(
            ["p0", "p1", "p2"],
            [(And([Var("p0"), Var("p1")]), 2.0), (Var("p2"), 1.0)],
        )
        relation._compiled.solve_h(1.0)
        after = _histogram_count("repro_lp_solve_seconds", overlay="h")
        assert after == before + 1

    def test_delta_probes_count_the_core_shift(self):
        """A probe that idle participants and isolated rows decide alone
        counts once as ``repro_delta_probes_total{how="core_shift"}`` and
        solves no LP."""
        from repro.core.efficient import EfficientRecursiveMechanism
        from repro.store import ConjunctiveKRelation

        # a core of two rows sharing p0, and two isolated rows
        matrix = np.array([[0, 1], [0, 2], [3, 4], [5, 6]])
        names = [f"p{k}" for k in range(7)]
        relation = ConjunctiveKRelation(names, matrix, "edge", range(4), names, 7)
        mechanism = EfficientRecursiveMechanism(relation)
        assert mechanism._encoded.num_isolated == 2
        routes = ("core_shift", "closed_form", "lp")
        before = {
            how: _counter_total("repro_delta_probes_total", how=how) for how in routes
        }
        # i − m − N·(w−1) = 2 ≤ N·min(1, τ/2) = 2: the isolated rows hold it
        assert mechanism._g_predicate(4, 2.0) is True
        # 4 − 3 core participants = 1 > N·min(1, τ/2) = 0.5: past the core
        assert mechanism._g_predicate(6, 0.5) is False
        after = {
            how: _counter_total("repro_delta_probes_total", how=how) for how in routes
        }
        assert after["core_shift"] - before["core_shift"] == 2
        assert after["closed_form"] == before["closed_form"]
        assert after["lp"] == before["lp"]
        assert mechanism._encoded._core is None  # no core program compiled

    def test_x_steps_count_the_closed_form_top(self, identity_graph):
        """A triangle release whose Δ̂ exceeds the largest participant load
        counts once as ``repro_x_step_total{how="top"}``; every release
        counts exactly one X-step route."""
        routes = ("top", "bracket", "solve")
        before = {how: _counter_total("repro_x_step_total", how=how) for how in routes}
        session = PrivateSession(identity_graph, workers=1, rng=42)
        try:
            for _ in range(4):
                session.query(triangle(), privacy="edge", epsilon=0.5)
        finally:
            session.close()
        after = {how: _counter_total("repro_x_step_total", how=how) for how in routes}
        assert after["top"] - before["top"] >= 1
        assert sum(after[how] - before[how] for how in routes) == 4

    @pytest.mark.parametrize("backend", ["highs", "scipy"])
    def test_batched_h_solves_each_observed(self, identity_graph, backend):
        """A batched ``h_entries`` call records one solve per LP index."""
        from lp_oracle import LP_BACKENDS

        from repro.core.efficient import EfficientRecursiveMechanism
        from repro.subgraphs import subgraph_krelation

        relation = subgraph_krelation(identity_graph, triangle(), privacy="edge")
        mechanism = EfficientRecursiveMechanism(
            relation, backend=LP_BACKENDS[backend]()
        )
        n = mechanism.num_participants
        # interior indices of the active program, past the idle count
        m = mechanism._encoded.num_idle
        lp_indices = [m + (n - m) * k // 12 for k in (3, 4, 6, 8)]
        assert all(mechanism._encoded.h_closed_form(i) is None for i in lp_indices)
        before = _histogram_count("repro_lp_solve_seconds", overlay="h")
        mechanism.h_entries([0, *lp_indices, n])
        after = _histogram_count("repro_lp_solve_seconds", overlay="h")
        assert after - before == len(lp_indices)

    def test_pool_tasks_merge_into_parent_registry(self, identity_graph):
        tasks_before = _counter_total("repro_pool_tasks_total")
        releases_before = _histogram_count("repro_release_seconds")
        answers = _pooled_answers(identity_graph)
        assert len(answers) == 4
        assert _counter_total("repro_pool_tasks_total") - tasks_before >= 4
        # Worker-side release timings merged home through the envelope.
        assert _histogram_count("repro_release_seconds") - releases_before >= 4
        for _, gauge in metrics().find("repro_pool_inflight"):
            assert gauge.value == 0

    def test_result_frame_tolerates_obs_era_keys(self):
        frame = ResultFrame(
            answer=1.5,
            label=None,
            epsilon=0.5,
            user="alice",
            mechanism="recursive",
            query="triangle/node",
            status="released",
            index=0,
            cache_hit=True,
            seed=7,
            version=None,
            lp_backend="dense",
            dataset="alpha",
        )
        payload = frame.to_payload()
        payload.update(obs_schema=OBS_SCHEMA, trace="f" * 32, uptime_seconds=1.0)
        assert ResultFrame.from_payload(payload) == frame


class TestObsCli:
    def test_obs_command_scrapes_text_json_and_snapshot(
        self, identity_graph, tmp_path, capsys
    ):
        from repro.cli import main

        router = ServiceRouter(seed=20260808)
        session = PrivateSession(
            identity_graph,
            workers=1,
            rng=7,
            accountant=HierarchicalAccountant(),
            cache=SharedCompiledCache(maxsize=8),
        )
        router.add_dataset("alpha", session, default=True)
        snapshot_path = tmp_path / "metrics-snapshot.json"
        try:
            with BackgroundService(router) as bg:
                with ServiceClient(bg.address, user="alice") as client:
                    client.query("triangle", epsilon=0.5, privacy="node")
                host, port = bg.address
                address = f"{host}:{port}"
                assert main(["obs", address]) == 0
                text = capsys.readouterr().out
                assert main(
                    ["obs", address, "--json", "--output", str(snapshot_path)]
                ) == 0
                json_out = capsys.readouterr().out
        finally:
            session.close()

        samples = parse_prometheus_text(text)
        assert any(name == "repro_query_seconds_count" for name, _, _ in samples)
        payload = json.loads(json_out)
        assert payload["schema"] == OBS_SCHEMA
        assert "text" not in payload
        archived = json.loads(snapshot_path.read_text())
        assert archived["schema"] == OBS_SCHEMA
        parse_prometheus_text(archived["text"])

    def test_obs_command_reports_connection_errors(self, capsys):
        from repro.cli import main

        assert main(["obs", "127.0.0.1:9"]) == 2
        assert capsys.readouterr().err
