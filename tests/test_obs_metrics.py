"""Tests for :mod:`repro.obs.metrics` — the shared metrics registry.

Covers the edge cases: inclusive histogram bucket boundaries, label
escaping and concurrent increments.
"""

from __future__ import annotations

import threading

from repro.obs.metrics import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    escape_label_value,
    render_metrics,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c_total", "help")
        assert counter.value == 0.0
        counter.increment()
        counter.increment(2.5)
        assert counter.value == 3.5

    def test_render_has_help_type_and_sample(self):
        counter = Counter("c_total", "things counted")
        counter.increment(2)
        assert counter.render() == [
            "# HELP c_total things counted",
            "# TYPE c_total counter",
            "c_total 2",
        ]

    def test_concurrent_increments_are_exact(self):
        counter = Counter("c_total", "help")
        n_threads, per_thread = 8, 2500

        def work():
            for _ in range(per_thread):
                counter.increment()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == n_threads * per_thread


class TestGauge:
    def test_set_increment_and_negative_values(self):
        gauge = Gauge("g", "help")
        gauge.set(10)
        gauge.increment(-3)
        assert gauge.value == 7.0
        gauge.increment(-10)
        assert gauge.value == -3.0

    def test_set_max_is_a_high_water_mark(self):
        gauge = Gauge("g", "help")
        gauge.set_max(5)
        gauge.set_max(3)
        assert gauge.value == 5.0
        gauge.set_max(9)
        assert gauge.value == 9.0

    def test_concurrent_set_max_keeps_the_maximum(self):
        gauge = Gauge("g", "help")
        values = list(range(1000))

        def work(chunk):
            for value in chunk:
                gauge.set_max(value)

        threads = [
            threading.Thread(target=work, args=(values[i::4],))
            for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value == 999.0


class TestHistogramBuckets:
    def test_bucket_bounds_are_inclusive(self):
        histogram = Histogram("h_seconds", "help", buckets=(0.1, 1.0))
        histogram.observe(0.1)  # exactly at the first bound
        lines = histogram.render()
        assert 'h_seconds_bucket{le="0.1"} 1' in lines
        assert 'h_seconds_bucket{le="1"} 1' in lines
        assert 'h_seconds_bucket{le="+Inf"} 1' in lines

    def test_counts_are_cumulative_across_buckets(self):
        histogram = Histogram("h", "help", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            histogram.observe(value)
        lines = histogram.render()
        assert 'h_bucket{le="1"} 1' in lines
        assert 'h_bucket{le="2"} 2' in lines
        assert 'h_bucket{le="4"} 3' in lines
        assert 'h_bucket{le="+Inf"} 4' in lines
        assert "h_sum 105" in lines
        assert "h_count 4" in lines

    def test_bounds_are_sorted_on_construction(self):
        histogram = Histogram("h", "help", buckets=(4.0, 1.0, 2.0))
        assert histogram.buckets == (1.0, 2.0, 4.0)

    def test_concurrent_observations_are_exact(self):
        histogram = Histogram("h", "help", buckets=(0.5,))
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                histogram.observe(0.25)

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == n_threads * per_thread
        assert f'h_bucket{{le="0.5"}} {n_threads * per_thread}' in histogram.render()

    def test_latency_buckets_are_strictly_increasing(self):
        assert list(LATENCY_BUCKETS) == sorted(set(LATENCY_BUCKETS))


class TestLabels:
    def test_escape_label_value_handles_the_three_specials(self):
        assert escape_label_value('a"b') == 'a\\"b'
        assert escape_label_value("a\\b") == "a\\\\b"
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("plain") == "plain"

    def test_constant_labels_render_on_every_series(self):
        counter = Counter("c_total", "help", labels={"surface": "rest"})
        counter.increment()
        assert 'c_total{surface="rest"} 1' in counter.render()

    def test_histogram_merges_le_with_constant_labels(self):
        histogram = Histogram(
            "h", "help", buckets=(1.0,), labels={"stage": "flush"}
        )
        histogram.observe(0.5)
        lines = histogram.render()
        assert 'h_bucket{stage="flush",le="1"} 1' in lines
        assert 'h_sum{stage="flush"} 0.5' in lines
        assert 'h_count{stage="flush"} 1' in lines

    def test_label_values_are_escaped_in_rendered_series(self):
        counter = Counter("c_total", "help", labels={"path": 'a"\n\\z'})
        rendered = "\n".join(counter.render())
        assert 'path="a\\"\\n\\\\z"' in rendered


class TestRegistry:
    def test_render_preserves_registration_order(self):
        registry = MetricsRegistry()
        registry.gauge("b", "second registered first")
        registry.counter("a_total", "first alphabetically")
        text = registry.render()
        assert text.index("# HELP b ") < text.index("# HELP a_total ")
        assert text.endswith("\n")

    def test_snapshot_covers_all_metric_kinds(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "help")
        gauge = registry.gauge("g", "help")
        histogram = registry.histogram("h", "help", buckets=(1.0,))
        counter.increment(3)
        gauge.set(7)
        histogram.observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot == {
            "c_total": 3.0,
            "g": 7.0,
            "h_count": 1.0,
            "h_sum": 0.5,
        }

    def test_render_metrics_matches_registry_render(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help")
        assert render_metrics(registry.metrics()) == registry.render()
