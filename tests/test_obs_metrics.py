"""Unit and property tests for the metrics registry and snapshot deltas.

Hypothesis generates operation sequences and checks the ``delta`` law on the
resulting snapshots.  Observation values are integers so float rounding
cannot produce spurious counterexamples.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import (
    MetricsRegistry,
    NullRegistry,
    delta,
    empty_snapshot,
    get_registry,
    reset_registry,
    set_enabled,
)


class TestRegistryBasics:
    def test_counters_accumulate(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a", 4)
        assert registry.counter("a") == 5
        assert registry.counter("missing") == 0

    def test_counters_are_monotone(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="monotone"):
            registry.inc("a", -1)

    def test_gauges_set_and_add(self):
        registry = MetricsRegistry()
        registry.gauge_set("depth", 3)
        registry.gauge_add("depth", -1)
        assert registry.gauge("depth") == 2
        assert registry.gauge("missing") == 0

    def test_histogram_fields(self):
        registry = MetricsRegistry()
        for value in (0.5, 2.0, 3.0, -1.0):
            registry.observe("lat", value)
        payload = registry.snapshot()["histograms"]["lat"]
        assert payload["count"] == 4
        assert payload["sum"] == pytest.approx(4.5)
        assert payload["min"] == -1.0
        assert payload["max"] == 3.0
        # 0.5 -> exponent -1; 2.0/3.0 -> exponent 1; -1.0 -> underflow.
        assert payload["buckets"] == {"-1": 1, "1": 2, "le0": 1}

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.observe("h", 1.0)
        snap = registry.snapshot()
        snap["counters"]["a"] = 99
        snap["histograms"]["h"]["buckets"]["0"] = 99
        assert registry.counter("a") == 1
        assert registry.snapshot()["histograms"]["h"]["buckets"] == {"0": 1}

    def test_clear_drops_everything(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.gauge_set("g", 1)
        registry.observe("h", 1.0)
        registry.clear()
        assert registry.snapshot() == empty_snapshot()

    def test_null_registry_records_nothing(self):
        registry = NullRegistry()
        registry.inc("a", 5)
        registry.gauge_set("g", 1)
        registry.gauge_add("g", 1)
        registry.observe("h", 1.0)
        assert registry.snapshot() == empty_snapshot()

    def test_threaded_increments_do_not_lose_updates(self):
        registry = MetricsRegistry()

        def work():
            for _ in range(1000):
                registry.inc("n")
                registry.observe("h", 1.0)

        threads = [threading.Thread(target=work) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter("n") == 4000
        assert registry.snapshot()["histograms"]["h"]["count"] == 4000


class TestGlobalRegistry:
    def test_set_enabled_swaps_in_null_registry(self):
        previous = set_enabled(True)
        try:
            live = get_registry()
            assert not isinstance(live, NullRegistry)
            assert set_enabled(False) is True
            assert isinstance(get_registry(), NullRegistry)
            assert set_enabled(True) is False
            assert get_registry() is live
        finally:
            set_enabled(previous)

    def test_reset_registry_replaces_the_global(self):
        previous = set_enabled(True)
        try:
            get_registry().inc("stale")
            fresh = reset_registry()
            assert fresh is get_registry()
            assert fresh.counter("stale") == 0
        finally:
            set_enabled(previous)


# --------------------------------------------------------------------------- #
# Property tests: snapshot algebra
# --------------------------------------------------------------------------- #

names_st = st.sampled_from(["a.b", "c.d", "e"])

#: Integer-valued operations keep every sum exactly representable, so the
#: algebraic laws are exact (float addition is not associative in general).
ops_st = st.lists(
    st.one_of(
        st.tuples(st.just("inc"), names_st, st.integers(min_value=0, max_value=1000)),
        st.tuples(st.just("gauge"), names_st, st.integers(min_value=-100, max_value=100)),
        st.tuples(st.just("observe"), names_st, st.integers(min_value=-8, max_value=4096)),
    ),
    max_size=30,
)


def snapshot_from(ops):
    registry = MetricsRegistry()
    apply_ops(registry, ops)
    return registry.snapshot()


def apply_ops(registry, ops):
    for kind, name, value in ops:
        if kind == "inc":
            registry.inc(name, value)
        elif kind == "gauge":
            registry.gauge_set(name, value)
        else:
            registry.observe(name, value)


@settings(max_examples=60, deadline=None)
@given(ops_st)
def test_delta_against_self_is_quiet(ops):
    """A no-progress delta carries no counter or histogram activity."""
    snap = snapshot_from(ops)
    diff = delta(snap, snap)
    assert diff["counters"] == {}
    assert diff["histograms"] == {}
