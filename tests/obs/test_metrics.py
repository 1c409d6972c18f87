"""The metrics registry: counters, gauges, histograms, determinism."""

import json

from repro import obs
from repro.obs.metrics import HISTOGRAM_BOUNDS, MetricsRegistry


def test_counter_gauge_histogram_basics():
    registry = MetricsRegistry()
    registry.add("c", 2)
    registry.add("c")
    registry.set("g", 7)
    registry.set("g", 3)
    registry.observe("h", 5)
    registry.observe("h", 500)
    snapshot = registry.snapshot()
    assert snapshot["counters"]["c"] == 3
    assert snapshot["gauges"]["g"] == 3
    hist = snapshot["histograms"]["h"]
    assert hist["count"] == 2
    assert hist["total"] == 505
    assert hist["min"] == 5 and hist["max"] == 500


def test_histogram_buckets_are_powers_of_two():
    assert HISTOGRAM_BOUNDS[0] == 1
    assert all(b == 2 ** i for i, b in enumerate(HISTOGRAM_BOUNDS))


def test_snapshot_is_sorted_and_json_stable():
    registry = MetricsRegistry()
    registry.add("zebra")
    registry.add("aardvark")
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["aardvark", "zebra"]
    # Same updates in a different order -> byte-identical snapshot.
    other = MetricsRegistry()
    other.add("aardvark")
    other.add("zebra")
    assert (json.dumps(snapshot, sort_keys=True)
            == json.dumps(other.snapshot(), sort_keys=True))


def test_merge_adds_counters_and_merges_histograms():
    a = MetricsRegistry()
    a.add("c", 1)
    a.observe("h", 3)
    b = MetricsRegistry()
    b.add("c", 2)
    b.observe("h", 100)
    a.merge(b.snapshot())
    snapshot = a.snapshot()
    assert snapshot["counters"]["c"] == 3
    assert snapshot["histograms"]["h"]["count"] == 2
    assert snapshot["histograms"]["h"]["max"] == 100


def _optimize_snapshot():
    from repro.benchgen.suite import load_benchmark
    from repro.ir import lower_program
    from repro.transform import ICBEOptimizer, OptimizerOptions

    icfg = lower_program(load_benchmark("li_like").program)
    with obs.session() as active:
        ICBEOptimizer(OptimizerOptions(
            duplication_limit=100, diff_seed=7)).optimize(icfg)
        return active.metrics.snapshot()


def test_optimizer_metrics_are_byte_identical_across_runs():
    """The acceptance criterion: no timing ever enters the registry, so
    two same-seed optimizer runs snapshot to identical bytes."""
    first = json.dumps(_optimize_snapshot(), sort_keys=True)
    second = json.dumps(_optimize_snapshot(), sort_keys=True)
    assert first == second
    # And the run actually produced the expected families of metrics.
    counters = json.loads(first)["counters"]
    for name in ("analysis.branches_analyzed", "analysis.pairs_examined",
                 "optimize.optimized", "transform.branches_eliminated",
                 "transform.undo_records", "verify.nodes_checked"):
        assert name in counters, name


def test_durations_never_enter_the_registry():
    """Spans carry the timings; the registry must stay deterministic."""
    snapshot = _optimize_snapshot()
    for kind in ("counters", "gauges"):
        for name, value in snapshot[kind].items():
            assert float(value) == int(value), (
                f"{kind[:-1]} {name!r} holds a non-integral value "
                f"{value!r} — that smells like a duration")
