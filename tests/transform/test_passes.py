"""The optimizer's stages and the transactions they run."""

from tests.helpers import build

from repro import obs
from repro.analysis import AnalysisConfig
from repro.benchgen.suite import load_benchmark
from repro.ir import dump_icfg, lower_program
from repro.transform import ICBEOptimizer, OptimizerOptions

CONFIG = AnalysisConfig(budget=100_000)

SOURCE = """
    global err = 0;
    proc may_fail(v) {
        if (v < 0) { err = 1; return 0; }
        err = 0;
        return v;
    }
    proc main() {
        var a = may_fail(input());
        if (err == 1) { print 1; }
        var b = may_fail(input());
        if (err == 1) { print 2; }
        if (err == 0) { print 3; }
    }
"""


def run(icfg, **kwargs):
    kwargs.setdefault("config", CONFIG)
    return ICBEOptimizer(OptimizerOptions(**kwargs)).optimize(icfg)


def test_default_pipeline_has_the_three_passes_in_order():
    with obs.session() as active:
        run(build(SOURCE))
    spans = active.export_spans()
    optimize = next(s for s in spans if s["name"] == "optimize")
    stages = [s["name"] for s in spans
              if s["parent"] == optimize["id"]]
    assert stages == ["pass.restructure", "pass.simplify",
                      "pass.final-validate"]


def test_each_conditional_is_analyzed_once():
    # m88ksim_like@4 under the default budget truncates two analyses;
    # their verdicts come from the same single in-place analysis.
    icfg = lower_program(load_benchmark("m88ksim_like", 4).program)
    with obs.session() as active:
        report = run(icfg, config=AnalysisConfig(), duplication_limit=100)
    assert sum(r.budget_exhausted for r in report.records) == 2
    counters = active.metrics.snapshot()["counters"]
    assert (counters["analysis.pairs_examined"]
            == counters["optimize.pairs_examined"])
    assert (counters["analysis.branches_analyzed"]
            + counters.get("analysis.branches_unanalyzable", 0)
            == len(report.records))


def test_fruitless_transactions_replay_nothing():
    icfg = build(SOURCE)
    with obs.session() as active:
        report = run(icfg)
    assert report.optimized_count > 0
    # Fruitless transactions roll back an empty undo log: nothing is
    # replayed, and none of them counts as a rollback.
    assert len(report.records) > report.optimized_count
    counters = active.metrics.snapshot()["counters"]
    assert counters["transform.undo_records"] > 0
    assert counters.get("transform.undo_replayed", 0) == 0
    assert "transform.rollbacks" not in counters
    assert not any(name.startswith("cache.") for name in counters)


def test_input_graph_is_never_mutated_despite_in_place_transactions():
    icfg = build(SOURCE)
    pristine = dump_icfg(icfg)
    run(icfg)
    assert dump_icfg(icfg) == pristine
