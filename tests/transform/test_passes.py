"""The pass-manager pipeline and its shared analysis context."""

from tests.helpers import build

from repro import obs
from repro.analysis import AnalysisConfig
from repro.analysis.context import AnalysisContext
from repro.benchgen.suite import load_benchmark
from repro.ir import dump_icfg, lower_program
from repro.transform import ICBEOptimizer, OptimizerOptions
from repro.transform.passes import (FinalValidatePass, PassManager,
                                    RestructurePass, SimplifyPass,
                                    build_default_pipeline)

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
    passes = build_default_pipeline().passes
    assert [type(p) for p in passes] == [RestructurePass, SimplifyPass,
                                         FinalValidatePass]


def test_pass_preservation_declarations():
    assert RestructurePass.preserves == frozenset()
    assert SimplifyPass.preserves == frozenset({AnalysisContext.MODREF})
    assert FinalValidatePass.preserves == AnalysisContext.ALL


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


def test_cached_run_reports_cache_activity():
    icfg = build(SOURCE)
    with obs.session() as active:
        report = run(icfg)
    stats = report.cache
    assert stats.commits >= report.optimized_count
    assert stats.analyses_reused > 0
    # Fruitless transactions roll back an empty undo log: nothing is
    # replayed, and none of them counts as a rollback.
    assert len(report.records) > report.optimized_count
    assert stats.rollbacks == 0
    counters = active.metrics.snapshot()["counters"]
    assert counters["transform.undo_records"] > 0
    assert counters.get("transform.undo_replayed", 0) == 0


def test_input_graph_is_never_mutated_despite_in_place_transactions():
    icfg = build(SOURCE)
    pristine = dump_icfg(icfg)
    generation = icfg.generation
    run(icfg)
    assert dump_icfg(icfg) == pristine
    assert icfg.generation == generation


def test_simplify_commit_preserves_summaries():
    """Nop compaction's commit must not cost the mod/ref summaries (it
    declares MODREF preserved), even though it dirties procedures."""
    icfg = build(SOURCE)
    # Intraprocedural mode is the one that consults mod/ref.
    report = run(icfg, duplication_limit=0,
                 config=AnalysisConfig(budget=100_000,
                                       interprocedural=False))
    # With splitting gated off entirely, nothing dirties the graph
    # before simplify, and simplify's own commit preserves mod/ref: it
    # is never invalidated across the run, while the branch index is.
    assert report.cache.modref_invalidated == 0
    assert report.cache.index_invalidated == 1
    assert report.optimized_count == 0
