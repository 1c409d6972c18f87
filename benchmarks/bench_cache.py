"""Shared analysis context: suite-scale speedup at identical outcomes.

The optimizer's pass pipeline shares one generation-keyed
`AnalysisContext` across conditionals (pre-analysis reuse, interned
queries, memoized mod/ref and indices, in-place restructuring under the
graph's undo log, and edit-frontier re-verification).
`--no-analysis-cache` recovers the original
derive-everything-per-conditional behaviour.

This bench runs the scale-8 tier (thousands of ICFG nodes per program)
both ways and asserts the two properties that justify the architecture:

- **equivalence**: per-branch outcome sequences are identical and the
  optimized graphs are byte-identical (and both verify);
- **speed**: the shared context is at least 1.5x faster over the suite.

Run:  pytest benchmarks/bench_cache.py --benchmark-only -s
"""

import time

from repro.analysis import AnalysisConfig
from repro.benchgen.suite import benchmark_names, load_benchmark
from repro.ir import dump_icfg, lower_program, verify_icfg
from repro.transform import ICBEOptimizer, OptimizerOptions
from repro.utils.tables import render_table

SCALE = 8
BUDGET = 1000
LIMIT = 40
MIN_SUITE_SPEEDUP = 1.5


def _options(analysis_cache):
    return OptimizerOptions(config=AnalysisConfig(budget=BUDGET),
                            duplication_limit=LIMIT,
                            analysis_cache=analysis_cache)


def measure(name):
    icfg = lower_program(load_benchmark(name, scale=SCALE).program)
    verify_icfg(icfg)

    started = time.perf_counter()
    cached = ICBEOptimizer(_options(True)).optimize(icfg)
    cached_s = time.perf_counter() - started

    started = time.perf_counter()
    plain = ICBEOptimizer(_options(False)).optimize(icfg)
    plain_s = time.perf_counter() - started

    # Equivalence: same per-branch verdicts, byte-identical result, and
    # both graphs pass full structural verification.
    assert ([(r.branch_id, r.outcome) for r in cached.records]
            == [(r.branch_id, r.outcome) for r in plain.records]), name
    assert dump_icfg(cached.optimized) == dump_icfg(plain.optimized), name
    verify_icfg(cached.optimized)
    verify_icfg(plain.optimized)

    return {
        "cached_s": cached_s,
        "plain_s": plain_s,
        "optimized": cached.optimized_count,
        "records": len(cached.records),
        "reused": cached.cache.analyses_reused,
        "commits": cached.cache.commits,
        "rollbacks": cached.cache.rollbacks,
    }


def test_cache_speedup_at_scale(benchmark):
    def sweep():
        return {name: measure(name) for name in benchmark_names()}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [[name, r["records"], r["optimized"],
             round(r["cached_s"], 2), round(r["plain_s"], 2),
             round(r["plain_s"] / r["cached_s"], 2), r["reused"],
             r["commits"], r["rollbacks"]]
            for name, r in results.items()]
    cached_total = sum(r["cached_s"] for r in results.values())
    plain_total = sum(r["plain_s"] for r in results.values())
    speedup = plain_total / cached_total
    rows.append(["TOTAL", "", "", round(cached_total, 2),
                 round(plain_total, 2), round(speedup, 2), "", "", ""])
    print()
    print(render_table(
        ["benchmark (x8)", "conds", "opt", "cache [s]", "no-cache [s]",
         "speedup", "analyses reused", "commits", "rollbacks"], rows,
        title=f"Shared analysis context at scale {SCALE} "
              f"(identical outcomes both ways)"))
    assert speedup >= MIN_SUITE_SPEEDUP, (
        f"suite speedup {speedup:.2f}x < {MIN_SUITE_SPEEDUP}x")
