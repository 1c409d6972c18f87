"""CI gate: cache-on vs cache-off equivalence under --diff-check.

Runs the six suite benchmarks at scale 2 through the optimizer twice —
with the shared analysis context and with ``analysis_cache=False`` —
both under differential validation, and fails on any divergence in
per-branch outcomes or in the final optimized graph.  No timing
assertions (CI machines are noisy); the speedup gate lives in
``bench_cache.py``.

Run:  PYTHONPATH=src python benchmarks/ci_cache_equivalence.py
"""

import sys

from repro.analysis import AnalysisConfig
from repro.benchgen.suite import benchmark_names, load_benchmark
from repro.ir import dump_icfg, lower_program, verify_icfg
from repro.transform import ICBEOptimizer, OptimizerOptions

SCALE = 2
BUDGET = 1000
LIMIT = 40


def check(name):
    icfg = lower_program(load_benchmark(name, scale=SCALE).program)
    verify_icfg(icfg)
    reports = {}
    for cache in (True, False):
        reports[cache] = ICBEOptimizer(OptimizerOptions(
            config=AnalysisConfig(budget=BUDGET), duplication_limit=LIMIT,
            diff_check=True, analysis_cache=cache)).optimize(icfg)
    cached, plain = reports[True], reports[False]
    failures = []
    cached_outcomes = [(r.branch_id, r.outcome.value) for r in cached.records]
    plain_outcomes = [(r.branch_id, r.outcome.value) for r in plain.records]
    if cached_outcomes != plain_outcomes:
        divergent = [(a, b) for a, b in zip(cached_outcomes, plain_outcomes)
                     if a != b]
        failures.append(f"outcome divergence: {divergent[:5]}")
    if dump_icfg(cached.optimized) != dump_icfg(plain.optimized):
        failures.append("optimized graphs differ")
    verify_icfg(cached.optimized)
    verify_icfg(plain.optimized)
    print(f"{name:15s} {len(cached.records)} conditionals, "
          f"{cached.optimized_count} optimized: "
          f"{'ok' if not failures else 'FAIL'}")
    return failures


def main():
    failed = False
    for name in benchmark_names():
        for failure in check(name):
            print(f"  {name}: {failure}", file=sys.stderr)
            failed = True
    if failed:
        print("cache-on and cache-off runs diverged", file=sys.stderr)
        return 1
    print("cache-on and cache-off runs are identical on every benchmark")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
