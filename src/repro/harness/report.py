"""Generate EXPERIMENTS.md: paper-reported vs measured, for everything.

Run:  python -m repro.harness.report [output-path]

This executes every experiment (Table 1, Table 2, Fig. 9, Fig. 10,
Fig. 11, headline) on the substitute suite and writes a markdown report
juxtaposing the paper's numbers with ours, with the fidelity notes from
DESIGN.md inline.
"""

from __future__ import annotations

import sys
import time

from repro.harness import fig9, fig10, fig11, headline, table1, table2

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Reproduction of the evaluation in Bodík, Gupta & Soffa,
*Interprocedural Conditional Branch Elimination* (PLDI 1997).

**Substrate difference, read first.**  The paper measures SPEC95 integer
codes compiled by a modified ICC; we measure the six-program MiniC
suite from `repro.benchgen.suite` executed by the ICFG interpreter
(see DESIGN.md for why each substitution preserves the phenomenon).
The suite is intentionally dense in the correlation idioms the paper
attributes to modular programming, so *absolute* percentages run hotter
than SPEC95; every *directional* claim (who wins, by what rough factor,
how knobs move the result) is checked by assertions in `benchmarks/`.

Regenerate any row with `pytest benchmarks/bench_<name>.py
--benchmark-only -s` or `python -m repro.harness <name>`.
"""

SECTIONS = {
    "table1": """\
## Table 1 — benchmark programs

Paper reports (SPEC95): 1.9k-29k source lines, 26-372 procedures,
0.9k-38k ICFG nodes of which 89-5304 conditional; conditionals are
13-21% of nodes statically and 21-31% of executed operations
dynamically.

Measured on the substitute suite (smaller programs, same shape — the
conditional share of executed operations exceeds its static share on
every benchmark, as in the paper's last two columns):

```
{body}
```
""",
    "table2": """\
## Table 2 — cost of correlation analysis

Paper reports: analysis is the dominant but affordable compile-time
cost (e.g. 83.8s of 98.4s for go), analysis memory is of the same order
as the program representation, and the demand-driven analysis examines
a bounded number of node-query pairs per conditional (~24-169).

Measured (same structure: per-conditional pair counts bounded by the
budget of 1000 and far below it, analysis memory within an order of
magnitude of the program representation):

```
{body}
```
""",
    "fig9": """\
## Figure 9 — statically detectable correlation

Paper reports: interprocedural analysis detects **at least twice as
many** correlated conditionals as intraprocedural analysis; full
correlation would eliminate 3-19% of executed conditionals
interprocedurally vs up to 8% intraprocedurally.

Measured: the inter/intra static detection ratio is {static_ratio:.2f}x
(assertion in `bench_fig9.py` requires >= 2.0), and interprocedural
full-correlation dominates on every benchmark, statically and
dynamically:

```
{body}
```
""",
    "fig10": """\
## Figure 10 — duplication cost vs dynamic benefit per conditional

Paper reports: interprocedural analysis both finds more correlated
conditionals and populates the upper-left quadrant (cheap to isolate,
frequently executed) more densely — the region that makes ICBE
profitable.

Measured: inter finds {inter_points} correlated conditionals vs
{intra_points} intra; upper-left quadrant {inter_ul} vs {intra_ul}
(thresholds: duplication <= 20 nodes, >= 50 avoided executions).

```
{body}
```
""",
    "fig11": """\
## Figure 11 — eliminated executed conditionals vs code growth

Paper reports, sweeping the per-conditional duplication limit N in
{{5..200}} with analysis budget 1000: (1) at any given code growth,
ICBE eliminates significantly more executed conditionals than the
intraprocedural baseline; (2) more allowed growth gives more
elimination; (3) the per-conditional limit is an effective global
growth control.

Measured (all three hold; assertions in `bench_fig11.py`).  Negative
growth appears at small limits because eliminating a fully-correlated
conditional can delete more (newly unreachable) nodes than splitting
duplicated:

```
{body}
```
""",
    "headline": """\
## Headline claims

Paper: "for the same amount of code growth, the estimated reduction in
executed conditional branches is about **2.5 times higher** with ICBE
than when only intraprocedural elimination is applied", and ICBE
eliminates "**3% to 18%** of executed conditionals".

Measured: mean matched-growth ratio **{ratio:.2f}x** (per-benchmark
{ratio_min:.2f}-{ratio_max:.2f}x); executed-conditional reduction
**{red_min:.1f}%-{red_max:.1f}%**.  The ratio brackets the paper's 2.5x;
the reduction band sits above the paper's because the suite's branch
population is idiom-dense by construction (see preamble) — on SPEC-like
code most branches are uncorrelated data tests, which only scales the
denominator.

```
{body}
```
""",
}


def _robustness_section() -> str:
    """Transactional-optimizer drill: outcomes with and without faults.

    Runs the suite through the optimizer with differential validation
    on, then repeats one benchmark under an injected-fault schedule, and
    tabulates the per-branch outcome counts (including the FAILED /
    ROLLED_BACK transactions) that `harness` summaries now track.
    """
    from repro.benchgen.suite import benchmark_names
    from repro.harness.metrics import prepare_benchmark
    from repro.ir import verify_icfg
    from repro.robustness import FaultPlan, differential_check
    from repro.transform import ICBEOptimizer, OptimizerOptions

    header = ("| benchmark | optimized | failed | rolled back | other | "
              "diff check |\n|---|---|---|---|---|---|")
    rows = []
    for name in benchmark_names():
        context = prepare_benchmark(name)
        report = ICBEOptimizer(OptimizerOptions(
            duplication_limit=100, diff_check=True)).optimize(context.icfg)
        verify_icfg(report.optimized)
        diff_ok = differential_check(context.icfg, report.optimized).ok
        other = (len(report.records) - report.optimized_count
                 - report.failed_count - report.rolled_back_count)
        rows.append(f"| {name} | {report.optimized_count} | "
                    f"{report.failed_count} | {report.rolled_back_count} | "
                    f"{other} | {'ok' if diff_ok else 'MISMATCH'} |")

    drill_name = benchmark_names()[0]
    context = prepare_benchmark(drill_name)
    plan = FaultPlan([
        FaultPlan.raising("transform:split", hit=2).specs[0],
        FaultPlan.corrupting("transform:verify", hit=3,
                             action="skew-print").specs[0],
    ])
    drilled = ICBEOptimizer(OptimizerOptions(
        duplication_limit=100, diff_check=True,
        fault_plan=plan)).optimize(context.icfg)
    verify_icfg(drilled.optimized)
    drill_ok = differential_check(context.icfg, drilled.optimized).ok
    drill_other = (len(drilled.records) - drilled.optimized_count
                   - drilled.failed_count - drilled.rolled_back_count)
    rows.append(f"| {drill_name} (2 injected faults) | "
                f"{drilled.optimized_count} | {drilled.failed_count} | "
                f"{drilled.rolled_back_count} | {drill_other} | "
                f"{'ok' if drill_ok else 'MISMATCH'} |")

    return f"""\
## Robustness — transactional optimizer drill

Every conditional's restructuring runs as a transaction (snapshot →
attempt → differential validation → commit or rollback; see
docs/ROBUSTNESS.md).  The table shows per-branch outcome counts across
the suite with differential checking enabled, plus one deliberately
faulted run: an exception injected mid-split and a semantic corruption
injected past the structural verifier.  Both faults cost exactly the
affected transactions; the final graph always verifies and always
matches the original program's observable traces.

{header}
{chr(10).join(rows)}
"""


def _supervisor_section() -> str:
    """Batch-supervisor drill: the suite plus a deliberately failing job.

    Runs the six benchmarks through the `icbe batch` supervisor, each
    attempt in a forked worker as on the command line, with one extra
    job carrying a strict in-optimizer fault, so the degradation ladder
    is exercised inside the report run.
    """
    import shutil
    import tempfile

    from repro.benchgen.suite import benchmark_names
    from repro.robustness.supervisor import (BatchSupervisor, JobSpec,
                                             SupervisorOptions)

    specs = [JobSpec(f"suite:{name}@1") for name in benchmark_names()]
    specs.append(JobSpec(
        f"suite:{benchmark_names()[0]}@1", name="drill-faulted",
        faults=({"site": "transform:split", "hit": 1, "action": "raise"},),
        strict=True))
    run_dir = tempfile.mkdtemp(prefix="icbe-report-batch-")
    try:
        batch = BatchSupervisor(
            specs, run_dir,
            options=SupervisorOptions(backoff_base_s=0.0)).run()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    header = ("| job | status | tier | attempts | retries |\n"
              "|---|---|---|---|---|")
    rows = [f"| {o.job} | {o.status} | {o.tier}/{o.tier_name} | "
            f"{len(o.attempts)} | {o.retries} |"
            for o in batch.outcomes]
    tiers = batch.tier_counts()
    tier_line = " ".join(f"{name}={tiers[name]}" for name in tiers)

    return f"""\
## Robustness — batch supervisor and the degradation ladder

`icbe batch` runs each job in an isolated worker under wall-clock and
address-space caps; failures descend the graceful-degradation ladder
({' > '.join(tiers)}) one tier per attempt, and every completed job is
fsynced into a write-ahead journal so interrupted runs resume
byte-identically (see docs/ROBUSTNESS.md).  The drill below runs the
suite plus one job with a strict injected fault at `transform:split` —
it degrades (the ladder still finds a tier whose output verifies and
diff-checks) while the clean jobs stay at tier 0:

{header}
{chr(10).join(rows)}

Tier totals: {tier_line}; retries={batch.total_retries},
kills={batch.total_kills}, wall={batch.wall_s:.1f}s.
Chaos coverage (hangs, crashes, OOM, SIGKILL-resume) runs at scale 8 in
`benchmarks/bench_supervisor.py` and in the CI chaos job.
"""


def _observability_section() -> str:
    """Self-profile of one optimizer run under the tracing layer.

    Runs the li_like benchmark end to end (parse → lower → optimize)
    inside a private observability session and renders the pstats-style
    per-span aggregate plus the headline counters, so the report shows
    where one optimizer invocation actually spends its time.
    """
    from repro import obs
    from repro.harness.metrics import prepare_benchmark
    from repro.transform import ICBEOptimizer, OptimizerOptions

    with obs.suspended(), obs.session() as active:
        context = prepare_benchmark("li_like")
        ICBEOptimizer(OptimizerOptions(
            duplication_limit=100)).optimize(context.icfg)
    profile = active.render_profile(limit=12)
    counters = active.metrics.snapshot()["counters"]
    highlight = ["analysis.branches_analyzed", "analysis.pairs_examined",
                 "transform.branches_eliminated", "transform.undo_records",
                 "transform.rollbacks", "verify.nodes_checked"]
    counter_lines = "\n".join(f"{name:36s} {counters[name]}"
                              for name in highlight if name in counters)

    return f"""\
## Observability — self-profile of one optimizer run

Every layer is instrumented with hierarchical spans and counters (off
by default, < 2% overhead when disabled; see docs/OBSERVABILITY.md).
The table below profiles one li_like optimization; reproduce with
`icbe optimize suite:li_like --profile`, or get the full span tree with
`--trace out.jsonl` and convert it for `chrome://tracing` with
`python -m repro.obs.export out.jsonl chrome.json`.

```
{profile}
```

Headline counters of the same run (full catalog in
docs/OBSERVABILITY.md; counters are deterministic — byte-identical
snapshots across same-seed runs, asserted in `tests/obs/`):

```
{counter_lines}
```
"""


def _extensions_section() -> str:
    """Measure the qualitative §3.3/§5 claims for the report."""
    from repro.analysis import AnalysisConfig, analyze_branch
    from repro.analysis.engine import CorrelationEngine
    from repro.analysis.prediction import (baseline_predictions,
                                           evaluate_predictor, predict_all)
    from repro.benchgen.suite import benchmark_names
    from repro.harness.metrics import prepare_benchmark
    from repro.interp import run_icfg
    from repro.transform import ICBEOptimizer, OptimizerOptions
    from repro.transform.inline import inline_exhaustively

    config = AnalysisConfig(budget=10_000)

    # §5 inlining-vs-splitting, aggregated.
    split_growth = inline_growth = 0.0
    for name in benchmark_names():
        context = prepare_benchmark(name)
        base = context.icfg.executable_node_count()
        optimizer = ICBEOptimizer(OptimizerOptions(
            config=AnalysisConfig(interprocedural=True),
            duplication_limit=100))
        split = optimizer.optimize(context.icfg).optimized
        split_growth += 100.0 * (split.executable_node_count() - base) / base
        flattened = context.icfg.clone()
        inline_exhaustively(flattened, node_budget=50_000)
        baseline_opt = ICBEOptimizer(OptimizerOptions(
            config=AnalysisConfig(interprocedural=False),
            duplication_limit=100))
        inlined = baseline_opt.optimize(flattened).optimized
        inline_growth += (100.0
                          * (inlined.executable_node_count() - base) / base)
    split_growth /= len(benchmark_names())
    inline_growth /= len(benchmark_names())

    # §3.3 query cache, aggregated.
    fresh_pairs = cached_pairs = 0
    for name in benchmark_names():
        context = prepare_benchmark(name)
        engine = CorrelationEngine(context.icfg, config)
        for branch in context.icfg.branch_nodes():
            fresh_pairs += analyze_branch(
                context.icfg, branch.id, config).stats.pairs_examined
            cached_pairs += analyze_branch(
                context.icfg, branch.id, config,
                engine=engine).stats.pairs_examined

    # §5 prediction, aggregated.
    base_correct = assisted_correct = executed = 0
    for name in benchmark_names():
        context = prepare_benchmark(name)
        assisted = evaluate_predictor(predict_all(context.icfg, config),
                                      context.profile)
        baseline = evaluate_predictor(baseline_predictions(context.icfg),
                                      context.profile)
        executed += baseline.executed
        base_correct += baseline.correct
        assisted_correct += assisted.correct

    return f"""\
## Extension claims (paper §3.3 and §5)

| Claim | Paper | Measured (suite aggregate) |
|---|---|---|
| Inlining-based ICBE grows code more than entry/exit splitting (§5) | "pre-pass inlining incurs large code growth" | splitting {split_growth:+.1f}% vs exhaustive inlining {inline_growth:+.1f}% executable-node growth at equal elimination |
| Query caching saves analysis work at a memory cost (§3.3) | "caching proved counterproductive... due to increased memory" | cached engines process {cached_pairs} vs {fresh_pairs} node-query pairs, but retain every pair ever raised (see `bench_query_cache.py` for peak live pairs) |
| Correlation assists static branch prediction (§5) | qualitative | static accuracy {100.0 * base_correct / executed:.1f}% -> {100.0 * assisted_correct / executed:.1f}% with correlation hints; certain hints are 100% accurate |

Deeper per-benchmark numbers: `pytest benchmarks/bench_inlining.py
benchmarks/bench_partial_inline.py benchmarks/bench_query_cache.py
benchmarks/bench_prediction.py benchmarks/bench_benefit_gate.py
--benchmark-only -s`.
"""


def generate(path: str = "EXPERIMENTS.md") -> str:
    """Run every experiment and write the markdown report to ``path``."""
    started = time.perf_counter()   # monotonic: immune to clock steps
    parts = [PREAMBLE]

    rows1 = table1.compute_table1()
    parts.append(SECTIONS["table1"].format(body=table1.render_table1(rows1)))

    rows2 = table2.compute_table2()
    parts.append(SECTIONS["table2"].format(body=table2.render_table2(rows2)))

    rows9 = fig9.compute_fig9()
    ratios = fig9.summary_ratios(rows9)
    parts.append(SECTIONS["fig9"].format(
        static_ratio=ratios["static_ratio"],
        body=fig9.render_fig9(rows9)))

    data10 = fig10.compute_fig10()
    inter_quadrants = fig10.quadrant_counts(data10.inter)
    intra_quadrants = fig10.quadrant_counts(data10.intra)
    parts.append(SECTIONS["fig10"].format(
        inter_points=len(data10.inter), intra_points=len(data10.intra),
        inter_ul=inter_quadrants["upper_left"],
        intra_ul=intra_quadrants["upper_left"],
        body=fig10.render_fig10(data10)))

    points11 = fig11.compute_fig11()
    parts.append(SECTIONS["fig11"].format(body=fig11.render_fig11(points11)))

    summary = headline.compute_headline(points11)
    ratio_values = list(summary.per_benchmark_ratio.values())
    parts.append(SECTIONS["headline"].format(
        ratio=summary.mean_ratio,
        ratio_min=min(ratio_values), ratio_max=max(ratio_values),
        red_min=summary.reduction_min_pct, red_max=summary.reduction_max_pct,
        body=headline.render_headline(summary)))

    parts.append(_extensions_section())
    parts.append(_robustness_section())
    parts.append(_supervisor_section())
    parts.append(_observability_section())

    elapsed = time.perf_counter() - started
    parts.append(f"---\n\nGenerated by `python -m repro.harness.report` "
                 f"in {elapsed:.1f}s.\n")
    text = "\n".join(parts)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text


def main() -> None:
    """CLI entry: ``python -m repro.harness.report [path]``."""
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    generate(path)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
